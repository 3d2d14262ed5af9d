"""The per-layer bench script still finds every gbei name it measures.

`tools/bench_layers.py` reads a count as null on a side that lacks the
function it counts, so a rename in gbei would turn a count into null
without an error.  Here every name the script imports, reads off a gbei
module or counts by string must exist at this checkout.  The script is
loaded by path, as tests/test_tracer.py loads the tracer.
"""

import ast
import hashlib
import importlib
import json
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "tools" / "bench_layers.py"


def _load_bench():
    spec = importlib.util.spec_from_file_location("bench_layers", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _used_names():
    """(dotted owner, owner, name) for each name the script imports from
    gbei or the benchmark, reads as an attribute of what it imported
    (`importlib.import_module` included), or passes as a string to
    `_counting` or `getattr`."""
    tree = ast.parse(BENCH.read_text())
    bound = {}  # local name -> (dotted owner, imported object)
    used = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom)
                and node.module.split(".")[0] in ("gbei", "benchmark")):
            owner = importlib.import_module(node.module)
            for alias in node.names:
                used.append((node.module, owner, alias.name))
                bound[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}", getattr(owner, alias.name, None))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("gbei."):
                    bound[alias.asname] = (alias.name,
                                           importlib.import_module(alias.name))
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                and ast.unparse(node.value.func) == "importlib.import_module"):
            dotted = node.value.args[0].value
            bound[node.targets[0].id] = (dotted, importlib.import_module(dotted))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound):
            used.append((*bound[node.value.id], node.attr))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("_counting", "getattr")
                and isinstance(node.args[0], ast.Name) and node.args[0].id in bound
                and isinstance(node.args[1], ast.Constant)):
            used.append((*bound[node.args[0].id], node.args[1].value))
    return used


def test_every_gbei_name_the_layers_use_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    used = _used_names()
    found = {f"{dotted}.{name}" for dotted, _, name in used}
    for name in ("gbei.hochster._homology_ranks", "gbei.hochster._collapsed_ranks",
                 "gbei.hochster._link", "gbei.hochster._non_coned_faces",
                 "gbei.hochster.betti_table", "gbei.hochster.depth_and_regularity",
                 "gbei.hilbert._kpoly", "gbei.hilbert.hilbert_series",
                 "gbei.groebner._spair", "gbei.verify.Ideal",
                 "gbei.verify.verify", "gbei.verify._meet", "gbei.verify._variables",
                 "gbei.verify._segre_floor", "gbei.verify._meet_series",
                 "gbei.cut_sets", "benchmark.workloads.random_graph"):
        assert name in found, name
    missing = [f"{dotted}.{name}" for dotted, owner, name in used
               if not hasattr(owner, name)]
    assert not missing


def test_counting_counts_restores_and_reads_none_when_missing():
    bench = _load_bench()
    owner = SimpleNamespace(inner=lambda: 1)
    owner.outer = lambda: owner.inner() + owner.inner()
    original = owner.inner
    with bench._counting(owner, "outer") as outer, \
            bench._counting(owner, "inner", outer) as alone, \
            bench._counting(owner, "absent") as absent:
        owner.inner()
        assert owner.outer() == 2
    assert (outer.calls, alone.calls, absent) == (1, 1, None)
    assert owner.inner is original
    assert bench._calls(absent) is None and bench._calls(alone, 1) == 2


def test_counts_must_repeat_in_every_round():
    bench = _load_bench()
    same = bench._side([[[{"n": 3}, 0.2]], [[{"n": 3}, 0.1]], [[{"n": 3}, 0.4]]])
    assert same["items"] == [{"n": 3, "median_s": 0.2, "rounds_s": [0.2, 0.1, 0.4]}]
    assert same["total_median_s"] == 0.2
    with pytest.raises(SystemExit):
        bench._side([[[{"n": 3}, 0.2]], [[{"n": 4}, 0.2]]])


def test_items_whose_counts_differ_between_the_sides_are_listed():
    bench = _load_bench()
    parent = bench._side([[[{"n": 3, "digest": "a"}, 0.2], [{"n": 5, "digest": "b"}, 0.1]]])
    slower = bench._side([[[{"n": 3, "digest": "a"}, 0.4], [{"n": 5, "digest": "b"}, 0.3]]])
    change = bench._side([[[{"n": 3, "digest": "a"}, 0.2], [{"n": 5, "digest": "c"}, 0.1]]])
    assert bench._differing({"parent": parent, "change": slower}) == []
    assert bench._differing({"parent": parent, "change": change}) == [
        {"parent": {"n": 5, "digest": "b"}, "change": {"n": 5, "digest": "c"}}]


def test_the_cutsets_layer_counts_what_cut_sets_returns(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from benchmark.workloads import random_graph
    from gbei import cut_sets, graph_from_json

    row, seconds = next(_load_bench().cutsets())
    assert row["graph"] == "G(16,1/4) #0"
    assert row["cut_sets"] == len(cut_sets(graph_from_json(random_graph(0))))
    assert seconds > 0


def test_the_groebner_layer_times_what_verify_builds(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    import gbei.groebner as groebner
    from gbei import Ideal

    verify_module = importlib.import_module("gbei.verify")
    bench = _load_bench()
    row, seconds = next(bench.groebner())
    assert row["item"] == "4,(2,2) in(J)"
    J, P, variable_sets, _ = bench._decomposition(4, (2, 2))
    # J's basis under the decomposition bound, as verify() builds it
    fresh = Ideal(J.ring, J.gens)
    with bench._counting(groebner, "_spair") as spairs:
        fresh._basis(fresh.default_order(), verify_module._meet_series(P, variable_sets))
    basis = fresh.groebner_basis()
    assert basis == J.groebner_basis()
    assert (row["gens"], row["basis"], row["spairs"]) == (
        len(J.gens), len(basis), spairs.calls)
    assert spairs.calls < 393  # the pairs J's basis reduces with no floor
    terms = json.dumps([sorted(g.terms.items()) for g in basis]).encode()
    assert row["digest"] == hashlib.sha256(terms).hexdigest()
    assert seconds > 0


def test_the_decomposition_layer_counts_what_verify_does(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    import gbei.groebner as groebner
    from gbei import PartiteSpec, verify

    verify_module = importlib.import_module("gbei.verify")
    bench = _load_bench()
    row, seconds = next(bench.decomposition())
    assert (row["spec"], row["nvars"]) == ("4,(2,2)", 16)
    with bench._counting(verify_module, "Ideal") as fallbacks, \
            bench._counting(verify_module, "hilbert_series") as series, \
            bench._counting(groebner, "_spair") as spairs:
        report = verify(PartiteSpec(4, (2, 2)), prime=bench.PRIME,
                        groebner_cap=bench.WIDE_CAP, hochster_cap=0)
    assert row["statuses"] == {r["name"]: r["status"] for r in report.invariants}
    assert row["statuses"]["decomposition"] == "match"
    assert (row["fallbacks"], row["series"], row["spairs"]) == (
        fallbacks.calls, series.calls, spairs.calls)
    assert row["fallbacks"] == 0  # the bound settles the row
    # in(P_0) reaches its Segre floor, and the union of the two variable
    # sets holds every variable: one small series per set
    assert row["series"] == 2
    assert seconds > 0
