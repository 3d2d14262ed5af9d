"""Time one oracle layer on two checkouts, alternating them round by round.

    python tools/bench_layers.py LAYER --parent DIR --change DIR --output FILE

LAYER is one of

- betti: `betti_table` on 7 specs x 2 lex orders, with the sigma of the
  union closure, the sigma reduced on their faces (`_homology_ranks`
  calls), the entries and a SHA-256 of the table's rows;
- links: `depth_and_regularity` (cap 18) on 11 specs, lex row-major, with
  the faces of the union of the supports, the faces the link walk visits,
  the non-coned faces, the links reduced (`_collapsed_ranks` calls), the
  reductions on faces under them, and (depth, reg);
- hilbert: `hilbert_series` on 19 monomial ideals, with the generators,
  the recursion nodes (`_kpoly` calls) and the series;
- groebner: the Groebner bases `verify()` builds, in(J) on 5 specs (4
  under the Hilbert floor `verify()` passes) and on 3 specs of 24
  variables, and in(P_0) under its Segre floor then the containment test
  on 4, with the generators, the basis size, the S-pairs reduced
  (`_spair` calls) and a SHA-256 of the basis;
- decomposition: `verify()` (Groebner cap 30, Hochster cap 0) on the 4
  verify-elimination specs and on 5 specs of 24 to 30 variables, with the
  row statuses, the exact fallbacks (calls of `gbei.verify.Ideal`, which
  only the fallback makes), the Hilbert series taken (calls of
  `gbei.verify.hilbert_series`) and the S-pairs reduced (`_spair` calls);
- cutsets: `cut_sets` on 13 graphs on 16 vertices, the eight seeded ones
  the cli-mix workload reads among them, with the edges and the cut sets.

Each of ROUNDS rounds starts one fresh interpreter per side, which imports
gbei from that side's DIR/src and measures every item of the layer; which
side goes first alternates.  Every input is built outside the timed calls,
over GF(32003), and an item's time in a round is the best of REPEAT calls,
or of as many as take FILL_S seconds when that best is under a millisecond.
Its counts come from one more, untimed call, and must repeat in every
round.  A count reads null on a side that lacks the function it counts.
FILE gets, for each side and item, the per-round times and their median,
and each side's total of medians.  It also lists the items whose counts
differ between the sides, which are printed on stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from contextlib import ExitStack, contextmanager
from pathlib import Path
from types import SimpleNamespace

PRIME = 32003
CAP = 18
ROUNDS = 10
REPEAT = 3
FILL_S = 0.05
ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")

BETTI_SPECS = ((2, (2, 2, 2)), (3, (1, 1, 2)), (3, (1, 3)), (3, (2, 2)),
               (2, (3, 3)), (3, (1, 1, 1, 1, 1)), (3, (1, 1, 1, 2)))
# the five verify-hochster specs, then specs past the default Hochster cap
LINKS_SPECS = ((3, (1, 1, 2)), (3, (1, 3)), (3, (2, 2)), (3, (1, 1, 1, 1, 1)),
               (3, (1, 1, 1, 2)),
               (4, (2, 2)), (3, (3, 3)), (2, (2, 2, 2, 3)), (3, (1, 5)),
               (2, (2, 7)), (2, (1, 8)))
# the verify-elimination specs, then in(J) alone past the Groebner cap
MEET_SPECS = ((4, (2, 2)), (3, (1, 1, 1, 3)), (3, (3, 3)), (2, (2, 2, 2, 3)))
LARGE_SPECS = ((2, (1, 11)), (2, (3, 9)), (3, (1, 7)))
CLI_HILBERT_SPECS = ((3, (3, 3)), (2, (4, 5)))
# the slowest specs of 19-24 and of 25-30 variables with both caps raised
WIDE_SPECS = ((4, (3, 3)), (3, (3, 7)))
WIDE_CAP = 30


@contextmanager
def _counting(owner, name, outside=None):
    """Count the calls of owner.name, but none made while the count
    `outside` is inside a call; yield the count, or None if there is no
    such name."""
    original = getattr(owner, name, None)
    if original is None:
        yield None
        return
    count = SimpleNamespace(calls=0, active=0)

    def counted(*args, **kwargs):
        if not (outside and outside.active):
            count.calls += 1
        count.active += 1
        try:
            return original(*args, **kwargs)
        finally:
            count.active -= 1

    setattr(owner, name, counted)
    try:
        yield count
    finally:
        setattr(owner, name, original)


def _calls(count, offset=0):
    return None if count is None else offset + count.calls


def _best(call):
    """call()'s result and its best time over REPEAT calls, or, if that
    best is under a millisecond, over as many calls as take FILL_S."""
    runs = []
    while len(runs) < REPEAT or (min(runs) < 1e-3 and sum(runs) < FILL_S):
        t0 = time.perf_counter()
        out = call()
        runs.append(time.perf_counter() - t0)
    return out, min(runs)


def _spec_name(m, parts):
    return f"{m},({','.join(map(str, parts))})"


def _initial(m, parts, order="lex_row_major"):
    from gbei import PartiteSpec, TermOrder, complete_multipartite, generalized_bei

    J = generalized_bei(m, complete_multipartite(PartiteSpec(m, parts)), PRIME)
    return J.initial_ideal(getattr(TermOrder, order)(J.ring))


def betti():
    from gbei import hochster

    for m, parts in BETTI_SPECS:
        for order in ("lex_row_major", "lex_column_major"):
            ini = _initial(m, parts, order)
            closed = {0}
            for s in hochster.SimplicialComplex.of_ideal(ini).supports:
                closed |= {mask | s for mask in closed}
            table, best = _best(lambda: hochster.betti_table(ini, PRIME))
            with _counting(hochster, "_homology_ranks") as reduced:
                hochster.betti_table(ini, PRIME)
            rows = json.dumps(table.rows()).encode()
            yield {"spec": _spec_name(m, parts), "order": order,
                   "nvars": ini.nvars, "sigma": len(closed),
                   "sigma_reduced": _calls(reduced),
                   "entries": len(table.entries),
                   "digest": hashlib.sha256(rows).hexdigest()}, best


def links():
    from gbei import hochster

    for m, parts in LINKS_SPECS:
        ini = _initial(m, parts)
        complex_ = hochster.SimplicialComplex.of_ideal(ini)
        union = 0
        for s in complex_.supports:
            union |= s
        (depth, reg), best = _best(
            lambda: hochster.depth_and_regularity(ini, PRIME, cap=CAP))
        with ExitStack() as stack:
            tables = stack.enter_context(_counting(hochster, "_homology_ranks"))
            collapsed = stack.enter_context(_counting(hochster, "_collapsed_ranks"))
            # a link the walk takes, not one a collapse tests a vertex by
            taken = stack.enter_context(_counting(hochster, "_link", collapsed))
            hochster.depth_and_regularity(ini, PRIME, cap=CAP)
        walk = getattr(hochster, "_non_coned_faces", None)
        yield {"spec": _spec_name(m, parts), "nvars": ini.nvars,
               "faces": sum(map(len, complex_.faces_by_size(union))),
               "visited": _calls(taken, 1),
               "non_coned": None if walk is None else sum(
                   1 for _ in walk(complex_, lambda *_: True)),
               "links_reduced": _calls(collapsed),
               "tables_reduced": _calls(tables),
               "depth": depth, "reg": reg}, best


def _decomposition(m, parts):
    """J, P_0 and the variable bitmasks of the other predicted components,
    as `verify()` forms them, and M, their meet by `verify._meet`, which
    `verify()` forms only in its exact fallback."""
    from gbei import (PartiteSpec, complete_multipartite, generalized_bei,
                      predict, prime_component)
    from gbei.verify import _meet, _variables

    spec = PartiteSpec(m, parts)
    G = complete_multipartite(spec)
    J = generalized_bei(m, G, PRIME)
    P, *variable = [prime_component(m, G, T, PRIME)
                    for T in predict(spec).cut_sets]
    variable_sets = [_variables(A) for A in variable]
    return J, P, variable_sets, _meet(P.ring.nvars, variable_sets)


def _hilbert_ideals():
    """Monomial ideals of the verify-elimination specs: in(J) and in(P_0),
    whose series the oracle takes, and M and in(P_0) + M, the ideals of
    the decomposition bound built from generators; then in(J) alone for
    the specs past the Groebner cap."""
    from gbei import MonomialIdeal, TermOrder

    for m, parts in MEET_SPECS + LARGE_SPECS:
        name = _spec_name(m, parts)
        yield f"{name} in(J)", _initial(m, parts)
        if (m, parts) in LARGE_SPECS:
            continue
        _, P, _, M = _decomposition(m, parts)
        ini = P.initial_ideal(TermOrder.lex_row_major(P.ring))
        yield f"{name} in(P_0)", ini
        yield f"{name} M", M
        yield f"{name} in(P_0) + M", MonomialIdeal(M.nvars, ini.gens + M.gens)


def hilbert():
    import gbei.hilbert as hilbert

    for name, ideal in list(_hilbert_ideals()):
        series, best = _best(lambda: hilbert.hilbert_series(ideal))
        with _counting(hilbert, "_kpoly") as nodes:
            hilbert.hilbert_series(ideal)
        yield {"ideal": name, "nvars": ideal.nvars, "gens": len(ideal.gens),
               "series": series.text(), "nodes": _calls(nodes)}, best


def _groebner_calls():
    """(name, call) for the Groebner work `verify()` does, each call giving
    a fresh ideal its basis and returning that ideal: in(J) on the
    verify-elimination specs, under the decomposition bound that `verify()`
    passes as J's Hilbert floor, then with no floor on the specs of
    cli-mix's hilbert calls and the specs past the Groebner cap; then, on
    the verify-elimination specs, the containment row's test: P_0's basis
    under its Segre floor, J's generators divided by it and tested on their
    support bitmasks against the other components' variables, followed by
    in(P_0).  A side with no Hilbert floors builds every basis with none,
    as its `verify()` does."""
    from gbei import Ideal, PartiteSpec, complete_multipartite, generalized_bei
    from gbei.rings import mono_mask

    verify_module = importlib.import_module("gbei.verify")
    segre = getattr(verify_module, "_segre_floor", None)

    def initial(ideal, floor=None):
        if floor is None:
            ideal.initial_ideal()
        else:
            ideal._basis(ideal.default_order(), floor)
        return ideal

    def containment(J, P, variable_sets):
        fresh = Ideal(P.ring, P.gens)
        initial(fresh, segre and segre(fresh))
        supports = [mono_mask(mono) for g in J.gens for mono in g.terms]
        if not (all(fresh.contains(g) for g in J.gens)
                and all(s & V for V in variable_sets for s in supports)):
            sys.exit("error: J is not inside the predicted components")
        return initial(fresh)

    for m, parts in dict.fromkeys(MEET_SPECS + CLI_HILBERT_SPECS + LARGE_SPECS):
        J = generalized_bei(m, complete_multipartite(PartiteSpec(m, parts)), PRIME)
        floor = None
        if segre and (m, parts) in MEET_SPECS:
            _, P, variable_sets, _ = _decomposition(m, parts)
            floor = verify_module._meet_series(P, variable_sets)
        yield (f"{_spec_name(m, parts)} in(J)",
               lambda J=J, floor=floor: initial(Ideal(J.ring, J.gens), floor))
    for m, parts in MEET_SPECS:
        J, P, variable_sets, _ = _decomposition(m, parts)
        yield (f"{_spec_name(m, parts)} containment, in(P_0)",
               lambda J=J, P=P, V=variable_sets: containment(J, P, V))


def groebner():
    import gbei.groebner as groebner

    for name, call in list(_groebner_calls()):
        _, best = _best(call)
        with _counting(groebner, "_spair") as spairs:
            ideal = call()
        basis = ideal.groebner_basis()
        terms = json.dumps([sorted(g.terms.items()) for g in basis]).encode()
        yield {"item": name, "gens": len(ideal.gens), "basis": len(basis),
               "spairs": _calls(spairs),
               "digest": hashlib.sha256(terms).hexdigest()}, best


def decomposition():
    import gbei.groebner as groebner
    from gbei import PartiteSpec

    # the package re-exports verify(), which hides the submodule attribute
    verify_module = importlib.import_module("gbei.verify")

    for m, parts in MEET_SPECS + LARGE_SPECS + WIDE_SPECS:
        spec = PartiteSpec(m, parts)

        def run():
            return verify_module.verify(spec, prime=PRIME, groebner_cap=WIDE_CAP,
                                        hochster_cap=0)

        _, best = _best(run)
        with ExitStack() as stack:
            fallbacks = stack.enter_context(_counting(verify_module, "Ideal"))
            series = stack.enter_context(_counting(verify_module, "hilbert_series"))
            spairs = stack.enter_context(_counting(groebner, "_spair"))
            report = run()
        yield {"spec": _spec_name(m, parts), "nvars": spec.m * spec.n,
               "statuses": {row["name"]: row["status"] for row in report.invariants},
               "fallbacks": _calls(fallbacks), "series": _calls(series),
               "spairs": _calls(spairs)}, best


def cutsets():
    from benchmark.workloads import GRAPH_VARIANTS, random_graph
    from gbei import (PartiteSpec, SimpleGraph, complete_graph,
                      complete_multipartite, cut_sets, graph_from_json)

    graphs = [(f"G(16,1/4) #{index}", graph_from_json(random_graph(index)))
              for index in range(GRAPH_VARIANTS)]
    graphs += [
        ("P16", SimpleGraph.from_edges(16, [(v, v + 1) for v in range(1, 16)])),
        ("C16", SimpleGraph.from_edges(16, [(v, v % 16 + 1) for v in range(1, 17)])),
        ("K16", complete_graph(16))]
    graphs += [(f"K({','.join(map(str, parts))})",
                complete_multipartite(PartiteSpec(2, parts)))
               for parts in ((8, 8), (4, 4, 4, 4))]
    for name, G in graphs:
        found, best = _best(lambda: cut_sets(G))
        yield {"graph": name, "edges": len(G.edges), "cut_sets": len(found)}, best


LAYERS = {layer.__name__: layer
          for layer in (betti, links, hilbert, groebner, decomposition, cutsets)}


def _worker(layer, checkout):
    """Measure the layer on checkout's gbei; print [[counts, seconds], ...]."""
    src = Path(checkout).resolve() / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    import gbei
    if Path(gbei.__file__).resolve().parent != src / "gbei":
        sys.exit(f"error: imported gbei from {gbei.__file__}, not {src}")
    print(json.dumps(list(LAYERS[layer]())))


def _round(layer, checkout):
    proc = subprocess.run(
        [sys.executable, __file__, layer, "--worker", str(checkout)],
        capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"error: the {layer} worker on {checkout} exited with "
                 f"{proc.returncode}")
    return json.loads(proc.stdout)


def _side(rounds):
    """The record of one side from its rounds, each [[counts, seconds], ...]."""
    items = []
    for index, (counts, _) in enumerate(rounds[0]):
        if any(later[index][0] != counts for later in rounds[1:]):
            sys.exit(f"error: the counts of {counts} differ between rounds")
        times = [round(one[index][1], 6) for one in rounds]
        items.append({**counts, "median_s": round(statistics.median(times), 6),
                      "rounds_s": times})
    return {"total_median_s": round(sum(item["median_s"] for item in items), 6),
            "round_totals_s": [round(sum(t for _, t in one), 6) for one in rounds],
            "items": items}


def _differing(sides):
    """The items whose counts differ between the sides, as {side: counts}."""
    counts = [[{key: value for key, value in item.items()
                if key not in ("median_s", "rounds_s")}
               for item in sides[side]["items"]] for side in SIDES]
    return [dict(zip(SIDES, pair)) for pair in zip(*counts) if pair[0] != pair[1]]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("layer", choices=LAYERS)
    parser.add_argument("--parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, help="checkout of the change")
    parser.add_argument("--output", type=Path, help="JSON file to write")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        _worker(args.layer, args.worker)
        return
    if None in (args.parent, args.change, args.output):
        parser.error("--parent, --change and --output are required")

    dirs = {"parent": args.parent, "change": args.change}
    rounds = {side: [] for side in SIDES}
    first = []
    for index in range(ROUNDS):
        order = SIDES if index % 2 == 0 else SIDES[::-1]
        first.append(order[0])
        for side in order:
            rounds[side].append(_round(args.layer, dirs[side]))
        print(f"round {index + 1}/{ROUNDS}: " + ", ".join(
            f"{side} {sum(t for _, t in rounds[side][-1]):.4f} s" for side in SIDES),
            file=sys.stderr)

    sides = {side: _side(rounds[side]) for side in SIDES}
    differing = _differing(sides)
    print(f"items whose counts differ between the sides: {json.dumps(differing)}",
          file=sys.stderr)
    record = {"layer": args.layer, "prime": PRIME, "cap": CAP,
              "rounds": ROUNDS, "repeat": REPEAT, "fill_s": FILL_S, "first": first,
              "host": {"python": platform.python_version(),
                       "machine": platform.machine(), "cpus": os.cpu_count()},
              "change_over_parent": round(sides["change"]["total_median_s"]
                                          / sides["parent"]["total_median_s"], 4),
              "differing": differing, "sides": sides}
    args.output.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
