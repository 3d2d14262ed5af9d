"""The oracle pipeline: full runs, per-stage skips, and the report schema."""

import dataclasses
import importlib
import random
from itertools import combinations

import pytest

from gbei.cli import main
from gbei.formulas import generalized_bei, prime_component
from gbei.graphs import PartiteSpec, complete_multipartite
from gbei.groebner import Ideal, ideals_equal, intersect
from gbei.hilbert import hilbert_series
from gbei.rings import Poly, mono_coprime
from gbei.verify import (
    enumerate_specs,
    konig_check,
    max_coprime_subset,
    summarize,
    sweep,
    verify,
)

# the package re-exports verify(), which hides the submodule attribute
verify_module = importlib.import_module("gbei.verify")

ROW_NAMES = ["dim", "depth", "reg", "hilbert", "mult",
             "decomposition", "containment", "cutSets", "konig"]


def test_full_run_all_match():
    report = verify(PartiteSpec(2, (1, 2)))
    assert not report.has_mismatch
    assert report.counts() == {"match": 9, "mismatch": 0, "skipped": 0}
    assert [row["name"] for row in report.invariants] == ROW_NAMES
    assert report.row("dim")["computed"] == 4
    assert report.row("depth")["computed"] == 4
    assert report.row("reg")["computed"] == 2
    assert report.row("mult")["computed"] == 4
    assert report.row("cutSets")["computed"] == [[], [1]]
    assert report.squarefree
    assert report.order == "lex-row-major"


def test_smallest_instance():
    # K_2 with m = 2 is the 2x2 generic determinant: dim 3, mult 2
    report = verify(PartiteSpec(2, (1, 1)))
    assert not report.has_mismatch
    assert report.row("dim")["computed"] == 3
    assert report.row("mult")["computed"] == 2
    assert report.row("cutSets")["computed"] == [[]]


def test_report_json_schema():
    doc = verify(PartiteSpec(2, (1, 1))).to_json()
    assert set(doc) == {"spec", "order", "prime", "invariants",
                        "squarefree", "timingMs"}
    assert doc["spec"] == {"m": 2, "parts": [1, 1]}
    assert doc["prime"] == 32003
    for row in doc["invariants"]:
        assert set(row) == {"name", "predicted", "computed", "status"}
    assert all(isinstance(v, float) for v in doc["timingMs"].values())


def test_alternate_prime_and_order():
    report = verify(PartiteSpec(2, (1, 2)), prime=101,
                    order="lex-column-major")
    assert not report.has_mismatch
    assert report.prime == 101
    assert report.order == "lex-column-major"


@pytest.mark.parametrize("options", [
    {"prime": 4},
    {"prime": 2**64 + 13},
    {"order": "grevlex"},
])
def test_bad_prime_or_order_rejected_whatever_the_caps(options):
    # with every algebraic stage capped away nothing else would look at them
    with pytest.raises(ValueError):
        verify(PartiteSpec(2, (2, 2)), groebner_cap=4, hochster_cap=4,
               **options)


@pytest.mark.parametrize("order", ["lex-row-major", "lex-column-major"])
def test_non_squarefree_initial_ideal_skips_homology(order, monkeypatch):
    original = verify_module.generalized_bei

    def with_square(m, G, prime):
        J = original(m, G, prime)
        x11 = J.ring.variable(1, 1)
        return Ideal(J.ring, J.gens + (x11 * x11,))

    monkeypatch.setattr(verify_module, "generalized_bei", with_square)
    report = verify(PartiteSpec(2, (1, 2)), order=order)
    assert report.row("depth")["status"] == "skipped(squarefree-check-failed)"
    assert report.row("reg")["status"] == "skipped(squarefree-check-failed)"
    assert not report.squarefree
    assert report.order == order


def test_large_prime_gives_exact_depth_and_reg():
    # 2^61 - 1 overflows any fixed-width product of two residues
    report = verify(PartiteSpec(2, (2, 2)), prime=2**61 - 1)
    assert report.row("depth")["status"] == "match"
    assert report.row("reg")["status"] == "match"
    assert not report.has_mismatch


def test_depth_and_reg_do_not_build_a_betti_table(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("verify() built a Betti table")

    monkeypatch.setattr(verify_module, "betti_table", refuse)
    report = verify(PartiteSpec(3, (1, 2)))
    assert report.row("depth")["status"] == "match"
    assert report.row("reg")["status"] == "match"
    assert not report.has_mismatch


def test_determinism():
    def stripped(report):
        doc = report.to_json()
        doc.pop("timingMs")
        return doc

    assert stripped(verify(PartiteSpec(2, (2, 2)))) == \
        stripped(verify(PartiteSpec(2, (2, 2))))


# ---------------------------------------------------------------------------
# caps: each stage degrades independently

def test_groebner_cap_skips_algebraic_rows():
    report = verify(PartiteSpec(2, (2, 2)), groebner_cap=4)
    skipped = [row["name"] for row in report.invariants
               if row["status"] == "skipped(groebner-cap)"]
    assert skipped == ROW_NAMES[:7]
    assert report.row("cutSets")["status"] == "match"
    assert report.row("konig")["status"] == "match"
    assert not report.has_mismatch
    assert not report.squarefree


def test_hochster_cap_skips_homology_rows():
    report = verify(PartiteSpec(2, (1, 2)), hochster_cap=4)
    assert report.row("depth")["status"] == "skipped(hochster-cap)"
    assert report.row("reg")["status"] == "skipped(hochster-cap)"
    # squarefree is still decided; dimension still comes from the series
    assert report.squarefree
    assert report.row("dim")["status"] == "match"
    assert report.row("decomposition")["status"] == "match"


def test_cutset_cap_skips_enumeration():
    report = verify(PartiteSpec(2, (1, 16)))
    assert report.row("cutSets")["status"] == "skipped(cutset-cap)"
    assert report.row("konig")["status"] == "match"


# ---------------------------------------------------------------------------
# the Koenig witness

def test_konig_check_pinned():
    check = konig_check(PartiteSpec(2, (2, 2)))
    assert check["height"] == 3
    assert check["path"] == (3, 1, 4, 2)
    assert check["path_valid"]
    assert check["initial_terms_coprime"]


def test_konig_check_samples():
    for parts in [(1, 1), (1, 3), (2, 2, 3), (1, 1, 1, 1), (3, 3)]:
        check = konig_check(PartiteSpec(2, parts))
        assert check["path_valid"] and check["initial_terms_coprime"], parts


# ---------------------------------------------------------------------------
# max_coprime_subset

def test_max_coprime_subset_edges():
    with pytest.raises(ValueError):
        max_coprime_subset([])
    assert max_coprime_subset([(1, 0), (0, 2)]) == 2
    assert max_coprime_subset([(1, 1), (1, 0), (0, 1)]) == 2
    assert max_coprime_subset([(1, 1, 0), (0, 1, 1), (1, 0, 1)]) == 1


def test_max_coprime_subset_against_brute_force():
    rng = random.Random(11)
    for _ in range(40):
        nvars = rng.randrange(2, 7)
        monos = []
        for _ in range(rng.randrange(1, 9)):
            monos.append(tuple(rng.randrange(3) for _ in range(nvars)))
        best = 0
        for size in range(1, len(monos) + 1):
            for combo in combinations(monos, size):
                if all(mono_coprime(a, b) for a, b in combinations(combo, 2)):
                    best = max(best, size)
        assert max_coprime_subset(monos) == best, monos


# ---------------------------------------------------------------------------
# sweeps

def test_enumerate_specs():
    specs = enumerate_specs(3, 4)
    assert len(specs) == 14
    assert specs[0] == PartiteSpec(2, (1, 1))
    assert PartiteSpec(3, (2, 2)) in specs
    assert all(s.m >= 2 and s.r >= 2 for s in specs)


def test_sweep_and_summarize():
    reports = sweep([PartiteSpec(2, (1, 1)), PartiteSpec(2, (1, 2))])
    assert len(reports) == 2
    assert summarize(reports) == {"match": 18, "mismatch": 0, "skipped": 0}


# ---------------------------------------------------------------------------
# the decomposition row: containment, then HS(S/J) == HS(S/∩P_T)

def _patch_components(monkeypatch, edit):
    """verify() builds each P_T as edit(T, P_T)."""
    original = verify_module.prime_component

    def patched(m, G, T, prime):
        return edit(tuple(T), original(m, G, T, prime))

    monkeypatch.setattr(verify_module, "prime_component", patched)


def _drop_last_component(monkeypatch):
    original = verify_module.predict

    def fewer(spec):
        pred = original(spec)
        return dataclasses.replace(pred, cut_sets=pred.cut_sets[:-1])

    monkeypatch.setattr(verify_module, "predict", fewer)


def _flip_x11(P):
    """P under the automorphism x[1,1] -> -x[1,1]."""
    v = P.ring.var_index(1, 1)
    return Ideal(P.ring, [
        Poly(g.ring, {mono: -c if mono[v] % 2 else c
                      for mono, c in g.terms.items()})
        for g in P.gens])


def _rows(report):
    return (report.row("containment")["status"],
            report.row("decomposition")["status"])


@pytest.mark.parametrize("parts", [(1, 2), (2, 2)])
def test_dropped_component_fails_only_the_series_check(parts, monkeypatch):
    _drop_last_component(monkeypatch)
    report = verify(PartiteSpec(3, parts), hochster_cap=0)
    assert _rows(report) == ("match", "mismatch")


def test_perturbed_determinantal_generator_is_a_mismatch(monkeypatch):
    def perturb(T, P):
        if T:
            return P
        first, *rest = P.gens
        low = min(first.terms)
        terms = dict(first.terms)
        terms[low] *= 2
        return Ideal(P.ring, [Poly(P.ring, terms)] + rest)

    _patch_components(monkeypatch, perturb)
    report = verify(PartiteSpec(3, (1, 2)), hochster_cap=0)
    assert report.row("decomposition")["status"] == "mismatch"


def test_shifted_cut_set_is_a_mismatch(monkeypatch):
    spec = PartiteSpec(2, (2, 2))
    wrong, right = spec.complement(spec.s), spec.complement(spec.s + 1)
    original = verify_module.prime_component

    def shifted(m, G, T, prime):
        return original(m, G, right if tuple(T) == wrong else T, prime)

    monkeypatch.setattr(verify_module, "prime_component", shifted)
    report = verify(spec, hochster_cap=0)
    assert _rows(report) == ("match", "mismatch")


def test_series_preserving_automorphism_is_caught_by_containment(monkeypatch):
    # x[1,1] -> -x[1,1] keeps HS(S/I) equal to HS(S/J) (an odd prime makes
    # it a real change), so only the containment gate can reject it
    spec = PartiteSpec(3, (1, 2))
    G = complete_multipartite(spec)
    J = generalized_bei(spec.m, G)
    parts = [prime_component(spec.m, G, T) for T in verify_module.predict(spec).cut_sets]
    flipped = verify_module._meet_series(
        _flip_x11(parts[0]),
        [verify_module._monomial_ideal(A) for A in parts[1:]])
    assert flipped == hilbert_series(J.initial_ideal())

    _patch_components(monkeypatch, lambda T, P: P if T else _flip_x11(P))
    report = verify(spec, hochster_cap=0)
    assert _rows(report) == ("mismatch", "mismatch")


def _elimination_verdict(spec, prime, cut_sets):
    G = complete_multipartite(spec)
    meet, *rest = [prime_component(spec.m, G, T, prime) for T in cut_sets]
    for other in rest:
        meet = intersect(meet, other)
    return ideals_equal(generalized_bei(spec.m, G, prime), meet)


@pytest.mark.parametrize("prime", [2, 32003])
def test_decomposition_agrees_with_elimination(prime):
    specs = [s for s in enumerate_specs(6, 6) if s.m * s.n <= 12]
    assert any(s.all_ones for s in specs)
    for spec in specs:
        report = verify(spec, prime=prime, hochster_cap=0)
        expected = _elimination_verdict(
            spec, prime, verify_module.predict(spec).cut_sets)
        assert report.row("decomposition")["computed"] is expected, spec


@pytest.mark.parametrize("prime", [2, 32003])
def test_dropped_component_agrees_with_elimination(prime, monkeypatch):
    spec = PartiteSpec(2, (2, 2))
    cut_sets = verify_module.predict(spec).cut_sets[:-1]
    _drop_last_component(monkeypatch)
    report = verify(spec, prime=prime, hochster_cap=0)
    assert report.row("decomposition")["computed"] is False
    assert _elimination_verdict(spec, prime, cut_sets) is False


def _binomial_variable_part(T, P):
    if not T:
        return P
    first, *rest = P.gens
    far = P.ring.variable(P.ring.rows, P.ring.cols)
    return Ideal(P.ring, [first - far] + rest)


def test_non_monomial_component_raises(monkeypatch, capsys):
    _patch_components(monkeypatch, _binomial_variable_part)
    with pytest.raises(ValueError, match="not a monomial"):
        verify(PartiteSpec(3, (1, 2)))
    assert main(["verify", "--m", "3", "--parts", "1,2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not a monomial" in captured.err
