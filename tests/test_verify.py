"""The oracle pipeline: full runs, per-stage skips, and the report schema."""

import dataclasses
import importlib
import math
import random
from collections import Counter
from itertools import combinations

import pytest

from gbei.cli import main
from gbei.formulas import generalized_bei, pair_ideal, prime_component
from gbei.graphs import (PartiteSpec, complete_graph, complete_multipartite,
                         path_target_length)
from gbei.groebner import Ideal, TermOrder, ideals_equal, intersect
from gbei.hilbert import HilbertSeries, MonomialIdeal, hilbert_series
from gbei.rings import DEFAULT_PRIME, Poly, Ring, mono_coprime, mono_lcm
from gbei.verify import enumerate_specs, konig_check, summarize, sweep, verify

# the package re-exports verify(), which hides the submodule attribute
verify_module = importlib.import_module("gbei.verify")
groebner_module = importlib.import_module("gbei.groebner")
formulas_module = importlib.import_module("gbei.formulas")

ROW_NAMES = ["dim", "depth", "reg", "hilbert", "mult",
             "decomposition", "containment", "cutSets", "konig"]


def test_every_exported_name_resolves():
    gbei = importlib.import_module("gbei")
    assert len(set(gbei.__all__)) == len(gbei.__all__)
    assert [name for name in gbei.__all__ if not hasattr(gbei, name)] == []
    assert "max_coprime_subset" not in gbei.__all__


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


def _binomial_term(spec):
    m, n = spec.m, spec.n
    d = formulas_module.predicted_dimension(spec)
    return math.comb(m + n - 2, m - 1) if m + n - 1 == d else 0


def _parts_term(spec):
    d = formulas_module.predicted_dimension(spec)
    return sum(nk >= 2 and spec.m * nk == d for nk in spec.parts)


@pytest.mark.parametrize("parts,mutant,predicted,computed", [
    ((1, 3), _binomial_term, 0, 1),  # without the parts term
    ((2, 2), _parts_term, 0, 4),  # without the binomial term
])
def test_the_mult_row_checks_the_closed_form(parts, mutant, predicted,
                                              computed, monkeypatch):
    spec = PartiteSpec(2, parts)
    assert verify(spec).row("mult")["status"] == "match"
    monkeypatch.setattr(formulas_module, "predicted_multiplicity", mutant)
    row = verify(spec).row("mult")
    assert (row["status"], row["predicted"], row["computed"]) == \
        ("mismatch", predicted, computed)


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


@pytest.mark.parametrize("cap", ["groebner_cap", "hochster_cap"])
def test_a_negative_cap_is_rejected_before_any_stage(cap, monkeypatch):
    def refuse(spec):
        raise AssertionError("a stage ran")

    monkeypatch.setattr(verify_module, "predict", refuse)
    with pytest.raises(ValueError, match="at least 0"):
        verify(PartiteSpec(2, (1, 1)), **{cap: -1})


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


def test_no_row_is_skipped_inside_the_groebner_cap():
    # both default caps are 18: depth and reg are computed on the 68 specs
    # of 16 to 18 variables too, and every row matches
    specs = [s for s in enumerate_specs(9, 9) if 16 <= s.m * s.n <= 18]
    assert len(specs) == 68
    assert summarize(sweep(specs)) == {"match": 612, "mismatch": 0, "skipped": 0}


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


def _patch_path(monkeypatch, edit):
    original = verify_module.konig_path
    monkeypatch.setattr(verify_module, "konig_path",
                        lambda spec: edit(original(spec)))


@pytest.mark.parametrize("parts", [(1, 1), (1, 3), (2, 2), (1, 2, 3)])
def test_a_path_one_edge_short_is_a_mismatch(parts, monkeypatch, capsys):
    spec = PartiteSpec(2, parts)
    h = path_target_length(spec)
    _patch_path(monkeypatch, lambda path: path[:-1])
    row = verify(spec).row("konig")
    assert row["status"] == "mismatch"
    assert row["predicted"]["length"] == h
    assert row["computed"] == {"length": h - 1, "valid": True, "coprime": True}
    assert main(["verify", "--m", "2",
                 "--parts", ",".join(map(str, parts))]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("path", [(3, 1, 4, 1), (3, 4, 1, 2)],
                         ids=["repeated-vertex", "step-inside-a-part"])
def test_a_sequence_that_is_no_path_is_invalid(path, monkeypatch):
    _patch_path(monkeypatch, lambda _: path)
    row = verify(PartiteSpec(2, (2, 2))).row("konig")
    assert row["status"] == "mismatch"
    assert row["computed"] == {"length": 3, "valid": False, "coprime": True}


def test_a_longer_predicted_path_is_a_mismatch(monkeypatch):
    monkeypatch.setattr(verify_module, "path_target_length",
                        lambda spec: path_target_length(spec) + 1)
    row = verify(PartiteSpec(2, (2, 2))).row("konig")
    assert row["status"] == "mismatch"
    assert (row["predicted"]["length"], row["computed"]["length"]) == (4, 3)


# ---------------------------------------------------------------------------
# max_coprime_subset, from demo 06 (see conftest.py)

def test_max_coprime_subset_edges(max_coprime_subset):
    with pytest.raises(ValueError):
        max_coprime_subset([])
    assert max_coprime_subset([(1, 0), (0, 2)]) == 2
    assert max_coprime_subset([(1, 1), (1, 0), (0, 1)]) == 2
    assert max_coprime_subset([(1, 1, 0), (0, 1, 1), (1, 0, 1)]) == 1


def test_max_coprime_subset_against_brute_force(max_coprime_subset):
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

def _patch_determinantal(monkeypatch, edit):
    """verify() builds P_∅ as edit(P_∅); it builds no other P_T."""
    original = verify_module.prime_component

    def patched(m, G, T, prime):
        return edit(original(m, G, T, prime))

    monkeypatch.setattr(verify_module, "prime_component", patched)


def _patch_cut_sets(monkeypatch, edit):
    """verify() is given the family edit(spec, C) for the predicted C."""
    original = verify_module.predict

    def edited(spec):
        pred = original(spec)
        return dataclasses.replace(pred, cut_sets=edit(spec, pred.cut_sets))

    monkeypatch.setattr(verify_module, "predict", edited)


def _drop_last_component(monkeypatch):
    _patch_cut_sets(monkeypatch, lambda spec, cuts: cuts[:-1])


def _stated(spec, cut_sets=None, prime=DEFAULT_PRIME):
    """P and the variable bitmasks verify() checks for spec's family."""
    if cut_sets is None:
        cut_sets = verify_module.predict(spec).cut_sets
    return verify_module._stated_components(
        spec, complete_multipartite(spec), cut_sets, prime)


def _flip_x11(P):
    """P under the automorphism x[1,1] -> -x[1,1]."""
    v = P.ring.var_index(1, 1)
    return Ideal(P.ring, [
        Poly(g.ring, {mono: -c if mono[v] % 2 else c
                      for mono, c in g.terms.items()})
        for g in P.gens])


def _count_fallbacks(monkeypatch):
    """The generators of each ideal verify's exact fallback builds, from
    now on: the fallback is verify's only call of Ideal."""
    calls = []

    def counted(ring, gens):
        calls.append(gens)
        return Ideal(ring, gens)

    monkeypatch.setattr(verify_module, "Ideal", counted)
    return calls


def _rows(report):
    return (report.row("containment")["status"],
            report.row("decomposition")["status"])


@pytest.mark.parametrize("parts", [(1, 2), (2, 2)])
def test_dropped_component_fails_only_the_series_check(parts, monkeypatch):
    _drop_last_component(monkeypatch)
    report = verify(PartiteSpec(3, parts), hochster_cap=0)
    assert _rows(report) == ("match", "mismatch")


def test_perturbed_determinantal_generator_is_a_mismatch(monkeypatch):
    def perturb(P):
        first, *rest = P.gens
        low = min(first.terms)
        terms = dict(first.terms)
        terms[low] *= 2
        return Ideal(P.ring, [Poly(P.ring, terms)] + rest)

    _patch_determinantal(monkeypatch, perturb)
    report = verify(PartiteSpec(3, (1, 2)), hochster_cap=0)
    assert report.row("decomposition")["status"] == "mismatch"


def test_shifted_cut_set_is_a_mismatch(monkeypatch):
    spec = PartiteSpec(2, (2, 2))
    wrong, right = spec.complement(spec.s), spec.complement(spec.s + 1)
    _patch_cut_sets(monkeypatch, lambda spec, cuts: tuple(
        right if T == wrong else T for T in cuts))
    fallbacks = _count_fallbacks(monkeypatch)
    report = verify(spec, hochster_cap=0)
    assert _rows(report) == ("match", "mismatch")
    assert len(fallbacks) == 1  # the mismatch comes from the exact series


def test_series_preserving_automorphism_is_caught_by_containment(monkeypatch):
    # x[1,1] -> -x[1,1] keeps HS(S/I) equal to HS(S/J) (an odd prime makes
    # it a real change), so only the containment gate can reject it
    spec = PartiteSpec(3, (1, 2))
    J = generalized_bei(spec.m, complete_multipartite(spec))
    P, variable_sets = _stated(spec)
    target = hilbert_series(J.initial_ideal())
    flipped = verify_module._meet_series(_flip_x11(P), variable_sets)
    assert flipped == target  # the bound alone settles it

    _patch_determinantal(monkeypatch, _flip_x11)
    report = verify(spec, hochster_cap=0)
    assert _rows(report) == ("mismatch", "mismatch")


def _variable_components(spec):
    """J and the components P_T with T ≠ ∅ of a spec, from the definition."""
    G = complete_multipartite(spec)
    J = generalized_bei(spec.m, G)
    cut_sets = verify_module.predict(spec).cut_sets[1:]
    return J, [prime_component(spec.m, G, T) for T in cut_sets]


def test_support_test_agrees_with_division_on_the_variable_components():
    # the bitmasks verify() checks against the P_T of the definition
    members = 0
    for spec in enumerate_specs(3, 5):
        J, variable = _variable_components(spec)
        _, variable_sets = _stated(spec)
        assert len(variable_sets) == len(variable), spec
        for A, V in zip(variable, variable_sets):
            for g in J.gens:
                holds = A.contains(g)
                assert verify_module._in_variable_ideals([g], [V]) is holds, spec
                members += holds
    assert members  # both answers occur


@pytest.mark.parametrize("seed", range(20))
def test_one_term_outside_the_variables_is_no_member(seed):
    rng = random.Random(seed)
    ring = Ring(rng.randrange(2, 4), rng.randrange(2, 5), rng.choice([2, 32003]))
    variables = rng.sample(range(ring.nvars), rng.randrange(1, ring.nvars))
    V = sum(1 << v for v in variables)
    A = Ideal(ring, [Poly(ring, {tuple(int(u == v) for u in range(ring.nvars)): 1})
                     for v in variables])

    def term(inside):
        while True:
            mono = tuple(rng.randrange(3) for _ in range(ring.nvars))
            if any(mono[v] for v in variables) is inside:
                return mono

    terms = {term(True): rng.randrange(1, ring.prime) for _ in range(rng.randrange(0, 5))}
    inside = Poly(ring, terms)
    outside = Poly(ring, {**terms, term(False): rng.randrange(1, ring.prime)})
    assert verify_module._in_variable_ideals([inside], [V]) is A.contains(inside) is True
    assert verify_module._in_variable_ideals([outside], [V]) is A.contains(outside) is False
    assert verify_module._in_variable_ideals([inside, outside], [V]) is False


def test_first_row_only_component_fails_containment(monkeypatch):
    # P_T keeps x[1,j] for j in T but drops the other rows' variables over T
    original = verify_module._stated_components

    def first_row(spec, G, cut_sets, prime):
        P, variable_sets = original(spec, G, cut_sets, prime)
        row = sum(1 << P.ring.var_index(1, j) for j in range(1, spec.n + 1))
        return P, [V & row for V in variable_sets]

    monkeypatch.setattr(verify_module, "_stated_components", first_row)
    spec = PartiteSpec(3, (1, 2))
    report = verify(spec, hochster_cap=0)
    assert _rows(report) == ("mismatch", "mismatch")


def test_no_basis_for_a_variable_component(monkeypatch):
    # on a true spec verify() builds one basis, P_0's, under its Segre
    # floor: none for a variable component, and none for J, whose initial
    # ideal the certificate gives, so no S-pair is reduced at all
    built, spairs = [], []
    original, spair = Ideal._basis, groebner_module._spair

    def recorded(self, order, floor=None):
        built.append(self.gens)
        return original(self, order, floor)

    monkeypatch.setattr(Ideal, "_basis", recorded)
    monkeypatch.setattr(groebner_module, "_spair",
                        lambda *args: spairs.append(None) or spair(*args))
    for spec in enumerate_specs(3, 5) + ELIMINATION_SPECS:
        P, _ = _stated(spec)
        for order in ("lex-row-major", "lex-column-major"):
            built.clear()
            assert verify(spec, order=order, hochster_cap=0).row(
                "containment")["status"] == "match"
            assert set(built) == {P.gens} and not spairs, (spec, order)


def test_no_floor_for_j_from_components_that_fail_containment(monkeypatch):
    # T = {2} leaves the edge {1, 3}, so P_0 ∩ M is no longer above J, and
    # its bound is not a floor for J's basis: the rows read off in(J) still match
    _patch_cut_sets(monkeypatch, lambda spec, cuts: cuts[:-1] + ((2,),))
    for spec in [PartiteSpec(2, (1, 2)), PartiteSpec(2, (1, 3)), PartiteSpec(3, (1, 2))]:
        report = verify(spec, hochster_cap=0)
        assert _rows(report) == ("mismatch", "mismatch"), spec
        assert all(report.row(name)["status"] == "match"
                   for name in ("dim", "hilbert", "mult")), spec


def _perturbed_minors(prime):
    """The 2-minors of the generic 3 x 3 matrix, with the anti-diagonal
    coefficient of the first one 2 in place of -1."""
    P = prime_component(3, complete_multipartite(PartiteSpec(3, (1, 1, 1))), (), prime)
    first, *rest = P.gens
    lm = max(first.terms)
    return Ideal(P.ring, [Poly(P.ring, {mono: c if mono == lm else 2
                                        for mono, c in first.terms.items()}), *rest])


@pytest.mark.parametrize("prime", [5, 32003])
def test_no_segre_floor_for_an_ideal_outside_the_kernel(prime):
    Q = _perturbed_minors(prime)
    assert verify_module._segre_floor(Q) is None
    verify_module._meet_series(Q, [])  # builds Q's basis as verify() does
    assert Q.groebner_basis() == Ideal(Q.ring, Q.gens).groebner_basis()


def test_the_segre_floor_is_the_determinantal_series():
    for m in range(1, 9):
        for n in range(1, 9):
            P = pair_ideal(complete_graph(m), complete_graph(n), Ring(m, n))
            assert verify_module._segre_floor(P) == HilbertSeries(
                formulas_module._determinantal_numerator(m, n), m + n - 1), (m, n)


@pytest.mark.parametrize("k", range(1, 10))
def test_the_segre_image_has_room_for_every_exponent(k):
    # x[1,1]^(2^k) - x[2,2] maps to s_1^(2^k) t_1^(2^k) - s_2 t_2, which
    # fields of k bits would confuse; the binomial below maps to 0
    ring, a = Ring(2, 2), 2 ** k
    outside = Poly(ring, {(a, 0, 0, 0): 1, (0, 0, 0, 1): -1})
    inside = Poly(ring, {(a, 0, 0, a): 1, (0, a, a, 0): -1})
    assert verify_module._segre_floor(Ideal(ring, [outside])) is None
    assert verify_module._segre_floor(Ideal(ring, [inside, outside])) is None
    assert verify_module._segre_floor(Ideal(ring, [inside])) is not None


@pytest.mark.parametrize("parts", [(1, 2), (2, 2), (1, 1, 3)])
def test_a_dropped_component_makes_a_strict_floor_that_skips_nothing(parts, monkeypatch):
    spec = PartiteSpec(3, parts)
    J = generalized_bei(spec.m, complete_multipartite(spec))
    P, variable_sets = _stated(spec, verify_module.predict(spec).cut_sets[:-1])
    low = verify_module._meet_series(P, variable_sets)
    assert low != hilbert_series(J.initial_ideal())
    calls = []
    spair = groebner_module._spair

    def counted(*args):
        calls.append(None)
        return spair(*args)

    monkeypatch.setattr(groebner_module, "_spair", counted)
    plain = Ideal(J.ring, J.gens)
    plain.initial_ideal()
    reduced = len(calls)
    floored = Ideal(J.ring, J.gens)
    assert floored._basis(floored.default_order(), low)[2] is None
    assert len(calls) == 2 * reduced
    assert floored.groebner_basis() == plain.groebner_basis()


@pytest.mark.parametrize("prime", [2, 32003])
def test_floored_bases_equal_plain_bases(prime, monkeypatch):
    floored = []  # (ideal, order) of each basis verify() builds under a floor
    certified = []  # (J, order, in(J)) of each certificate verify() takes
    basis, certify = Ideal._basis, verify_module._certified_initial

    def recorded(self, order, floor=None):
        if floor is not None and order.perm not in self._bases:
            floored.append((self, order))
        return basis(self, order, floor)

    def recorded_certificate(J, G, term_order, low):
        ini = certify(J, G, term_order, low)
        certified.append((J, term_order, ini))
        return ini

    monkeypatch.setattr(Ideal, "_basis", recorded)
    monkeypatch.setattr(verify_module, "_certified_initial", recorded_certificate)
    for spec in [s for s in enumerate_specs(8, 8) if s.m * s.n <= 16]:
        for order in ("lex-row-major", "lex-column-major"):
            floored.clear()
            certified.clear()
            verify(spec, prime=prime, order=order, hochster_cap=0)
            assert len(floored) == 1, spec  # P_0
            for ideal, term_order in floored:
                plain = Ideal(ideal.ring, ideal.gens)
                assert (ideal.groebner_basis(term_order)
                        == plain.groebner_basis(term_order)), (spec, order)
            [(J, term_order, ini)] = certified
            assert ini == Ideal(J.ring, J.gens).initial_ideal(term_order), (spec, order)


# the specs of the benchmark's verify-elimination workload
ELIMINATION_SPECS = [PartiteSpec(4, (2, 2)), PartiteSpec(3, (1, 1, 1, 3)),
                     PartiteSpec(3, (3, 3)), PartiteSpec(2, (2, 2, 2, 3))]


@pytest.mark.parametrize("order", ["lex-row-major", "lex-column-major"])
def test_the_bound_settles_every_true_spec(order, monkeypatch):
    def refuse(ring, gens):
        raise AssertionError("the exact fallback ran")

    monkeypatch.setattr(verify_module, "Ideal", refuse)
    for spec in enumerate_specs(3, 5) + ELIMINATION_SPECS:
        report = verify(spec, order=order, hochster_cap=0)
        assert report.row("decomposition")["status"] == "match", spec


def _floors(spec, prime):
    """J, G, low, and low from the family with its last T dropped, a floor
    strictly below HS(S/J) when the spec has a T ≠ ∅."""
    G = complete_multipartite(spec)
    cut_sets = verify_module.predict(spec).cut_sets
    low, dropped = (verify_module._meet_series(*_stated(spec, family, prime))
                    for family in (cut_sets, cut_sets[:-1]))
    return generalized_bei(spec.m, G, prime), G, low, dropped


_SIGNED_MINOR = verify_module._signed_minor


def _permanent(x, a, b, c, d):
    """The signed minor with its second sign flipped."""
    return [(mono, 1) for mono, _ in _SIGNED_MINOR(x, a, b, c, d)]


@pytest.mark.parametrize("prime", [2, 32003])
def test_the_certificate_gives_in_j_or_nothing(prime, monkeypatch):
    certify = verify_module._certified_initial
    cases = []  # (spec, J, G, order, low, dropped)
    for spec in [s for s in enumerate_specs(8, 8) if s.m * s.n <= 16]:
        J, G, low, dropped = _floors(spec, prime)
        for name in ("lex-row-major", "lex-column-major"):
            order = TermOrder.by_name(name, J.ring)
            cases.append((spec, J, G, order, low, dropped))
            ini = certify(J, G, order, low)
            assert ini == Ideal(J.ring, J.gens).initial_ideal(order), (spec, name)
            if not spec.all_ones:  # a floor below HS(S/J) proves nothing
                assert certify(J, G, order, dropped) is None, (spec, name)
    monkeypatch.setattr(verify_module, "_signed_minor", _permanent)
    for spec, J, G, order, low, _ in cases:
        if not spec.all_ones:  # G has a non-edge, so an identity to check
            assert certify(J, G, order, low) is None, (spec, order.name)


def _timeless(report):
    doc = report.to_json()
    del doc["timingMs"]
    return doc


@pytest.mark.parametrize("mutant", ["permanent", "dropped T in the floor"])
def test_a_failed_certificate_falls_back_to_buchberger(mutant, monkeypatch):
    # the certificate fails under each mutant, and verify() then builds J's
    # basis under the true floor: the report is the unmutated one
    specs = [s for s in enumerate_specs(3, 5) if not s.all_ones] + ELIMINATION_SPECS
    truth = [_timeless(verify(spec, hochster_cap=0)) for spec in specs]
    built, basis = [], Ideal._basis
    certify = verify_module._certified_initial

    def recorded(self, order, floor=None):
        built.append((self.gens, floor))
        return basis(self, order, floor)

    monkeypatch.setattr(Ideal, "_basis", recorded)
    if mutant == "permanent":
        monkeypatch.setattr(verify_module, "_signed_minor", _permanent)
    for spec, expected in zip(specs, truth):
        J, _, low, dropped = _floors(spec, DEFAULT_PRIME)
        if mutant == "dropped T in the floor":
            monkeypatch.setattr(verify_module, "_certified_initial",
                                lambda J, G, order, low: certify(J, G, order, dropped))
        built.clear()
        assert _timeless(verify(spec, hochster_cap=0)) == expected, spec
        assert (J.gens, low) in built, spec


def test_a_strict_bound_falls_back_to_the_exact_series(monkeypatch):
    # on k[x, y], P = (x - y) and M = (x): in(P) + M = (x) gives the bound
    # 1/(1-t), but P ∩ M = (x^2 - xy) has (1+t)/(1-t)
    ring = Ring(1, 2, DEFAULT_PRIME)
    x, y = ring.variable(1, 1), ring.variable(1, 2)
    exact = hilbert_series(Ideal(ring, [x * x - x * y]).initial_ideal())
    assert exact == HilbertSeries((1, 1), 1)
    fallbacks = _count_fallbacks(monkeypatch)
    P = Ideal(ring, [x - y])
    assert verify_module._meet_series(P, [0b01]) == HilbertSeries((1,), 1)
    assert fallbacks == []
    assert verify_module._meet_series(P, [0b01], exact=True) == exact
    assert fallbacks == [(x - y, x)]


def _generator_bound(P, variable_sets):
    """low from generators: M by `_meet`, in(P) + M re-minimised, and
    HS(S/in(P)) + HS(S/M) − HS(S/(in(P) + M))."""
    ini = P.initial_ideal()
    M = verify_module._meet(P.ring.nvars, variable_sets)
    return (hilbert_series(ini) + hilbert_series(M)
            - hilbert_series(MonomialIdeal(M.nvars, ini.gens + M.gens)))


@pytest.mark.parametrize("prime", [2, 32003])
def test_the_bound_equals_the_bound_from_generators(prime):
    for spec in enumerate_specs(4, 5) + ELIMINATION_SPECS:
        P, sets = _stated(spec, prime=prime)
        assert verify_module._meet_series(P, sets) == _generator_bound(P, sets), spec


@pytest.mark.parametrize("seed", range(60))
def test_inclusion_exclusion_over_variable_sets_matches_the_meet(seed):
    rng = random.Random(seed)
    nvars = rng.randrange(1, 9)
    ring, full = Ring(1, nvars), (1 << nvars) - 1
    A = MonomialIdeal(nvars, [g for g in (tuple(rng.randrange(4) for _ in range(nvars))
                                          for _ in range(rng.randrange(7))) if any(g)])
    P = Ideal(ring, [Poly(ring, {g: 1}) for g in A.gens])
    sets = []
    for _ in range(rng.randrange(6)):  # none: the empty family, M = S
        old = rng.choice(sets) if sets else full
        sets.append(rng.choice([rng.randrange(1, full + 1), old,  # any, a duplicate
                                old & rng.randrange(1, full + 1) or old,  # nested
                                full & ~old or full, full]))  # disjoint, full
    meet = verify_module._meet(nvars, sets)
    low = verify_module._meet_series(P, sets)
    assert P.initial_ideal() == A
    assert (hilbert_series(A) + hilbert_series(meet) - low
            == hilbert_series(MonomialIdeal(nvars, A.gens + meet.gens))), (A.gens, sets)


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


def _shifted_series(pred):
    numerator = (0, *pred.hilbert.numerator)  # t times the true series
    return HilbertSeries(numerator, pred.hilbert.pole)


def _cuts(edit):
    return lambda spec, pred: dataclasses.replace(
        pred, cut_sets=edit(spec, pred.cut_sets))


# each wrong prediction, and the rows it makes read mismatch on how many of
# the 26 specs of enumerate_specs(3, 5); 8 of them have all-ones parts
WRONG_PREDICTIONS = {
    "add {1}, leaving an edge on 18":
        (_cuts(lambda spec, cuts: cuts + ((1,),)),
         {"containment": 18, "decomposition": 18, "cutSets": 26}),
    "drop the last T":
        (_cuts(lambda spec, cuts: cuts[:-1]), {"decomposition": 26, "cutSets": 26}),
    "drop ∅": (_cuts(lambda spec, cuts: cuts[1:]), {"decomposition": 26, "cutSets": 26}),
    "add {2, ..., n}, leaving vertex 1 isolated":
        (_cuts(lambda spec, cuts: cuts + (tuple(range(2, spec.n + 1)),)), {"cutSets": 26}),
    "replace T_r by T_(r-1)":
        (_cuts(lambda spec, cuts: cuts[:-1] + (spec.complement(spec.r - 1),)
               if len(cuts) > 1 else cuts),
         {"decomposition": 18, "cutSets": 18}),
    "depth + 1": (lambda spec, pred: dataclasses.replace(pred, depth=pred.depth + 1),
                  {"depth": 26}),
    "reg - 1": (lambda spec, pred: dataclasses.replace(pred, reg=pred.reg - 1),
                {"reg": 26}),
    "series times t": (lambda spec, pred: dataclasses.replace(
        pred, hilbert=_shifted_series(pred)), {"hilbert": 26}),
}


@pytest.mark.parametrize("prime", [2, 32003])
def test_a_wrong_prediction_reads_mismatch_and_never_raises(prime, monkeypatch):
    computed = ("dim", "depth", "reg", "hilbert", "mult", "cutSets")
    specs = enumerate_specs(3, 5)
    assert len(specs) == 26 and sum(spec.all_ones for spec in specs) == 8
    truth = {spec: verify(spec, prime=prime) for spec in specs}
    assert not any(report.has_mismatch for report in truth.values())
    original = verify_module.predict
    for name, (wrong, expected) in WRONG_PREDICTIONS.items():
        monkeypatch.setattr(verify_module, "predict",
                            lambda spec, wrong=wrong: wrong(spec, original(spec)))
        caught = Counter()
        for spec in specs:
            report = verify(spec, prime=prime)
            caught.update(row["name"] for row in report.invariants
                          if row["status"] == "mismatch")
            assert all(report.row(row)["computed"] == truth[spec].row(row)["computed"]
                       for row in computed), (name, spec)
        assert caught == expected, name


def _lcm_meet(nvars, variable_sets):
    """The reference M: the minimalized lcms of the variables, set by set."""
    M = None
    for V in variable_sets:
        gens = [tuple(int(u == v) for u in range(nvars))
                for v in range(nvars) if V >> v & 1]
        if M is not None:
            gens = [mono_lcm(a, b) for a in M.gens for b in gens]
        M = MonomialIdeal(nvars, gens)
    return M


@pytest.mark.parametrize("seed", range(40))
def test_meet_of_variable_sets_matches_lcms(seed):
    rng = random.Random(seed)
    nvars = rng.randrange(1, 11)
    sets = [rng.randrange(1, 1 << nvars) for _ in range(rng.randrange(1, 6))]
    assert verify_module._meet(nvars, sets) == _lcm_meet(nvars, sets)

