import importlib
import inspect
import math
import random
import sys
from itertools import combinations, combinations_with_replacement

import pytest

import gbei.hilbert as hilbert_module
from gbei import PartiteSpec, complete_multipartite, generalized_bei, predict
from gbei.groebner import _Packing
from gbei.hilbert import (
    HilbertSeries,
    MonomialIdeal,
    hilbert_series,
    krull_dimension,
    multiplicity,
    packed_hilbert_series,
)
from gbei.rings import TermOrder
from gbei.verify import enumerate_specs

# the package re-exports verify(), which hides the submodule attribute
verify_module = importlib.import_module("gbei.verify")


# ---------------------------------------------------------------------------
# MonomialIdeal

def test_minimal_generators():
    I = MonomialIdeal(2, [(1, 0), (1, 1), (2, 0), (1, 0)])
    assert I.gens == ((1, 0),)
    assert I.contains((3, 2))
    assert not I.contains((0, 5))


def _minimal_reference(gens):
    """Minimal generators by the definition: drop every generator that
    another, different one divides."""
    gens = set(gens)

    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    return sorted(g for g in gens if not any(h != g and divides(h, g) for h in gens))


def test_mask_inside_without_divisibility_keeps_both():
    # x1^2 has the support of x1*x2 inside its own, yet neither divides
    I = MonomialIdeal(2, [(2, 0), (1, 1)])
    assert sorted(I.gens) == [(1, 1), (2, 0)]
    J = MonomialIdeal(3, [(1, 1, 0), (2, 1, 0), (2, 0, 0), (3, 1, 1)])
    assert sorted(J.gens) == [(1, 1, 0), (2, 0, 0)]


def test_minimal_generators_match_a_quadratic_reference():
    rng = random.Random(23)
    for _ in range(200):
        nvars = rng.randrange(1, 6)
        gens = [tuple(rng.choice((0, 0, 1, 1, 2, 3)) for _ in range(nvars))
                for _ in range(rng.randrange(0, 12))]
        assert sorted(MonomialIdeal(nvars, gens).gens) == _minimal_reference(gens)


def test_minimal_generators_by_holders_match_brute_force():
    # not squarefree, with duplicates and sometimes 1 itself: the kept
    # generators holding a variable outside g's support are never tested,
    # the rest are, and the result is sorted by degree, then exponents
    rng = random.Random(41)
    for trial in range(300):
        nvars = trial % 8 + 1
        gens = [tuple(rng.choice((0, 0, 0, 1, 2, 3)) for _ in range(nvars))
                for _ in range(rng.randrange(1, 16))]
        gens += rng.sample(gens, rng.randrange(1, len(gens) + 1))
        if trial % 5 == 0:
            gens.append((0,) * nvars)
        rng.shuffle(gens)
        expected = sorted(_minimal_reference(gens), key=lambda g: (sum(g), g))
        assert MonomialIdeal(nvars, gens).gens == tuple(expected)


@pytest.mark.parametrize("order", ["lex-row-major", "lex-column-major"])
def test_known_minimal_constructor_equals_the_checked_one(order):
    # in(J) and in(P_0) from reduced bases, M from `verify._meet`: the
    # generators are minimal by construction, so sorting them is enough
    rng = random.Random(order)
    for spec in enumerate_specs(3, 5):
        G = complete_multipartite(spec)
        J = generalized_bei(spec.m, G)
        P, variable_sets = verify_module._stated_components(
            spec, G, predict(spec).cut_sets, J.ring.prime)
        term_order = TermOrder.by_name(order, J.ring)
        M = verify_module._meet(J.ring.nvars, variable_sets)
        ideals = [[g.leading_monomial(term_order) for g in I.groebner_basis(term_order)]
                  for I in (J, P)] + [list(M.gens)]
        for gens in ideals:
            rng.shuffle(gens)
            known = MonomialIdeal._of_minimal(J.ring.nvars, gens)
            assert known.gens == MonomialIdeal(J.ring.nvars, gens).gens, spec
        assert J.initial_ideal(term_order) == MonomialIdeal(J.ring.nvars, ideals[0])
        assert P.initial_ideal(term_order) == MonomialIdeal(J.ring.nvars, ideals[1])


@pytest.mark.parametrize("gens", [[(-1, 1), (0, 2)], [(1.5, 0)], [(1, "2")]])
def test_exponents_must_be_nonnegative_integers(gens):
    with pytest.raises(ValueError, match="not a nonnegative integer"):
        MonomialIdeal(2, gens)


def test_unit_and_squarefree():
    assert MonomialIdeal(2, [(0, 0)]).is_unit()
    assert not MonomialIdeal(2, [(1, 0)]).is_unit()
    assert MonomialIdeal(3, [(1, 1, 0), (0, 1, 1)]).is_squarefree()
    assert not MonomialIdeal(3, [(2, 0, 0)]).is_squarefree()


def test_monomial_ideal_identity():
    a = MonomialIdeal(2, [(1, 1), (1, 0)])
    b = MonomialIdeal(2, [(1, 0), (1, 2)])
    assert a == b and hash(a) == hash(b)


# ---------------------------------------------------------------------------
# series arithmetic

def test_reduction_cancels_one_minus_t():
    assert HilbertSeries((1, -1), 1) == HilbertSeries((1,), 0)
    assert HilbertSeries((0, 1, -1), 1) == HilbertSeries((0, 1), 0)
    # does not cancel past the pole
    s = HilbertSeries((1, -1), 0)
    assert s.numerator == (1, -1) and s.pole == 0


def test_arithmetic_across_poles():
    one_over = lambda k: HilbertSeries((1,), k)
    assert one_over(2) - one_over(1) == HilbertSeries((0, 1), 2)
    assert one_over(1) + one_over(1) == HilbertSeries((2,), 1)


def test_coefficients_free_module():
    s = HilbertSeries((1,), 4)
    assert s.coefficients(6) == [math.comb(d + 3, 3) for d in range(7)]
    assert HilbertSeries((), 0).coefficients(3) == [0, 0, 0, 0]


def test_coefficients_refuse_a_negative_bound():
    assert HilbertSeries((1, 2, 3), 0).coefficients(0) == [1]
    with pytest.raises(ValueError, match="nonnegative"):
        HilbertSeries((1, 2, 3, 4, 5, 6), 0).coefficients(-3)


def test_at_one_and_text():
    s = HilbertSeries((1, 2, 1), 4)
    assert s.at_one() == 4
    assert s.text() == "(1 + 2*t + t^2)/(1-t)^4"
    assert HilbertSeries((1,), 0).text() == "1"
    assert HilbertSeries((), 0).text() == "0"
    assert HilbertSeries((1, 0, -1, 5), 1).text() == "(1 + -t^2 + 5*t^3)/(1-t)^1"
    assert HilbertSeries((-1,), 0).text() == "-1"
    assert HilbertSeries((0, 1), 2).text() == "(t)/(1-t)^2"
    assert HilbertSeries((2, -1, 0, -2), 3).text() == \
        "(2 + -t + -2*t^3)/(1-t)^3"
    assert HilbertSeries((0, 0, 0, -1, -2, 1), 0).text() == "-t^3 + -2*t^4 + t^5"


# ---------------------------------------------------------------------------
# the pivot recursion

def test_base_cases():
    assert hilbert_series(MonomialIdeal(3, [])) == HilbertSeries((1,), 3)
    assert hilbert_series(MonomialIdeal(3, [(0, 0, 0)])).is_zero()
    assert hilbert_series(MonomialIdeal(1, [(2,)])) == HilbertSeries((1, 1), 0)


def test_pairwise_coprime_product():
    # (x^2, yz) in three variables: (1-t^2)^2 / (1-t)^3 = (1+t)^2 / (1-t)
    I = MonomialIdeal(3, [(2, 0, 0), (0, 1, 1)])
    assert hilbert_series(I) == HilbertSeries((1, 2, 1), 1)


def test_krull_dimension_and_multiplicity():
    I = MonomialIdeal(3, [(2, 0, 0), (0, 1, 1)])
    s = hilbert_series(I)
    assert krull_dimension(s) == 1
    assert multiplicity(s) == 4
    with pytest.raises(ValueError):
        multiplicity(hilbert_series(MonomialIdeal(2, [(0, 0)])))


def _count_standard_monomials(ideal, degree):
    return sum(
        1
        for combo in combinations_with_replacement(range(ideal.nvars), degree)
        if not ideal.contains(tuple(combo.count(v) for v in range(ideal.nvars)))
    )


def test_colon_drops_generators_a_quotient_divides():
    # pivot x: I : x = (y, z, yz) minimalizes to (y, z), and I + (x) = (x, yz)
    I = MonomialIdeal(3, [(1, 1, 0), (1, 0, 1), (0, 1, 1)])
    assert hilbert_series(I) == HilbertSeries((1, 2), 1)


def _unpack(x, run):
    """The exponent tuple of a packed monomial; its degree field must agree."""
    field = (1 << run.width) - 1
    mono = tuple(x >> run.width * (run.nvars - 1 - v) & field
                 for v in range(run.nvars))
    assert x >> run.width * run.nvars == sum(mono)
    return mono


def _record_nodes(monkeypatch):
    """The (generator tuples, linear count) nodes of the recursion,
    unpacked as they go."""
    kpoly = hilbert_module._kpoly
    nodes = []

    def recorded(gens, linear, run):
        nodes.append((tuple(_unpack(x, run) for x in gens), linear))
        return kpoly(gens, linear, run)

    monkeypatch.setattr(hilbert_module, "_kpoly", recorded)
    return nodes


def _canonical(nvars, nodes):
    """Each node keyed on its minimal generators in MonomialIdeal's order,
    none of them linear."""
    return all(MonomialIdeal(nvars, gens).gens == gens
               and min(map(sum, gens), default=2) >= 2 for gens, _ in nodes)


@pytest.mark.parametrize("seed", range(1, 41))
def test_series_matches_monomial_counting(monkeypatch, seed):
    nodes = _record_nodes(monkeypatch)
    rng = random.Random(seed)
    nvars = rng.randrange(3, 11)
    gens = []
    for _ in range(rng.randrange(2, 7)):
        mono = [0] * nvars
        for _ in range(rng.randrange(1, 4)):
            mono[rng.randrange(nvars)] += 1
        gens.append(tuple(mono))
    ideal = MonomialIdeal(nvars, gens)
    series = hilbert_series(ideal).coefficients(6)
    for d in range(7):
        assert series[d] == _count_standard_monomials(ideal, d), (
            f"degree {d} of {ideal.gens}"
        )
    assert _canonical(nvars, nodes)


@pytest.mark.parametrize("a, b", [(200, 129), (256, 3), (300, 130)])
def test_exponents_past_one_byte(monkeypatch, a, b):
    # (x^a y, x^b y^2, y^3) share y.  A degree past 127 widens every field
    # to two bytes, and an exponent past 255 fills the upper byte too.
    # Outside the ideal: every x^i, x^i y for i < a and x^i y^2 for i < b, so
    # HS = (1 + t + t^2 - t^(a+1) - t^(b+2)) / (1 - t)
    nodes = _record_nodes(monkeypatch)
    ideal = MonomialIdeal(2, [(a, 1), (b, 2), (0, 3)])
    series = hilbert_series(ideal)
    closed = [0] * (a + 2)
    closed[0] = closed[1] = closed[2] = 1
    closed[a + 1] -= 1
    closed[b + 2] -= 1
    assert series == HilbertSeries(closed, 1)
    coefficients = series.coefficients(a + 3)
    for d in range(a + 4):
        assert coefficients[d] == _count_standard_monomials(ideal, d)
    assert _canonical(2, nodes) and len(nodes) > 1


def test_recursion_reaches_four_hundred_colons():
    # (x^401 y, x^400 y^2, y^3) takes 400 colons by x in a row
    series = hilbert_series(MonomialIdeal(2, [(401, 1), (400, 2), (0, 3)]))
    assert series == HilbertSeries([1, 1, 1] + [0] * 399 + [-2], 1)


def test_a_thousand_colons_in_a_row_take_no_stack():
    # the nodes wait on an explicit stack, so a thousand colons by x in a
    # row stay far inside the default recursion limit of 1000 frames
    ideal = MonomialIdeal(2, [(1000, 1), (999, 2), (0, 3)])
    coefficients = hilbert_series(ideal).coefficients(1004)
    for d in (0, 1, 2, 3, 500, 998, 999, 1000, 1001, 1002, 1003, 1004):
        assert coefficients[d] == _count_standard_monomials(ideal, d)
    assert coefficients[999:1002] == [3, 3, 1]


def test_a_long_chain_of_i_plus_x_takes_no_stack():
    # the edge ideal of K_40 pivots 38 times in a row down I + (x) before
    # its generators turn coprime; 25 frames past the caller's depth suffice
    nvars = 40
    ideal = MonomialIdeal(nvars, [tuple(int(v in (i, j)) for v in range(nvars))
                                  for i, j in combinations(range(nvars), 2)])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 25)
    try:
        series = hilbert_series(ideal)
    finally:
        sys.setrecursionlimit(limit)
    assert series == HilbertSeries((1, nvars - 1), 1)


def _reference_nodes(ideal):
    """The nodes of the pivot recursion on exponent tuples, in visiting
    order: most frequent pivot, ties to the smallest index, both branches
    minimalized and sorted by MonomialIdeal, and each node's linear
    generators taken out into a count."""
    nvars = ideal.nvars
    nodes = []

    def run(gens, linear):
        nonlinear = tuple(g for g in gens if sum(g) != 1)
        linear += len(gens) - len(nonlinear)
        nodes.append((nonlinear, linear))
        gens = nonlinear
        counts = [sum(1 for g in gens if g[v]) for v in range(nvars)]
        if max(counts, default=0) < 2:
            return
        pivot = counts.index(max(counts))
        free = [g for g in gens if not g[pivot]]
        run(MonomialIdeal(nvars, free).gens, linear + 1)
        colon = [g[:pivot] + (g[pivot] - 1,) + g[pivot + 1:]
                 for g in gens if g[pivot]]
        run(MonomialIdeal(nvars, colon + free).gens, linear)

    if not ideal.is_unit():
        run(ideal.gens, 0)
    return nodes


def _random_ideal(seed):
    rng = random.Random(f"nodes {seed}")
    nvars = rng.randrange(2, 9)
    gens = [tuple(rng.choice((0, 0, 0, 1, 2, 3)) for _ in range(nvars))
            for _ in range(rng.randrange(1, 30))]
    return MonomialIdeal(nvars, gens)


@pytest.mark.parametrize("ideal", [
    # all 330 squarefree quartics in 11 variables, then each times x0: the
    # pivot counts are summed over more than 255 generators, and x0's
    # count of 330 is past what one byte holds
    MonomialIdeal(11, [tuple(int(v in c) for v in range(11))
                       for c in combinations(range(11), 4)]),
    MonomialIdeal(12, [(1,) + tuple(int(v in c) for v in range(11))
                       for c in combinations(range(11), 4)]),
    MonomialIdeal(2, [(300, 1), (130, 2), (0, 3)]),
] + [_random_ideal(seed) for seed in range(12)])
def test_nodes_match_a_tuple_recursion(monkeypatch, ideal):
    nodes = _record_nodes(monkeypatch)
    hilbert_series(ideal)
    assert nodes == _reference_nodes(ideal)


def _mixed_ideal(seed):
    """Generators of every kind the recursion treats apart: linear ones,
    squarefree quadrics and cubics, and non-squarefree ones of degree 2 to
    5, on 2 to 7 variables."""
    rng = random.Random(f"mixed {seed}")
    nvars = rng.randrange(2, 8)
    gens = []
    for _ in range(rng.randrange(1, 16)):
        kind = rng.choice((1, 2, 3, 3, 0, 0))
        mono = [0] * nvars
        if kind:  # squarefree of degree kind, or fewer on few variables
            for v in rng.sample(range(nvars), min(kind, nvars)):
                mono[v] = 1
        else:
            for _ in range(rng.randrange(2, 6)):
                mono[rng.randrange(nvars)] += 1
        gens.append(tuple(mono))
    return MonomialIdeal(nvars, gens)


def _shuffled_packing(nvars, seed):
    """`groebner`'s one-byte packing under a seeded order of the variables."""
    perm = list(range(nvars))
    random.Random(f"perm {seed}").shuffle(perm)
    return _Packing(TermOrder("shuffled", perm))


@pytest.mark.parametrize("seed", range(80))
def test_both_entries_match_monomial_counting(seed):
    # a linear generator goes into a node's count, a linear quotient drops
    # the generators holding its variable, and a squarefree cubic is
    # tested by its pairs; the packed entry reads the variables permuted
    ideal = _mixed_ideal(seed)
    counts = [_count_standard_monomials(ideal, d) for d in range(7)]
    assert hilbert_series(ideal).coefficients(6) == counts, ideal.gens
    packing = _shuffled_packing(ideal.nvars, seed)
    packed = packed_hilbert_series(ideal.nvars, {packing.pack(g) for g in ideal.gens})
    assert packed.coefficients(6) == counts, ideal.gens


@pytest.mark.parametrize("gens", [
    # pivot x0 (ties to the smallest index): I : x0 has the quotients
    # x1^2 (x3^2 in the third) and x2^2, which share a variable with the
    # pivot-free x1x2x3, or x1x2, yet divide neither, so both stay
    [(1, 2, 0, 0), (0, 1, 1, 1), (1, 0, 2, 0)],
    [(1, 2, 0, 0), (0, 1, 1, 0), (1, 0, 2, 0)],
    [(1, 0, 0, 2), (0, 1, 1, 1), (1, 0, 2, 0)],
    # x0x1 leaves the linear x1, which takes x1x2x3 out of I : x0
    [(1, 1, 0, 0), (0, 1, 1, 1), (1, 0, 1, 0)],
])
def test_colon_drops_exactly_what_a_quotient_divides(monkeypatch, gens):
    nodes = _record_nodes(monkeypatch)
    ideal = MonomialIdeal(4, gens)
    counts = [_count_standard_monomials(ideal, d) for d in range(7)]
    assert hilbert_series(ideal).coefficients(6) == counts
    assert nodes == _reference_nodes(ideal)


@pytest.mark.parametrize("gens", [
    [(126, 1), (60, 2), (0, 3)],    # degree 127: one byte per variable
    [(127, 1), (60, 2), (0, 3)],    # degree 128: the tuple path's wider fields
    [(127, 100), (100, 127), (3, 120)],
    [(1, 0), (127, 9), (0, 127)],
])
def test_packed_entry_past_degree_127(gens):
    ideal = MonomialIdeal(2, gens)
    top = max(map(sum, ideal.gens))
    counts = [_count_standard_monomials(ideal, d) for d in range(top + 3)]
    for seed in range(2):
        packing = _shuffled_packing(2, seed)
        series = packed_hilbert_series(2, {packing.pack(g) for g in ideal.gens})
        assert series == hilbert_series(ideal)
        assert series.coefficients(top + 2) == counts


def test_packed_entry_of_no_generators_and_of_the_unit_ideal():
    assert packed_hilbert_series(3, set()) == HilbertSeries((1,), 3)
    assert packed_hilbert_series(3, {0}).is_zero()


@pytest.mark.parametrize("order", ["lex-row-major", "lex-column-major"])
def test_packed_and_tuple_entries_agree_on_the_small_specs(order):
    # in(J) as `groebner` packs its leading monomials, in the order's
    # variable order, against the exponent tuples of in(J)
    specs = [s for s in enumerate_specs(8, 8) if s.m * s.n <= 16]
    for spec in specs:
        J = generalized_bei(spec.m, complete_multipartite(spec))
        term_order = TermOrder.by_name(order, J.ring)
        ini = J.initial_ideal(term_order)
        packing = _Packing(term_order)
        packed = packed_hilbert_series(J.ring.nvars, {packing.pack(g) for g in ini.gens})
        assert packed == hilbert_series(ini), spec


def test_staircase_example():
    # (x^2, xy) leaves 1, x, and the pure powers of y: 1/(1-t) + t
    I = MonomialIdeal(2, [(2, 0), (1, 1)])
    s = hilbert_series(I)
    assert s.coefficients(5) == [1, 2, 1, 1, 1, 1]


@pytest.mark.parametrize("m, parts, count", [
    (3, (3, 3), 83),
    (4, (2, 2), 57),
    (2, (2, 2, 2, 3), 29),
    (3, (1, 1, 1, 3), 57),
])
def test_recursion_node_counts(monkeypatch, m, parts, count):
    # every node is visited once, keyed on its minimal generators in
    # MonomialIdeal's order; the packed entry, under lex-row-major's
    # identity order of the variables, visits the same nodes
    nodes = _record_nodes(monkeypatch)
    J = generalized_bei(m, complete_multipartite(PartiteSpec(m, parts)), 32003)
    order = TermOrder.lex_row_major(J.ring)
    ini = J.initial_ideal(order)
    hilbert_series(ini)
    assert len(nodes) == count
    assert _canonical(J.ring.nvars, nodes)
    assert nodes == _reference_nodes(ini)
    packing = _Packing(order)
    packed_hilbert_series(J.ring.nvars, {packing.pack(g) for g in ini.gens})
    assert nodes[count:] == nodes[:count]
