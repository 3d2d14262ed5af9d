"""Buchberger, normal forms, and ideal intersection.

The reduced Groebner basis is unique for a fixed ideal and order, which gives
the suite its sharpest checks: shuffled generators must reproduce the exact
same basis, and every S-polynomial of the final basis must reduce to zero.
"""

import hashlib
import json
import random
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import gbei.groebner as groebner_module
from gbei.formulas import generalized_bei, predicted_cut_sets, prime_component
from gbei.graphs import PartiteSpec, complete_graph, complete_multipartite
from gbei.groebner import (
    MAX_EXPONENT,
    Ideal,
    _lcm,
    _Packing,
    buchberger,
    ideals_equal,
    initial_ideal,
    intersect,
    normal_form,
    spolynomial,
)
from gbei.hilbert import HilbertSeries, MonomialIdeal, hilbert_series
from gbei.rings import (Poly, Ring, TermOrder, mono_degree, mono_divides,
                        mono_is_squarefree, mono_lcm, packed_divides)
from gbei.verify import _meet_series, _stated_components, enumerate_specs, verify


def _bei(m, parts):
    spec = PartiteSpec.of(m, parts)
    return generalized_bei(m, complete_multipartite(spec))


def _order(ideal):
    return TermOrder.lex_row_major(ideal.ring)


# ---------------------------------------------------------------------------
# pinned bases

def test_k2_k3_generators_are_a_groebner_basis():
    # the three 2x2 minors of a generic 2x3 matrix are already reduced
    J = generalized_bei(2, complete_graph(3))
    gb = J.groebner_basis()
    assert sorted(gb, key=lambda f: sorted(f.terms)) == \
        sorted(J.gens, key=lambda f: sorted(f.terms))


def test_k2_star_initial_ideal():
    # one S-pair survives and contributes the only cubic generator
    J = _bei(2, [1, 2])
    ini = J.initial_ideal()
    R = J.ring

    def mono(*pairs):
        out = [0] * R.nvars
        for i, j in pairs:
            out[R.var_index(i, j)] += 1
        return tuple(out)

    assert set(ini.gens) == {
        mono((1, 1), (2, 2)),
        mono((1, 1), (2, 3)),
        mono((1, 2), (2, 1), (2, 3)),
    }


# ---------------------------------------------------------------------------
# structural properties

@pytest.mark.parametrize("m,parts", [(2, [1, 1, 1]), (2, [1, 2]), (2, [2, 2])])
def test_reduced_basis_unique_under_shuffles(m, parts):
    J = _bei(m, parts)
    order = _order(J)
    reference = buchberger(J.gens, order)
    rng = random.Random(20240 + m)
    for _ in range(4):
        gens = list(J.gens)
        rng.shuffle(gens)
        scaled = [rng.randrange(1, J.ring.prime) * g for g in gens]
        assert buchberger(scaled, order) == reference


@pytest.mark.parametrize("m,parts", [(2, [1, 2]), (2, [2, 2]), (3, [1, 2])])
def test_all_spolynomials_reduce_to_zero(m, parts):
    J = _bei(m, parts)
    order = _order(J)
    gb = J.groebner_basis()
    for f, g in combinations(gb, 2):
        assert normal_form(spolynomial(f, g, order), gb, order).is_zero()


def test_groebner_basis_is_reduced():
    J = _bei(2, [2, 2])
    order = _order(J)
    gb = J.groebner_basis()
    leads = [f.leading_monomial(order) for f in gb]
    for f in gb:
        assert f.terms[f.leading_monomial(order)] == 1
        others = [l for l in leads if l != f.leading_monomial(order)]
        ini = MonomialIdeal(J.ring.nvars, others)
        for mono in f.terms:
            assert not ini.contains(mono)


# ---------------------------------------------------------------------------
# normal forms

def test_normal_form_properties():
    J = _bei(2, [1, 2])
    order = _order(J)
    gb = J.groebner_basis()
    R = J.ring
    rng = random.Random(5)

    def rand_poly():
        terms = {}
        for _ in range(4):
            mono = tuple(rng.randrange(2) for _ in range(R.nvars))
            terms[mono] = rng.randrange(1, R.prime)
        return Poly(R, terms)

    for _ in range(20):
        f = rand_poly()
        r = normal_form(f, gb, order)
        # idempotence and stability under adding ideal elements
        assert normal_form(r, gb, order) == r
        g = sum((rand_poly() * h for h in gb), R.zero())
        assert normal_form(g, gb, order).is_zero()
        assert normal_form(f + g, gb, order) == r


def test_ideal_contains():
    J = _bei(2, [1, 2])
    f, g = J.gens[0], J.gens[1]
    assert J.contains(f)
    assert J.contains(f * g + 3 * g)
    assert not J.contains(J.ring.variable(1, 1))
    assert not J.contains(J.ring.one())


@pytest.mark.parametrize("order_name", ["lex-row-major", "lex-column-major"])
def test_contains_agrees_with_normal_form(order_name):
    J = _bei(3, [1, 2])
    R = J.ring
    order = TermOrder.by_name(order_name, R)
    gb = J.groebner_basis(order)
    rng = random.Random(11)
    polys = [sum((Poly(R, {tuple(rng.randrange(2) for _ in range(R.nvars)): 1}) * h
                  for h in rng.sample(gb, 2)), R.zero())
             for _ in range(15)]
    polys += [Poly(R, {tuple(rng.randrange(2) for _ in range(R.nvars)): 1})
              for _ in range(15)]
    # the second pass divides by the table kept from the first
    for _ in range(2):
        for f in polys:
            assert J.contains(f, order) == normal_form(f, gb, order).is_zero()
    assert any(J.contains(f, order) for f in polys)
    assert not all(J.contains(f, order) for f in polys)


def test_contains_rejects_a_polynomial_from_another_ring():
    J = _bei(2, [1, 2])
    other = Ring(2, 4, J.ring.prime)
    with pytest.raises(ValueError):
        J.contains(other.variable(1, 1))


def test_ideals_equal():
    R = Ring(1, 3)
    x = lambda j: R.variable(1, j)
    I = Ideal(R, (x(1), x(2) * x(3)))
    J = Ideal(R, (7 * x(2) * x(3) + x(1) * x(3), 2 * x(1)))
    assert ideals_equal(I, J)
    assert not ideals_equal(I, Ideal(R, (x(1),)))


# ---------------------------------------------------------------------------
# intersection

def test_intersect_principal_monomials():
    R = Ring(1, 2)
    I = Ideal(R, (R.variable(1, 1),))
    J = Ideal(R, (R.variable(1, 2),))
    meet = intersect(I, J)
    assert ideals_equal(meet, Ideal(R, (R.variable(1, 1) * R.variable(1, 2),)))


def test_intersect_classic():
    # the intersection of (x, y) and (x, z) is (x, yz)
    R = Ring(1, 3)
    x, y, z = (R.variable(1, j) for j in (1, 2, 3))
    meet = intersect(Ideal(R, (x, y)), Ideal(R, (x, z)))
    assert ideals_equal(meet, Ideal(R, (x, y * z)))


def test_intersect_memberships():
    J = _bei(2, [1, 2])
    R = J.ring
    A = Ideal(R, J.gens[:1])
    B = Ideal(R, J.gens[1:])
    meet = intersect(A, B)
    assert ideals_equal(meet, intersect(B, A))
    for f in meet.gens:
        assert A.contains(f) and B.contains(f)
    assert meet.contains(A.gens[0] * B.gens[0])


# ---------------------------------------------------------------------------
# the support-mask prefilter

def test_mask_subset_is_not_divisibility():
    # supp(x1^2) lies inside supp(x1*x2), yet x1^2 does not divide x1*x2
    R = Ring(1, 2)
    x1, x2 = R.variable(1, 1), R.variable(1, 2)
    order = TermOrder.lex_row_major(R)
    assert normal_form(x1 * x2, [x1 * x1], order) == x1 * x2
    assert normal_form(x1 * x1 * x2, [x1 * x1], order).is_zero()
    # S(x1^2 - x2, x1*x2) = -x2^2, and nothing further survives
    assert buchberger([x1 * x1 - x2, x1 * x2], order) == [
        x1 * x1 - x2, x1 * x2, x2 * x2]
    # S(x1*x2 + 1, x2^2) = x2 joins the basis; the pair (x1*x2 + 1, x2) has
    # lcm x1*x2, whose support holds x2^2's, yet x2^2 does not divide it, so
    # the pair must be reduced, which gives 1
    assert buchberger([x1 * x2 + 1, x2 * x2], order) == [R.one()]


# ---------------------------------------------------------------------------
# the pair choice when an entry joins

def _reduced_pairs(gens, order, monkeypatch):
    """buchberger(gens, order), and the (lm, lm) exponent tuples of the
    S-pairs it reduces, in the order reduced."""
    packing = _Packing(order)
    pairs = []
    spair = groebner_module._spair

    def recorded(a, b, guard, p):
        pairs.append((packing.unpack(a[0]), packing.unpack(b[0])))
        return spair(a, b, guard, p)

    monkeypatch.setattr(groebner_module, "_spair", recorded)
    return buchberger(gens, order), pairs


def test_pairs_are_chosen_when_an_entry_joins(monkeypatch):
    R = Ring(1, 4)
    a, b, c, d = (R.variable(1, j) for j in (1, 2, 3, 4))
    order = TermOrder.lex_row_major(R)
    ab, bc, ac = ((1, 1, 0, 0), (0, 1, 1, 0), (1, 0, 1, 0))
    # all three pairs of ab, bc, ac have the lcm abc: (ab, bc) is queued
    # when bc joins, and of ac's two pairs only (ab, ac), the one with the
    # lower partner; (bc, ac) is covered by (ab, ac) and by (ab, bc),
    # whose later end comes first.  (ab, ac) is reduced last, after the
    # pairs of lower degree that a - c and c^2 - 1 bring
    gb, pairs = _reduced_pairs([a * b - 1, b * c - 1, a * c - 1], order, monkeypatch)
    assert gb == [a - c, b - c, c * c - 1]
    assert pairs[0] == (ab, bc)
    assert pairs[-1] == (ab, ac)
    assert (bc, ac) not in pairs
    # b divides the lcm ab of the pair (ab - c, a - d), queued before b
    # joined; a later entry never drops a queued pair, and this one gives c
    gb, pairs = _reduced_pairs([a * b - c, a - d, b], order, monkeypatch)
    assert gb == [a - d, b, c]
    assert pairs == [(ab, (1, 0, 0, 0)), (ab, (0, 1, 0, 0))]


def _plain_buchberger(gens, order):
    """The reduced basis of gens by Buchberger with no criterion: every
    pair of the growing basis is reduced, in the order it was formed."""
    basis = [g for g in gens if g]
    pairs = list(combinations(range(len(basis)), 2))
    while pairs:
        i, j = pairs.pop(0)
        remainder = normal_form(spolynomial(basis[i], basis[j], order), basis, order)
        if remainder:
            pairs += [(k, len(basis)) for k in range(len(basis))]
            basis.append(remainder)
    lms = [g.leading_monomial(order) for g in basis]
    minimal = [g for j, g in enumerate(basis)
               if not any(mono_divides(lm, lms[j]) and (lm != lms[j] or i < j)
                          for i, lm in enumerate(lms) if i != j)]
    reduced = []
    for g in minimal:
        lm = g.leading_monomial(order)
        head = Poly(g.ring, {lm: g.terms[lm]})
        tail = normal_form(g - head, minimal, order)
        reduced.append(pow(g.terms[lm], -1, g.ring.prime) * (head + tail))
    reduced.sort(key=lambda f: order.key(f.leading_monomial(order)), reverse=True)
    return reduced


@pytest.mark.parametrize("prime", [2, 32003])
@pytest.mark.parametrize("rows,cols", [(1, 4), (2, 2), (2, 3)])
def test_pair_choice_matches_a_buchberger_with_no_criterion(rows, cols, prime):
    # monomial, binomial and non-homogeneous ideals whose terms mostly lie
    # on four variables, so that many pairs of one entry share an lcm
    R = Ring(rows, cols, prime)
    rng = random.Random(f"criteria {rows}x{cols}/{prime}")
    orders = {TermOrder.lex_row_major(R), TermOrder.lex_column_major(R)}

    def mono(degree):
        exps = [0] * R.nvars
        for v in rng.sample(range(4) if rng.random() < 0.8 else range(R.nvars), degree):
            exps[v] += 1
        return tuple(exps)

    def poly(kind):
        degrees = ([rng.choice((1, 2, 2, 3))], [2, 2], [2, 1, rng.choice((0, 1))])[kind]
        return Poly(R, {mono(k): rng.randrange(1, prime) for k in degrees})

    ties = 0
    for trial in range(12):
        gens = [poly(trial % 3) for _ in range(rng.randrange(3, 6))]
        extra = [poly(rng.randrange(3)) for _ in range(rng.randrange(0, 3))]
        for order in orders:
            lms = [g.leading_monomial(order) for g in gens]
            ties += sum(mono_lcm(lms[i], lms[j]) == mono_lcm(lms[k], lms[j])
                        for i, k, j in combinations(range(len(lms)), 3))
            assert buchberger(gens, order) == _plain_buchberger(gens, order)
        total = Ideal(R, gens + extra)
        assert total.groebner_basis() == _plain_buchberger(gens + extra, _order(total))
    assert ties >= 12


# the SHA-256 of J's reduced basis in both lex orders, recorded before the
# pair choice moved to the moment an entry joins
_J_DIGESTS = {
    (4, (2, 2)): ("c96e94a9b593a40c9913a9ed38fee77570d63f8c050be7754a0696ad63083d73",
                  "9b08c1b0487cd0ae274c0128b6d8a778dada17c66213a719d745741f4563cc1c"),
    (3, (1, 1, 1, 3)): ("e7bb30ad79c61b775a415cbf76b52b8890bf5a802ec74956a748797f2223a288",
                        "e5a8fd023bf3ef3d0bedfd2211842568ba50097ae31730af914e6801546ad64a"),
    (3, (3, 3)): ("9b3cf0de1a5692508970452e7b9d58d65785ddd8eb1d80fe7299957f3594b091",
                  "70273cc25d193864c86e3e531f7f784aeee856baa50ab256d112b34a86764082"),
    (2, (2, 2, 2, 3)): ("0de67c9219452b2ec7e5c2c341ee09236fc6276f10b0e95cd0ccec4a4908cf3e",
                        "51d2d6e87ec4e5a63663332d6690d702d26e491292d876631c93617246c5c0a5"),
    (2, (1, 11)): ("34fc3dcc9349ed4eb848c7ff1b20eeaabe0cad30b1a081aef9995f53da42c585",
                   "34fc3dcc9349ed4eb848c7ff1b20eeaabe0cad30b1a081aef9995f53da42c585"),
    (2, (3, 9)): ("fafd6f437c6bc77c658198934539b9663bfce6adf607090c1f8b83dfcb295665",
                  "59f6da8f3799390eeaf4d75ff68aabc5e842177d82fa7b7d82dfd6592105e453"),
    (3, (1, 7)): ("9ab61093e66aa761cd7fdbe7998818da7a88a735377ba3ad3b64bc4071aa0708",
                  "7b02fb77bcbac74d2f611edc43777b1c189c7e461c7871c159b0fb04a0dc39ef"),
}


@pytest.mark.parametrize("m,parts", list(_J_DIGESTS))
def test_verify_bases_match_the_recorded_digests(m, parts):
    # the four verify-elimination specs, then three of 24 variables
    J = generalized_bei(m, complete_multipartite(PartiteSpec(m, parts)), 32003)
    digests = []
    for name in ("lex-row-major", "lex-column-major"):
        gb = J.groebner_basis(TermOrder.by_name(name, J.ring))
        terms = json.dumps([sorted(g.terms.items()) for g in gb]).encode()
        digests.append(hashlib.sha256(terms).hexdigest())
    assert tuple(digests) == _J_DIGESTS[m, parts]


# ---------------------------------------------------------------------------
# packed monomials

_SHAPES = [(1, 1), (1, 6), (2, 3), (3, 2), (3, 4)]


@st.composite
def _packing_cases(draw):
    rows, cols = draw(st.sampled_from(_SHAPES))
    ring = Ring(rows, cols)
    order = TermOrder.by_name(draw(st.sampled_from(["lex-row-major",
                                                    "lex-column-major"])), ring)
    exps = st.tuples(*[st.integers(0, MAX_EXPONENT)] * ring.nvars)
    a = draw(exps)
    b = draw(st.one_of(exps, st.builds(
        lambda add: tuple(min(x + y, MAX_EXPONENT) for x, y in zip(a, add)),
        exps)))
    return order, a, b


@given(_packing_cases())
def test_packing_agrees_with_exponent_tuples(case):
    order, a, b = case
    packing = _Packing(order)
    pa, pb = packing.pack(a), packing.pack(b)
    assert packing.unpack(pa) == a and packing.unpack(pb) == b
    assert (pa < pb) == (order.key(a) < order.key(b))
    assert (pa == pb) == (a == b)
    assert packed_divides(pa, pb, packing.guard) == mono_divides(a, b)
    assert packed_divides(pb, pa, packing.guard) == mono_divides(b, a)
    assert packing.unpack(_lcm(pa, pb, packing.guard)) == mono_lcm(a, b)
    assert packing.degree(pa) == mono_degree(a)


@pytest.mark.parametrize("exponent", [-1, MAX_EXPONENT + 1, 255, 256, 1000, 1.5])
def test_packing_rejects_exponents_past_the_limit(exponent):
    R = Ring(1, 3)
    packing = _Packing(TermOrder.lex_row_major(R))
    with pytest.raises(ValueError, match=f"exponent outside 0..{MAX_EXPONENT}"):
        packing.pack((0, exponent, 1))
    with pytest.raises(ValueError, match=f"exponent outside 0..{MAX_EXPONENT}"):
        Ideal(R, [Poly(R, {(0, exponent, 1): 1})]).initial_ideal()


def test_exponent_overflow_in_a_product_raises():
    # x - y^64 rewrites x^2 to y^128, one past the limit
    R = Ring(1, 2)
    x, y = R.variable(1, 1), R.variable(1, 2)
    order = TermOrder.lex_row_major(R)
    big = Poly(R, {(0, 64): 1})
    with pytest.raises(ValueError, match=f"exponent outside 0..{MAX_EXPONENT}"):
        normal_form(x * x, [x - big], order)
    with pytest.raises(ValueError, match=f"exponent outside 0..{MAX_EXPONENT}"):
        buchberger([x - big, x * x], order)


# ---------------------------------------------------------------------------
# differential check against sympy's lex Groebner bases over GF(p)

def _sympy_basis(gens, order):
    """sympy's reduced lex basis of gens, as Polys in the same ring."""
    sympy = pytest.importorskip("sympy")
    ring = gens[0].ring
    xs = sympy.symbols(f"v0:{ring.nvars}")
    exprs = [sympy.Add(*(c * sympy.Mul(*(xs[v] ** e for v, e in enumerate(m)))
                         for m, c in f.terms.items()))
             for f in gens]
    gb = sympy.groebner(exprs, *(xs[v] for v in order.perm), order="lex",
                        modulus=ring.prime)
    out = []
    for g in gb.polys:
        terms = {}
        for exps, c in g.as_dict().items():
            mono = [0] * ring.nvars
            for v, e in zip(order.perm, exps):
                mono[v] = e
            terms[tuple(mono)] = c
        out.append(Poly(ring, terms))
    out.sort(key=lambda f: order.key(f.leading_monomial(order)), reverse=True)
    return out


@pytest.mark.parametrize("order_name", ["lex-row-major", "lex-column-major"])
def test_bei_basis_matches_sympy(order_name):
    J = _bei(3, [2, 2])
    order = TermOrder.by_name(order_name, J.ring)
    gb = J.groebner_basis(order)
    assert len(gb) == 28
    assert gb == _sympy_basis(list(J.gens), order)


def _elimination(A, B):
    """The generators t*A + (1-t)*B that intersect() eliminates t from, in
    a one-row ring whose first variable plays t, and its lex order."""
    ext = Ring(1, A.ring.nvars + 1, A.ring.prime)
    t = ext.variable(1, 1)

    def lift(f):
        return Poly(ext, {(0,) + m: c for m, c in f.terms.items()})

    gens = [t * lift(f) for f in A.gens] + [(1 - t) * lift(f) for f in B.gens]
    return gens, TermOrder.lex_row_major(ext)


def _t_free_part(ring, gb):
    """The elements of an elimination basis free of t, moved to ring."""
    return [Poly(ring, {m[1:]: c for m, c in g.terms.items()})
            for g in gb if all(m[0] == 0 for m in g.terms)]


def test_elimination_basis_matches_sympy():
    spec = PartiteSpec.of(3, [1, 2])
    G = complete_multipartite(spec)
    A, B = (prime_component(3, G, T) for T in predicted_cut_sets(spec))
    gens, order = _elimination(A, B)
    gb = buchberger(gens, order)
    assert gb == _sympy_basis(gens, order)
    order = TermOrder.lex_row_major(A.ring)
    assert intersect(A, B).groebner_basis(order) == _t_free_part(A.ring, gb)


@pytest.mark.parametrize("order_name", ["lex-row-major", "lex-column-major"])
def test_a_reduced_basis_gives_itself_back(order_name):
    # an ideal generated by J's reduced basis has that basis again
    for spec in enumerate_specs(3, 4):
        J = generalized_bei(spec.m, complete_multipartite(spec))
        order = TermOrder.by_name(order_name, J.ring)
        gb = J.groebner_basis(order)
        assert Ideal(J.ring, gb).groebner_basis(order) == gb, spec


def test_intersect_holds_the_t_free_part_as_its_basis():
    # intersect() returns the t-free part of the elimination basis as
    # plain generators; the basis built from them is that part again
    for spec in enumerate_specs(3, 4):
        G = complete_multipartite(spec)
        A, *rest = (prime_component(spec.m, G, T) for T in predicted_cut_sets(spec))
        for B in rest:
            gens, order = _elimination(A, B)
            part = _t_free_part(A.ring, buchberger(gens, order))
            meet = intersect(A, B)
            assert list(meet.gens) == part, spec
            assert meet.groebner_basis() == part, spec


@pytest.mark.parametrize("prime", [2, 32003])
@pytest.mark.parametrize("rows,cols", [(2, 2), (1, 5)])
def test_random_non_squarefree_bases_match_sympy(rows, cols, prime):
    # binomials and monomials with exponents up to 3: random trinomials
    # can make lex bases explode on both sides
    R = Ring(rows, cols, prime)
    rng = random.Random(f"{rows}x{cols}/{prime}")
    for _ in range(6):
        gens = []
        for _ in range(rng.randrange(2, 4)):
            terms = {tuple(rng.randrange(4) for _ in range(R.nvars)):
                     rng.randrange(1, prime) for _ in range(rng.randrange(1, 3))}
            gens.append(Poly(R, terms))
        assert not all(map(mono_is_squarefree, (m for g in gens for m in g.terms)))
        # a set: on a single row the two orders are equal and run once
        for order in {TermOrder.lex_row_major(R), TermOrder.lex_column_major(R)}:
            assert buchberger(gens, order) == _sympy_basis(gens, order)


def test_exponents_just_under_the_limit_match_sympy():
    # S(x - y^63, x^2) reduces to y^126, one under the limit
    R = Ring(1, 2)
    x, y = R.variable(1, 1), R.variable(1, 2)
    order = TermOrder.lex_row_major(R)
    gens = [x - Poly(R, {(0, 63): 1}), x * x]
    gb = buchberger(gens, order)
    assert gb == _sympy_basis(gens, order)
    assert max(max(m) for g in gb for m in g.terms) == MAX_EXPONENT - 1


@pytest.mark.parametrize("prime", [2, 32003])
@pytest.mark.parametrize("rows,cols", [(2, 2), (2, 3)])
def test_random_monomial_and_binomial_sets_match_sympy(rows, cols, prime):
    # mixed sets give monomial-monomial pairs, which are never queued;
    # every third set is monomials only, where no pair is queued at all
    R = Ring(rows, cols, prime)
    rng = random.Random(f"mixed {rows}x{cols}/{prime}")
    orders = {TermOrder.lex_row_major(R), TermOrder.lex_column_major(R)}

    def mono():
        exps = [0] * R.nvars
        for v in rng.sample(range(R.nvars), rng.randrange(1, 4)):
            exps[v] = rng.randrange(1, 3)
        return tuple(exps)

    for trial in range(9):
        sizes = [1, 1] + [1 if trial % 3 == 0 else 2
                          for _ in range(rng.randrange(2, 5))]
        gens = [Poly(R, {mono(): rng.randrange(1, prime) for _ in range(k)})
                for k in sizes]
        for order in orders:
            assert buchberger(gens, order) == _sympy_basis(gens, order)


# ---------------------------------------------------------------------------
# sums of an ideal and more generators

@pytest.mark.parametrize("prime", [2, 32003])
@pytest.mark.parametrize("rows,cols", [(2, 2), (2, 3), (3, 3)])
def test_plus_matches_buchberger_from_scratch(rows, cols, prime):
    # random binomial ideals, then binomials and monomials added: the sum
    # from all the generators has the basis that Buchberger finds from I's
    # reduced basis and the added generators
    R = Ring(rows, cols, prime)
    rng = random.Random(f"plus {rows}x{cols}/{prime}")

    def term():
        exps = [0] * R.nvars
        for v in rng.sample(range(R.nvars), rng.randrange(1, 3)):
            exps[v] = rng.randrange(1, 3)
        return tuple(exps), rng.randrange(1, prime)

    def poly(size):
        return Poly(R, dict(term() for _ in range(size)))

    for _ in range(8):
        I = Ideal(R, [poly(2) for _ in range(rng.randrange(1, 5))])
        extra = [poly(rng.choice((1, 1, 2))) for _ in range(rng.randrange(0, 4))]
        total = Ideal(R, list(I.gens) + extra)
        assert total.groebner_basis() == buchberger(I.groebner_basis() + extra, _order(I))


# ---------------------------------------------------------------------------
# S-polynomials and ring checks

def test_spolynomial_ignores_leading_coefficients():
    J = _bei(2, [1, 2])
    order = _order(J)
    for f, g in combinations(J.gens, 2):
        assert spolynomial(3 * f, 5 * g, order) == spolynomial(f, g, order)


def test_spolynomial_of_non_monic_pair():
    # over GF(7) with x > y: S(2x^2 + y, 3xy + 1) = y/2 * f - x/3 * g
    # = y^2/2 - x/3 = 4y^2 + 2x
    R = Ring(1, 2, 7)
    x, y = R.variable(1, 1), R.variable(1, 2)
    order = TermOrder.lex_row_major(R)
    assert spolynomial(2 * x * x + y, 3 * x * y + 1, order) == 4 * y * y + 2 * x


def test_generators_from_two_rings_are_rejected():
    # x1 in GF(p)[x1, x2] and x1 - 1 in GF(p)[x1, x2, x3]
    f = Ring(1, 2).variable(1, 1)
    R = Ring(1, 3)
    g = R.variable(1, 1) - 1
    order = TermOrder.lex_row_major(R)
    with pytest.raises(ValueError, match="ring mismatch"):
        buchberger([f, g], order)
    with pytest.raises(ValueError, match="ring mismatch"):
        spolynomial(f, g, order)


# ---------------------------------------------------------------------------
# redundant generators: equal, dividing and constant leading terms

def _ranked(R, order):
    """The variables of R, largest in the order first."""
    return [R.variable(v // R.cols + 1, v % R.cols + 1) for v in order.perm]


def _special_sets(R, order):
    """Generator sets whose leading terms repeat or divide one another,
    named by how; the leading terms are the same in every order."""
    x1, x2, x3, x4 = _ranked(R, order)
    return {
        "equal lms": [x1 * x2 + x3, 3 * x1 * x2 + x4 * x4, x3 * x4 - x2 * x2],
        "equal generators": [x1 * x2 - x3, x1 * x2 - x3, x2 * x4 + 1],
        "divisor first": [x1 + x2 * x3, x1 * x4 + x2, x3 * x3 - x4],
        "divisor last": [x1 * x4 + x2, x3 * x3 - x4, x1 + x2 * x3],
        "square, then a product it does not divide":
            [x1 * x1 + x3, x1 * x2 + x4, x3 * x3],
        "product, then a square it does not divide":
            [x1 * x2 + x4, x1 * x1 + x3, x2 * x3 - 1],
        "constant": [x1 * x2 - x3, 3 * R.one(), x4 * x4],
        "constant last": [x1 * x2 - x3, x4 * x4 + x1, R.one()],
    }


@pytest.mark.parametrize("prime", [2, 32003])
@pytest.mark.parametrize("order_name", ["lex-row-major", "lex-column-major"])
def test_redundant_generators_match_sympy(order_name, prime):
    R = Ring(2, 2, prime)
    order = TermOrder.by_name(order_name, R)
    for name, gens in _special_sets(R, order).items():
        reference = _sympy_basis(gens, order)
        assert buchberger(gens, order) == reference, name
        I = Ideal(R, gens)
        assert I.groebner_basis(order) == reference, name
        assert I.initial_ideal(order) == initial_ideal(reference, order), name
        assert all(I.contains(g, order) for g in gens), name


@pytest.mark.parametrize("prime", [2, 32003])
def test_plus_with_leading_terms_on_the_basis_matches_sympy(prime):
    # extra generators whose leading terms equal, or properly divide, a
    # leading term of I's basis
    R = Ring(2, 2, prime)
    order = _order(Ideal(R, []))
    x1, x2, x3, x4 = _ranked(R, order)
    I = Ideal(R, [x1 * x2 - x3 * x4, x1 * x3 - x2 * x4, x2 * x2 * x3 + x4])
    lms = [g.leading_monomial(order) for g in I.groebner_basis()]
    for extra in ([x1 * x2 + x4 * x4], [x1 * x3 - x4], [x1 + x4, x2 * x2 * x3],
                  [x2 * x2 * x3 + x4, x2 * x4 + x3 * x4]):
        for f in extra:
            lm = f.leading_monomial(order)
            assert any(mono_divides(lm, b) for b in lms)
        gens = list(I.gens) + extra
        assert Ideal(R, gens).groebner_basis() == _sympy_basis(gens, order)


@pytest.mark.parametrize("prime", [2, 32003])
@pytest.mark.parametrize("rows,cols", [(2, 2), (2, 3)])
def test_ideal_agrees_with_buchberger_on_random_ideals(rows, cols, prime):
    # binomial ideals, and monomial ones every third trial: the cached
    # table gives the initial ideal and membership that Buchberger and
    # division by its Polys give, and the sum with more generators has
    # the basis Buchberger finds from I's basis and those generators
    R = Ring(rows, cols, prime)
    rng = random.Random(f"table {rows}x{cols}/{prime}")
    orders = (TermOrder.lex_row_major(R), TermOrder.lex_column_major(R))

    def poly(size):
        terms = {}
        for _ in range(size):
            exps = [0] * R.nvars
            for v in rng.sample(range(R.nvars), rng.randrange(1, 4)):
                exps[v] = rng.randrange(1, 3)
            terms[tuple(exps)] = rng.randrange(1, prime)
        return Poly(R, terms)

    for trial in range(9):
        size = 1 if trial % 3 == 0 else 2
        gens = [poly(size) for _ in range(rng.randrange(1, 5))]
        extra = [poly(rng.choice((1, 2))) for _ in range(rng.randrange(0, 4))]
        I = Ideal(R, gens)
        for order in orders:
            gb = buchberger(gens, order)
            assert I.initial_ideal(order) == initial_ideal(gb, order, R.nvars)
            probes = [sum((poly(1) * g for g in rng.sample(gens, min(2, len(gens)))),
                          R.zero()) for _ in range(4)]
            probes += [probes[0] + poly(1), poly(2)]
            for f in probes:
                assert I.contains(f, order) == normal_form(f, gb, order).is_zero()
        assert (Ideal(R, gens + extra).groebner_basis()
                == buchberger(I.groebner_basis() + extra, orders[0]))


# ---------------------------------------------------------------------------
# the finish of a table of one degree

@pytest.mark.parametrize("prime", [2, 32003])
@pytest.mark.parametrize("order_name", ["lex-row-major", "lex-column-major"])
def test_one_degree_finish_matches_sympy(order_name, prime):
    # sets of one degree, 1 to 3, drawn from a pool of a few monomials, so
    # that lms repeat and tails hold lms; each built with no floor and under
    # its exact series.  The reduced basis is unique, so which entry of a
    # repeated lm is kept shows only in the entry that comes back: the
    # table's first with that lm, itself when its tail holds no lm
    R = Ring(2, 2, prime)
    order = TermOrder.by_name(order_name, R)
    rng = random.Random(f"one degree {order_name}/{prime}")
    dropped = rereduced = 0
    for trial in range(24):
        degree = 1 + trial % 3
        pool = set()
        while len(pool) < 4:
            exps = [0] * R.nvars
            for v in rng.choices(range(R.nvars), k=degree):
                exps[v] += 1
            pool.add(tuple(exps))
        pool = sorted(pool)
        gens = [Poly(R, {m: rng.randrange(1, prime) for m in rng.sample(pool, k)})
                for k in rng.choices((1, 2, 2, 3), k=rng.randrange(2, 6))]
        reference = _sympy_basis(gens, order)
        exact = hilbert_series(initial_ideal(reference, order, R.nvars))
        for floor in (None, exact):
            packing = _Packing(order)
            table = groebner_module._table(gens, packing)
            basis, _ = groebner_module._complete(table, packing, prime, floor)
            assert [groebner_module._poly(R, packing, {lm: 1, **tail})
                    for lm, tail, _ in basis] == reference, (trial, floor)
            first, joined = {}, {id(entry) for entry in table}
            for entry in table:
                first.setdefault(entry[0], entry)
            for entry in basis:
                if id(entry) in joined:
                    assert entry is first[entry[0]], trial
                else:
                    rereduced += 1
            dropped += len(table) - len(basis)
    assert dropped and rereduced


# ---------------------------------------------------------------------------
# the S-pair sequence of the oracle's bases

@pytest.mark.parametrize("m,parts,counts", [
    (4, (2, 2), ((393, 160), (88, 0))),
    (3, (1, 1, 1, 3), ((490, 230), (126, 0))),
    (3, (3, 3), ((744, 230), (108, 0))),
    (2, (2, 2, 2, 3), ((502, 168), (127, 0))),
])
def test_spair_counts_of_the_verify_bases(m, parts, counts, monkeypatch):
    # the S-pairs reduced for J and P_0 at p = 32003: with the pairs chosen
    # when an entry joins by initial_ideal(), and under the Hilbert floors,
    # the decomposition bound for J (its basis when the certificate of
    # in(J) fails) and the Segre series for P_0.  Bookkeeping of the table
    # must not add, drop or reorder any.  Under the floors each reduced
    # S-pair is the only division: the one-degree finish finds every lm
    # minimal and every tail reduced.  verify() builds P_0's basis only
    plain, floored = counts
    calls, divisions = [], []
    spair, reduce = groebner_module._spair, groebner_module._reduce

    def counted(*args):
        calls.append(None)
        return spair(*args)

    def divided(*args):
        divisions.append(None)
        return reduce(*args)

    monkeypatch.setattr(groebner_module, "_spair", counted)
    spec = PartiteSpec(m, parts)
    G = complete_multipartite(spec)
    seen = []
    generalized_bei(m, G, 32003).initial_ideal()
    seen.append(len(calls))
    prime_component(m, G, (), 32003).initial_ideal()
    seen.append(len(calls) - sum(seen))
    assert tuple(seen) == plain

    built = {}  # gens -> the S-pairs reduced by the call that built the basis
    divided_by = {}  # gens -> the divisions that call made
    basis = Ideal._basis

    def recorded(self, order, floor=None):
        before, divisions_before = len(calls), len(divisions)
        out = basis(self, order, floor)
        built.setdefault(self.gens, len(calls) - before)
        divided_by.setdefault(self.gens, len(divisions) - divisions_before)
        return out

    monkeypatch.setattr(Ideal, "_basis", recorded)
    monkeypatch.setattr(groebner_module, "_reduce", divided)
    P, variable_sets = _stated_components(spec, G, predicted_cut_sets(spec), 32003)
    low = _meet_series(P, variable_sets)
    J = generalized_bei(m, G, 32003)
    J._basis(J.default_order(), low)
    gens = J.gens, P.gens
    assert tuple(map(built.get, gens)) == floored
    assert tuple(map(divided_by.get, gens)) == floored

    built.clear()
    divided_by.clear()
    verify(spec, hochster_cap=0)
    assert built == divided_by == {P.gens: floored[1]}


# ---------------------------------------------------------------------------
# Hilbert floors

def test_a_floor_above_the_series_raises():
    P = prime_component(3, complete_graph(3), ())  # all 2-minors of a 3 x 3 matrix
    exact = hilbert_series(Ideal(P.ring, P.gens).initial_ideal())
    # P's minors form its basis, so degree 3 brings no new lm, yet the
    # floor asks for one fewer standard monomial there
    above = exact + HilbertSeries((0, 0, 0, 1), 0)
    with pytest.raises(ValueError, match="exceeds"):
        P._basis(P.default_order(), above)


def test_a_floor_needs_a_homogeneous_table():
    R = Ring(1, 3)
    a, b, c = (R.variable(1, j) for j in (1, 2, 3))
    for gens in ([a * b - c, b * c - a * a * a],
                 [a * b, b * c * c - a * a * c]):  # homogeneous, two degrees
        I = Ideal(R, gens)
        with pytest.raises(ValueError, match="homogeneous polynomials of one degree"):
            I._basis(I.default_order(), HilbertSeries((), 0))

