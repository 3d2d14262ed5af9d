"""Buchberger, normal forms, and ideal intersection.

The reduced Groebner basis is unique for a fixed ideal and order, which gives
the suite its sharpest checks: shuffled generators must reproduce the exact
same basis, and every S-polynomial of the final basis must reduce to zero.
"""

import random
from itertools import combinations

import pytest

from gbei.formulas import generalized_bei, predicted_cut_sets, prime_component
from gbei.graphs import PartiteSpec, complete_graph, complete_multipartite
from gbei.groebner import (
    Ideal,
    buchberger,
    ideals_equal,
    intersect,
    normal_form,
    spolynomial,
)
from gbei.hilbert import MonomialIdeal
from gbei.rings import Poly, Ring, TermOrder, mono_is_squarefree


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
        assert f.leading_coefficient(order) == 1
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
    # the chain criterion must keep the pair, which gives 1
    assert buchberger([x1 * x2 + 1, x2 * x2], order) == [R.one()]


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


def test_elimination_basis_matches_sympy():
    # the t*I + (1-t)*J ring that intersect() eliminates t from
    spec = PartiteSpec.of(3, [1, 2])
    G = complete_multipartite(spec)
    A, B = (prime_component(3, G, T) for T in predicted_cut_sets(spec))
    ext = Ring(1, A.ring.nvars + 1, A.ring.prime)
    t = ext.variable(1, 1)

    def lift(f):
        return Poly(ext, {(0,) + m: c for m, c in f.terms.items()})

    gens = [t * lift(f) for f in A.gens] + [(1 - t) * lift(f) for f in B.gens]
    order = TermOrder.lex_row_major(ext)
    gb = buchberger(gens, order)
    assert gb == _sympy_basis(gens, order)
    order = TermOrder.lex_row_major(A.ring)
    assert intersect(A, B).groebner_basis(order) == [
        Poly(A.ring, {m[1:]: c for m, c in g.terms.items()})
        for g in gb if all(m[0] == 0 for m in g.terms)]


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
