import math
import random
from itertools import combinations_with_replacement

import pytest

from gbei.hilbert import (
    HilbertSeries,
    MonomialIdeal,
    hilbert_series,
    krull_dimension,
    multiplicity,
)


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
    assert one_over(2).shift(3) == HilbertSeries((0, 0, 0, 1), 2)


def test_coefficients_free_module():
    s = HilbertSeries((1,), 4)
    assert s.coefficients(6) == [math.comb(d + 3, 3) for d in range(7)]
    assert HilbertSeries((), 0).coefficients(3) == [0, 0, 0, 0]


def test_at_one_and_text():
    s = HilbertSeries((1, 2, 1), 4)
    assert s.at_one() == 4
    assert s.text() == "(1 + 2*t + t^2)/(1-t)^4"
    assert HilbertSeries((1,), 0).text() == "1"
    assert HilbertSeries((), 0).text() == "0"
    assert HilbertSeries((1, 0, -1, 5), 1).text() == "(1 + -t^2 + 5*t^3)/(1-t)^1"


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


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_series_matches_monomial_counting(seed):
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


def test_staircase_example():
    # (x^2, xy) leaves 1, x, and the pure powers of y: 1/(1-t) + t
    I = MonomialIdeal(2, [(2, 0), (1, 1)])
    s = hilbert_series(I)
    assert s.coefficients(5) == [1, 2, 1, 1, 1, 1]
