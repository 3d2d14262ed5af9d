import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gbei.rings import (
    DEFAULT_PRIME,
    TERM_ORDERS,
    Poly,
    Ring,
    TermOrder,
    is_prime,
    minimal_masks,
    mono_coprime,
    mono_degree,
    mono_divides,
    mono_is_squarefree,
    mono_lcm,
    mono_mask,
    mono_mul,
)

monos = st.tuples(*([st.integers(0, 4)] * 5))
squarefree_monos = st.tuples(*([st.integers(0, 1)] * 5))


# ---------------------------------------------------------------------------
# exponent-tuple arithmetic

@given(monos, monos)
def test_mul_div_roundtrip(a, b):
    prod = mono_mul(a, b)
    assert mono_divides(a, prod) and mono_divides(b, prod)
    assert mono_degree(prod) == mono_degree(a) + mono_degree(b)


@given(monos, monos)
def test_lcm_gcd(a, b):
    lcm = mono_lcm(a, b)
    assert mono_divides(a, lcm) and mono_divides(b, lcm)
    assert mono_coprime(a, b) == (lcm == mono_mul(a, b))


@given(monos)
def test_squarefree_and_support(a):
    assert mono_is_squarefree(a) == all(e <= 1 for e in a)


@given(st.one_of(monos, squarefree_monos), monos, monos)
def test_mask_is_a_divisibility_prefilter(a, b, c):
    assert mono_mask(a) == sum(1 << v for v, e in enumerate(a) if e)
    for target in (b, mono_mul(a, c)):
        inside = mono_mask(a) & ~mono_mask(target) == 0
        if mono_divides(a, target):
            assert inside
        if mono_is_squarefree(a):
            assert inside == mono_divides(a, target)


def test_divides_is_componentwise():
    assert mono_divides((1, 0, 2), (1, 1, 2))
    assert not mono_divides((1, 1, 2), (1, 0, 2))


# ---------------------------------------------------------------------------
# inclusion-minimal bitmask sets

def _brute_minimal(masks):
    """The distinct masks with no other given mask inside them, smallest
    first, and by first occurrence among equal sizes."""
    distinct = list(dict.fromkeys(masks))
    return sorted((s for s in distinct
                   if not any(t != s and t & ~s == 0 for t in distinct)),
                  key=int.bit_count)


def test_minimal_masks_match_the_subset_definition():
    for masks, want in [([], []), ([0], [0]), ([0b101], [0b101]),
                        ([0b11, 0, 0b11, 0], [0]),
                        ([0b110, 0b011, 0b110], [0b110, 0b011]),
                        ([0b111, 0b011, 0b001, 0b011], [0b001]),
                        ([0b1100, 0b0111, 0b0011], [0b1100, 0b0011])]:
        assert minimal_masks(masks) == want == _brute_minimal(masks)
    rng = random.Random(20)
    seen = {"duplicate": 0, "nested": 0, "zero": 0, "single": 0, "several": 0}
    for _ in range(300):
        nvars = rng.randrange(1, 9)
        masks = []
        for _ in range(rng.randrange(1, 12)):
            kind = rng.random()
            if kind < 0.03:
                masks.append(0)
            elif masks and kind < 0.3:
                masks.append(rng.choice(masks))
            elif masks and kind < 0.6:
                masks.append(rng.choice(masks) | rng.randrange(1 << nvars))
            else:
                masks.append(rng.randrange(1, 1 << nvars))
        if rng.random() < 0.1:
            masks = masks[:1]
        want = _brute_minimal(masks)
        seen["duplicate"] += len(set(masks)) < len(masks)
        seen["nested"] += any(t != s and t & ~s == 0 for s in masks for t in masks)
        seen["zero"] += 0 in masks
        seen["single"] += len(masks) == 1
        seen["several"] += len(want) > 1
        assert minimal_masks(masks) == want, masks
        assert minimal_masks(iter(masks)) == want, masks
    assert min(seen.values()) >= 20, seen


# ---------------------------------------------------------------------------
# rings and variables

def test_ring_indexing():
    R = Ring(2, 3)
    assert R.nvars == 6
    assert R.prime == DEFAULT_PRIME
    assert [R.var_index(i, j) for i in (1, 2) for j in (1, 2, 3)] == list(range(6))
    assert R.var_name(R.var_index(2, 3)) == "x[2,3]"


def test_is_prime_against_trial_division():
    def slow(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    assert [n for n in range(3000) if is_prime(n)] == \
        [n for n in range(3000) if slow(n)]


@pytest.mark.parametrize("n,want", [
    (561, False), (3215031751, False),           # Carmichael; spsp(2,3,5,7)
    (3825123056546413051, False),                # spsp to bases 2..23
    (DEFAULT_PRIME, True), (2**61 - 1, True), (2**64 - 59, True),
    (2**32 + 1, False), ((2**31 - 1) * (2**31 - 1), False),
])
def test_is_prime_hard_cases(n, want):
    assert is_prime(n) is want


def test_is_prime_refuses_to_guess_past_64_bits():
    with pytest.raises(ValueError):
        is_prime(2**89 - 1)


@pytest.mark.parametrize("prime", [0, 1, 4, 6, 32001, 2**61 + 1])
def test_ring_rejects_non_primes(prime):
    with pytest.raises(ValueError):
        Ring(2, 2, prime)


# ---------------------------------------------------------------------------
# term orders

def test_lex_row_major_is_identity():
    R = Ring(2, 2)
    order = TermOrder.lex_row_major(R)
    mono = (0, 1, 2, 3)
    assert order.key(mono) == mono


def test_column_major_vs_row_major():
    R = Ring(2, 2)
    row = TermOrder.lex_row_major(R)
    col = TermOrder.lex_column_major(R)
    x12 = R.variable(1, 2).leading_monomial(row)
    x21 = R.variable(2, 1).leading_monomial(row)
    assert row.key(x12) > row.key(x21)
    assert col.key(x21) > col.key(x12)


def test_by_name():
    R = Ring(2, 2)
    assert TermOrder.by_name("lex-row-major", R) == TermOrder.lex_row_major(R)
    assert TermOrder.by_name("lex-column-major", R) == TermOrder.lex_column_major(R)
    with pytest.raises(ValueError):
        TermOrder.by_name("grevlex", R)
    for name, make in TERM_ORDERS.items():
        assert TermOrder.by_name(name, R).name == make(R).name == name


# ---------------------------------------------------------------------------
# polynomials

def _random_poly(R, rng, nterms=4):
    terms = {}
    for _ in range(nterms):
        mono = tuple(rng.randrange(3) for _ in range(R.nvars))
        terms[mono] = rng.randrange(1, R.prime)
    return Poly(R, terms)


def test_poly_ring_axioms():
    import random
    R = Ring(2, 2, 101)
    rng = random.Random(7)
    for _ in range(25):
        f, g, h = (_random_poly(R, rng) for _ in range(3))
        assert (f + g) * h == f * h + g * h
        assert f * g == g * f
        assert f - f == R.zero()
        assert f * R.one() == f
        assert 3 * f == f + f + f


def test_poly_mod_p_normalization():
    R = Ring(1, 1, 5)
    x = R.variable(1, 1)
    assert 5 * x == R.zero()
    assert 7 * x == 2 * x
    assert (x - 3 * x) == 3 * x  # -2 = 3 mod 5


def test_poly_rejects_a_monomial_too_long_for_the_ring():
    # packing would drop the third exponent and read x[1,1] + x[1,2]
    with pytest.raises(ValueError, match="wrong length"):
        Poly(Ring(1, 2), {(1, 0, 5): 1, (0, 1, 0): 1})


def test_poly_rejects_a_monomial_too_short_for_the_ring():
    with pytest.raises(ValueError, match="wrong length"):
        Poly(Ring(1, 2), {(1,): 1})


def test_leading_data():
    R = Ring(2, 2)
    row = TermOrder.lex_row_major(R)
    col = TermOrder.lex_column_major(R)
    f = R.variable(1, 2) * R.variable(2, 1) - R.variable(2, 2)
    assert f.leading_monomial(row) == (0, 1, 1, 0)
    assert f.terms[f.leading_monomial(row)] == 1
    # x[1,2]*x[2,1] still wins under column-major (x[2,1] beats x[2,2])
    assert f.leading_monomial(col) == (0, 1, 1, 0)
    g = R.variable(1, 2) - R.variable(2, 1)
    assert g.leading_monomial(row) == (0, 1, 0, 0)
    assert g.leading_monomial(col) == (0, 0, 1, 0)


def test_monic():
    R = Ring(1, 2, 101)
    order = TermOrder.lex_row_major(R)
    f = 7 * R.variable(1, 1) + 14 * R.variable(1, 2)
    lc = f.terms[f.leading_monomial(order)]
    assert lc == 7
    assert f * pow(lc, -1, R.prime) == R.variable(1, 1) + 2 * R.variable(1, 2)


def test_total_degree_and_zero():
    R = Ring(1, 2)
    f = R.variable(1, 1) * R.variable(1, 1) + R.variable(1, 2)
    assert f.total_degree() == 2
    assert R.zero().is_zero()
    assert not f.is_zero()


def test_text_rendering():
    R = Ring(2, 3)
    x = R.variable
    assert (3 * x(1, 2) * x(2, 3)).text() == "3*x[1,2]*x[2,3]"
    assert (x(1, 1) + x(1, 2)).text() == "x[1,1] + x[1,2]"
    assert (x(1, 1) * x(2, 2) - x(1, 2) * x(2, 1)).text() == \
        "x[1,1]*x[2,2] + -x[1,2]*x[2,1]"
    assert (x(1, 1) * x(1, 1)).text() == "x[1,1]^2"
    assert R.zero().text() == "0"
    assert R.constant(5).text() == "5"
    assert (-R.one()).text() == "-1"
    assert (-2 * x(1, 1)).text() == "-2*x[1,1]"
    assert (x(1, 3) * x(1, 3) - 2 * x(2, 1) + 7).text() == \
        "x[1,3]^2 + -2*x[2,1] + 7"
    # p - 1 is written as -1, and (p - 1) / 2 + 1 as its negative
    small = Ring(2, 3, 7)
    y = small.variable
    assert (6 * y(1, 2) + 4 * y(2, 1) + 3 * y(2, 2)).text() == \
        "-x[1,2] + -3*x[2,1] + 3*x[2,2]"
    # under lex-column-major x[2,1] > x[1,2], row-major puts x[1,2] first
    f = x(1, 2) + 5 * x(2, 1) * x(2, 3) - x(1, 3)
    assert f.text() == "x[1,2] + -x[1,3] + 5*x[2,1]*x[2,3]"
    assert f.text(TermOrder.lex_column_major(R)) == \
        "5*x[2,1]*x[2,3] + x[1,2] + -x[1,3]"
