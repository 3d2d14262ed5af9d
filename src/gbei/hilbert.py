"""Hilbert series of monomial quotients via pivot recursion.

A series is kept exact as a pair (numerator polynomial, pole order)
representing N(t)/(1-t)^d, always reduced so that (1-t) does not divide
N(t).  Krull dimension is then the pole order and the multiplicity is
N(1); nothing is ever truncated to a power series.
"""

from __future__ import annotations

from .rings import mono_degree, mono_divides, mono_is_squarefree, mono_mask


class MonomialIdeal:
    """A monomial ideal given by its minimal generating set.

    Generators are exponent tuples; the constructor deduplicates, drops
    divisible generators, and sorts, so equal ideals compare equal.
    """

    __slots__ = ("nvars", "gens")

    def __init__(self, nvars, gens):
        gens = set(gens)
        for g in gens:
            if len(g) != nvars:
                raise ValueError(f"generator {g} has wrong length for {nvars} variables")
        # a divisor's support lies inside g's: the masks are a prefilter only,
        # since generators need not be squarefree
        minimal = []
        masks = []
        for g in sorted(gens, key=lambda m: (mono_degree(m), m)):
            outside = ~mono_mask(g)
            if not any(h_mask & outside == 0 and mono_divides(h, g)
                       for h_mask, h in zip(masks, minimal)):
                minimal.append(g)
                masks.append(~outside)
        self.nvars = nvars
        self.gens = tuple(minimal)

    def is_unit(self):
        """True iff 1 lies in the ideal."""
        return bool(self.gens) and not any(self.gens[0])

    def is_squarefree(self):
        return all(mono_is_squarefree(g) for g in self.gens)

    def contains(self, mono):
        return any(mono_divides(g, mono) for g in self.gens)

    def __eq__(self, other):
        return (isinstance(other, MonomialIdeal)
                and self.nvars == other.nvars and self.gens == other.gens)

    def __hash__(self):
        return hash((self.nvars, self.gens))

    def __repr__(self):
        return f"MonomialIdeal(nvars={self.nvars}, gens={len(self.gens)})"


# --------------------------------------------------------------------------
# series arithmetic

class HilbertSeries:
    """N(t)/(1-t)^pole with integer N, stored in lowest terms.

    `numerator` is a little-endian coefficient tuple.  The zero series is
    (numerator (), pole 0).
    """

    __slots__ = ("numerator", "pole")

    def __init__(self, numerator, pole):
        num = list(numerator)
        while num and num[-1] == 0:
            num.pop()
        if pole < 0:
            raise ValueError("pole order must be nonnegative")
        if not num:
            pole = 0
        # cancel factors of (1-t): N(1) == 0 means exact synthetic division
        while num and pole > 0 and sum(num) == 0:
            acc = 0
            quotient = []
            for c in num[:-1]:
                acc += c
                quotient.append(acc)
            num = quotient
            pole -= 1
            while num and num[-1] == 0:
                num.pop()
        self.numerator = tuple(num)
        self.pole = pole

    def is_zero(self):
        return not self.numerator

    def at_one(self):
        return sum(self.numerator)

    def __add__(self, other):
        d = max(self.pole, other.pole)
        a = _mul_one_minus_t_power(self.numerator, d - self.pole)
        b = _mul_one_minus_t_power(other.numerator, d - other.pole)
        n = max(len(a), len(b))
        a = a + (0,) * (n - len(a))
        b = b + (0,) * (n - len(b))
        return HilbertSeries([x + y for x, y in zip(a, b)], d)

    def __sub__(self, other):
        return self + HilbertSeries([-c for c in other.numerator], other.pole)

    def shift(self, k=1):
        """Multiply by t^k."""
        return HilbertSeries((0,) * k + self.numerator, self.pole)

    def coefficients(self, upto):
        """The first upto+1 coefficients of the power-series expansion."""
        coeffs = list(self.numerator[:upto + 1])
        coeffs += [0] * (upto + 1 - len(coeffs))
        for _ in range(self.pole):
            acc = 0
            for i in range(upto + 1):
                acc += coeffs[i]
                coeffs[i] = acc
        return coeffs

    def __eq__(self, other):
        return (isinstance(other, HilbertSeries)
                and self.numerator == other.numerator and self.pole == other.pole)

    def __hash__(self):
        return hash((self.numerator, self.pole))

    def to_json(self):
        return {"numerator": list(self.numerator), "pole": self.pole}

    def text(self):
        if not self.numerator:
            return "0"
        parts = []
        for i, c in enumerate(self.numerator):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                body = "t" if i == 1 else f"t^{i}"
                if c == 1:
                    parts.append(body)
                elif c == -1:
                    parts.append("-" + body)
                else:
                    parts.append(f"{c}*{body}")
        num = " + ".join(parts)
        if self.pole == 0:
            return num
        return f"({num})/(1-t)^{self.pole}"

    def __repr__(self):
        return f"<HilbertSeries {self.text()}>"


def _mul_one_minus_t_power(coeffs, k):
    """Multiply a coefficient tuple by (1-t)^k."""
    out = list(coeffs)
    for _ in range(k):
        nxt = out + [0]
        for i in range(len(out)):
            nxt[i + 1] -= out[i]
        out = nxt
    return tuple(out)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


# --------------------------------------------------------------------------
# the pivot recursion

def hilbert_series(ideal):
    """Hilbert series of (polynomial ring)/(ideal).

    Recursion on a pivot variable x: counting monomials outside I splits
    along divisibility by x into K(I) = K(I + (x)) + t*K(I : x).  The pivot
    is a most frequent variable among the generators (ties to the smallest
    index); both branches strictly shrink the generators, so the recursion
    bottoms out at the split-free base cases.
    """
    memo = {}

    def run(nvars, gens):
        key = gens
        got = memo.get(key)
        if got is not None:
            return got
        out = _hilbert(nvars, gens, run)
        memo[key] = out
        return out

    return run(ideal.nvars, ideal.gens)


def _hilbert(nvars, gens, run):
    if not gens:
        return HilbertSeries((1,), nvars)
    if not any(gens[0]):
        return HilbertSeries((), 0)  # unit ideal, zero quotient
    if _pairwise_coprime(gens):
        num = [1]
        for g in gens:
            factor = [0] * (mono_degree(g) + 1)
            factor[0] = 1
            factor[-1] = -1
            num = _poly_mul(num, factor)
        return HilbertSeries(num, nvars)

    pivot = _pick_pivot(nvars, gens)

    # I + (x_pivot): the variable itself plus every pivot-free generator
    var = tuple(1 if v == pivot else 0 for v in range(nvars))
    plus = MonomialIdeal(nvars, [var] + [g for g in gens if g[pivot] == 0])

    # I : x_pivot: divide each generator once by the pivot where possible
    colon = MonomialIdeal(nvars, [
        tuple(e - 1 if v == pivot and e else e for v, e in enumerate(g))
        for g in gens
    ])

    return run(nvars, plus.gens) + run(nvars, colon.gens).shift(1)


def _pairwise_coprime(gens):
    seen = [False] * len(gens[0])
    for g in gens:
        for v, e in enumerate(g):
            if e:
                if seen[v]:
                    return False
                seen[v] = True
    return True


def _pick_pivot(nvars, gens):
    counts = [0] * nvars
    for g in gens:
        for v, e in enumerate(g):
            if e:
                counts[v] += 1
    best = max(counts)
    return counts.index(best)


def krull_dimension(series):
    """Pole order of the reduced series = dimension of the quotient."""
    return series.pole

def multiplicity(series):
    """N(1) of the reduced series; undefined for the zero quotient."""
    if series.is_zero():
        raise ValueError("zero quotient has no multiplicity")
    return series.at_one()
