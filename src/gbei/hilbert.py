"""Hilbert series of monomial quotients via pivot recursion.

A series is kept exact as a pair (numerator polynomial, pole order)
representing N(t)/(1-t)^d, always reduced so that (1-t) does not divide
N(t).  Krull dimension is then the pole order and the multiplicity is
N(1); nothing is ever truncated to a power series.

The recursion itself works on K-polynomials, plain numerators over the
fixed (1-t)^nvars of the ambient ring (Bayer-Stillman 1992, Bigatti 1997),
and reduces to lowest terms once, at the end.  Every series enters it at
`_series`, with each generator packed once into a big-endian int: the
degree on top, then one field per variable.  The fields are the fewest
whole bytes whose top bit, a guard, stays clear of the ideal's largest
degree, so no exponent is refused, and every node's generators fit since
they divide the ideal's.  Int order is then degree-lex order, a colon by a
variable is a subtraction, and divisibility is the guard test `groebner`
uses too.  `hilbert_series` packs exponent tuples, variable 0 first;
`packed_hilbert_series` takes the one-byte fields `groebner` packs leading
monomials into as they are, in the term order's variable order, since a
series does not change when the variables are permuted.

No node holds a linear generator.  In a minimal generating set x_w is the
only generator x_w divides, so K(I) = (1 - t) K(I without x_w): a node is
its other generators and the count of linear ones taken out, and its base
case multiplies by (1 - t)^count.  I + (x) adds one to the count.  I : x
moves its linear quotients into the count and drops every pivot-free
generator holding one of their variables, by one support-mask test; of
the rest, a squarefree cubic is tested by looking its 2-subsets up among
the supports of the quadric quotients, and only the others are tested
against the quotients one by one.  A linear generator's variable is never
a pivot, so the pivots, and the nodes, are those of the recursion that
keeps them.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import reduce
from itertools import accumulate, chain, compress, pairwise, zip_longest
from math import comb
from operator import add, mul, not_, or_, sub

from .rings import iter_bits, mono_degree, mono_divides, packed_divides, terms_text


def _degree_lex(mono):
    """The canonical generator order: by degree, then by exponent tuple."""
    return mono_degree(mono), mono


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
            if not all(isinstance(e, int) and e >= 0 for e in g):
                raise ValueError(f"generator {g} has an exponent that is not a "
                                 f"nonnegative integer")
        # a divisor's support lies inside g's: the candidates hold no variable
        # outside it, and are tested, since generators need not be squarefree
        minimal = []
        holders = [0] * nvars  # per variable: bitset of the kept generators holding it
        for g in sorted(gens, key=_degree_lex):
            outside = reduce(or_, compress(holders, map(not_, g)), 0)
            kept = (1 << len(minimal)) - 1
            if not any(mono_divides(minimal[i], g) for i in iter_bits(kept & ~outside)):
                for v in compress(range(nvars), g):
                    holders[v] |= 1 << len(minimal)
                minimal.append(g)
        self.nvars = nvars
        self.gens = tuple(minimal)

    @classmethod
    def _of_minimal(cls, nvars, gens):
        """The ideal of generators known minimal and distinct: only sorts."""
        ideal = cls.__new__(cls)
        ideal.nvars = nvars
        ideal.gens = tuple(sorted(gens, key=_degree_lex))
        return ideal

    def is_unit(self):
        """True iff 1 lies in the ideal."""
        return bool(self.gens) and not any(self.gens[0])

    def is_squarefree(self):
        return max(chain.from_iterable(self.gens), default=0) <= 1

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
        # cancel factors of (1-t): N(1) == 0 means exact synthetic division,
        # the quotient's prefix sums, whose last one is -N's last, not 0
        while num and pole > 0 and sum(num) == 0:
            num = list(accumulate(num[:-1]))
            pole -= 1
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
        return HilbertSeries([x + y for x, y in zip_longest(a, b, fillvalue=0)], d)

    def __sub__(self, other):
        return self + HilbertSeries([-c for c in other.numerator], other.pole)

    def coefficients(self, upto):
        """The first upto+1 coefficients of the power-series expansion."""
        if upto < 0:
            raise ValueError("upto must be nonnegative")
        coeffs = self.numerator[:upto + 1] + (0,) * (upto + 1 - len(self.numerator))
        for _ in range(self.pole):  # each 1/(1-t) takes prefix sums
            coeffs = accumulate(coeffs)
        return list(coeffs)

    def __eq__(self, other):
        return (isinstance(other, HilbertSeries)
                and self.numerator == other.numerator and self.pole == other.pole)

    def __hash__(self):
        return hash((self.numerator, self.pole))

    def to_json(self):
        return {"numerator": list(self.numerator), "pole": self.pole}

    def text(self):
        num = terms_text((c, "" if i == 0 else "t" if i == 1 else f"t^{i}")
                         for i, c in enumerate(self.numerator) if c)
        return num if self.pole == 0 else f"({num})/(1-t)^{self.pole}"

    def __repr__(self):
        return f"<HilbertSeries {self.text()}>"


def _mul_one_minus_t_power(coeffs, k):
    """Multiply a coefficient tuple by (1-t)^k."""
    for _ in range(k):  # c_i - c_(i-1), one term longer
        coeffs = tuple(b - a for a, b in pairwise((0, *coeffs, 0)))
    return tuple(coeffs)


# --------------------------------------------------------------------------
# the pivot recursion

def hilbert_series(ideal):
    """Hilbert series of (polynomial ring)/(ideal), its generators packed
    as the module says."""
    nvars = ideal.nvars
    degrees = list(map(sum, ideal.gens))
    width = 8 * (max(degrees, default=0).bit_length() // 8 + 1)
    # each generator is a sum over its nonzero fields
    lows = [1 << width * v for v in reversed(range(nvars))]
    return _series(nvars, width, [
        sum(map(mul, compress(g, g), compress(lows, g)), d << width * nvars)
        for g, d in zip(ideal.gens, degrees)])


def packed_hilbert_series(nvars, monos):
    """HS(S/I), I minimally generated by the distinct monos, ints of one
    byte per variable in any variable order, as `groebner._Packing` packs
    monomials.  While every degree is under 128 those bytes are the
    recursion's fields as they are; past that the exponent tuples take the
    wider fields `hilbert_series` picks."""
    top = 8 * nvars
    gens = sorted(sum(x.to_bytes(nvars, "big")) << top | x for x in monos)
    if not gens or gens[-1] >> top < 0x80:
        return _series(nvars, 8, gens)
    return hilbert_series(MonomialIdeal._of_minimal(nvars, [
        tuple((g & (1 << top) - 1).to_bytes(nvars, "big")) for g in gens]))


class _Run:
    """The packing of one series: nvars fields of `width` bits, their top
    bits `guard` and low bits `ones`, below the degree."""

    __slots__ = ("nvars", "width", "guard", "ones")

    def __init__(self, nvars, width):
        self.nvars = nvars
        self.width = width
        self.ones = ((1 << width * nvars) - 1) // ((1 << width) - 1)
        self.guard = self.ones << (width - 1)


def _series(nvars, width, gens):
    """HS(S/I) of I's packed minimal generators, sorted: the one entry of
    the pivot recursion.

    Recursion on a pivot variable x: counting monomials outside I splits
    along divisibility by x into K(I) = K(I + (x)) + t*K(I : x).  The pivot
    is a most frequent variable among the generators (ties to the smallest
    index); both branches strictly shrink the generators, so the recursion
    bottoms out at the split-free base cases.  It runs as one loop over a
    stack of (node, power of t), I + (x) on top so that nodes are visited
    as a depth-first recursion would, I : x one power of t higher; each
    base case adds its K-polynomial at its power into one running sum.  A
    node is (generators, linear count), as the module says; the root's
    linear generators, a prefix in degree order, go into its count.
    """
    if gens and not gens[0]:
        return HilbertSeries((), 0)  # the unit ideal, a zero quotient
    run = _Run(nvars, width)
    linear = bisect_left(gens, 2 << width * nvars)
    total = []
    stack = [(gens[linear:], linear, 0)]
    while stack:
        gens, linear, shift = stack.pop()
        got = _kpoly(gens, linear, run)
        if isinstance(got, tuple):  # (I + (x), I : x)
            stack += (*got[1], shift + 1), (*got[0], shift)
        else:
            total += [0] * (shift + len(got) - len(total))
            total[shift:shift + len(got)] = map(add, total[shift:], got)
    return HilbertSeries(total, nvars)


def _kpoly(gens, linear, run):
    """K-polynomial of the node (gens, linear): the quotient by the packed
    minimal generators gens, none linear, and by `linear` variables they do
    not hold.  At a split, the pair of children (I + (x), I : x) instead,
    each a node of the same form with its generators sorted."""
    guard, ones, width, nvars = run.guard, run.ones, run.width, run.nvars
    top = width * nvars
    # each generator's support, the low bit of each of its nonzero fields:
    # with no carry in their sum, the generators are pairwise coprime
    supports = [((g | guard) - ones) >> (width - 1) & ones for g in gens]
    if sum(supports).bit_count() == sum(map(int.bit_count, supports)):
        # (1 - t)^linear times the product of the (1 - t^deg g)
        num = [(-1) ** j * comb(linear, j) for j in range(linear + 1)]
        for g in gens:
            d = g >> top
            num += [0] * d
            num[d:] = map(sub, num[d:], num)
        return num
    # how many generators hold each variable: the supports summed, 255 at
    # a time so that no field's low byte carries, read off byte by byte
    step = width // 8
    counts = [0] * nvars
    for i in range(0, len(supports), 0xFF):
        low_bytes = sum(supports[i:i + 0xFF]).to_bytes(nvars * step, "big")
        counts = list(map(add, counts, low_bytes[step - 1::step]))
    pivot = counts.index(max(counts))
    field = ((1 << width) - 1) << width * (nvars - 1 - pivot)
    var = (1 << top) | (field & ones)

    # I + (x): the pivot-free generators, still minimal, and x one more
    # linear generator.  I : x: every g/x stays minimal, since g/x | h/x
    # would mean g | h and h | g/x would mean h | g, and subtraction keeps
    # them sorted; the linear ones, a prefix, join the count.  A pivot-free
    # h stops being minimal exactly when some g/x divides it: when h holds
    # a variable of a linear g/x, one test on the mask `lone`, or when a
    # g/x of degree >= 2 divides it, which is never h itself (else h | g).
    # So a quadric h stays, and a squarefree cubic h stays unless one of
    # its 2-subsets is the support of a quadric g/x, in the set `pairs`
    # (a quadric g/x of one variable, x_v^2, never divides h); any other h
    # is tested against every g/x of degree >= 2.
    free = [g for g in gens if not g & field]
    quotients = [g - var for g in gens if g & field]
    cut = bisect_left(quotients, 2 << top)
    lone = reduce(or_, quotients[:cut], 0) & ones
    heavy = quotients[cut:]
    pairs = {((q | guard) - ones) >> (width - 1) & ones
             for q in heavy[:bisect_left(heavy, 3 << top)]}
    kept = []
    for h, s in zip(gens, supports):
        if h & field or s & lone:
            continue
        degree = h >> top
        if degree == 3 == s.bit_count():
            low, high = s & -s, 1 << (s.bit_length() - 1)
            if not (s ^ low in pairs or s ^ high in pairs or low | high in pairs):
                kept.append(h)
        elif degree == 2 or not any(packed_divides(q, h, guard) for q in heavy):
            kept.append(h)
    return (free, linear + 1), (sorted(heavy + kept), linear + cut)


def krull_dimension(series):
    """Pole order of the reduced series = dimension of the quotient."""
    return series.pole


def multiplicity(series):
    """N(1) of the reduced series; undefined for the zero quotient."""
    if series.is_zero():
        raise ValueError("zero quotient has no multiplicity")
    return series.at_one()
