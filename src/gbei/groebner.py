"""Buchberger's algorithm and ideal arithmetic built on it.

Inside this module a monomial is one int, packed by `_Packing` for a term
order: one 8-bit field per variable, the order's most significant variable
in the top field, and the top bit of every field a guard that stays clear.
Comparing the ints compares monomials in the order, so `max`, sorting and
the S-pair heap need no key.  A product is `+`, checked against the guard
bits (an exponent past MAX_EXPONENT raises ValueError, never wraps), a
quotient is `-`, and divisibility and lcm are a few bitwise operations.
Polys and every public signature keep exponent tuples: `_table`,
`normal_form`, `spolynomial` and `Ideal.contains` pack, and `_poly` unpacks.

Division runs against a reducer table of (lm, monic tail, top) entries,
the only form of the basis while `buchberger` runs; `_reduce_basis` alone
turns a table back into Polys.  All callers share the one division and
S-pair code.  Pair bookkeeping is on bitsets over table positions: each
entry has a bitset of its pending partners, each variable one of the
entries whose lm holds it.  The chain criterion tests for divisibility
only the entries whose lm support lies inside the pair's lcm support and
whose pairs with both ends are done.  Pairs with coprime leading terms,
and pairs of two monomials, are never queued and count as done: their
S-polynomials reduce to zero.  `Ideal.plus` opens its table with a
reduced basis whose inner pairs count as done the same way, since each
already reduces to zero by that basis.

Everything here is exact over GF(p) and bit-for-bit deterministic: the
S-pair queue is a heap keyed by (lcm degree, packed lcm, i, j), the
divisor search always takes the first match in table order, and bases
are returned reduced, monic, and sorted by descending leading term,
which makes them unique for the ideal and order.
"""

from __future__ import annotations

import heapq

from .hilbert import MonomialIdeal
from .rings import Poly, Ring, TermOrder, packed_divides

# One byte per variable, whose top bit is the guard.
MAX_EXPONENT = 0x7F


def _overflow():
    return ValueError(f"exponent above {MAX_EXPONENT}, the most a packed "
                      f"monomial holds per variable")


class _Packing:
    """Exponent tuples <-> ints for one term order.

    Variable ``order.perm[r]`` takes byte r of the big-endian int, so the
    int order is the term order.  `guard` holds the top bit of every field.
    """

    __slots__ = ("perm", "rank", "guard")

    def __init__(self, order):
        self.perm = order.perm
        self.rank = sorted(range(len(self.perm)), key=self.perm.__getitem__)
        self.guard = int.from_bytes(b"\x80" * len(self.perm), "big")

    def pack(self, mono):
        try:
            x = int.from_bytes(bytes(map(mono.__getitem__, self.perm)), "big")
        except ValueError:
            x = self.guard
        if x & self.guard:
            raise _overflow()
        return x

    def pack_terms(self, terms):
        return {self.pack(m): c for m, c in terms.items()}

    def unpack(self, x):
        return tuple(map(x.to_bytes(len(self.perm), "big").__getitem__, self.rank))

    def degree(self, x):
        """Total degree, exact for every exponent the guard admits."""
        return sum(x.to_bytes(len(self.perm), "big"))

    def support(self, x):
        """The guard bits of the fields where x is nonzero."""
        return ((x | self.guard) - (self.guard >> 7)) & self.guard


def _lcm(a, b, guard):
    """Fieldwise max of two packed monomials."""
    ge = ((a | guard) - b) & guard  # the guard bit of each field where a >= b
    low = ge - (ge >> 7)  # those fields' exponent bits
    return b ^ ((a ^ b) & low)


def _reducer(terms, p, guard):
    """Reducer table entry (lm, monic tail, top) of nonzero packed terms.

    top is the fieldwise max of the tail's monomials: a shift of the entry
    overflows no field exactly when top + shift sets no guard bit.
    """
    lm = max(terms)
    inv = pow(terms[lm], -1, p)
    tail = {}
    top = 0
    for m, c in terms.items():
        if m != lm:
            tail[m] = c * inv % p
            top = _lcm(top, m, guard)
    return lm, tail, top


def _table(polys, packing):
    """Reducer table of the nonzero polys, in list order."""
    return [_reducer(packing.pack_terms(g.terms), g.ring.prime, packing.guard)
            for g in polys if g]


def _poly(ring, packing, terms):
    """The Poly of packed terms."""
    return Poly(ring, {packing.unpack(m): c for m, c in terms.items()})


def _submul(work, coeff, shift, entry, guard, p):
    """work -= coeff * shift * (entry's tail), in place."""
    _, tail, top = entry
    if (top + shift) & guard:
        raise _overflow()
    for m, c in tail.items():
        target = m + shift
        c = (work.get(target, 0) - coeff * c) % p
        if c:
            work[target] = c
        elif target in work:
            del work[target]


def _reduce(terms, table, guard, p):
    """Remainder terms, in descending order, of division by a reducer table."""
    work = dict(terms)
    remainder = {}
    while work:
        mono = max(work)
        coeff = work.pop(mono)
        probe = mono | guard
        for entry in table:
            if (probe - entry[0]) & guard == guard:
                _submul(work, coeff, mono - entry[0], entry, guard, p)
                break
        else:
            remainder[mono] = coeff
    return remainder


def _spair(a, b, guard, p):
    """S-polynomial terms of two reducer entries: both tails lifted to the
    lcm of the lms, b's subtracted from a's (the lms themselves cancel)."""
    lcm = _lcm(a[0], b[0], guard)
    out = {}
    _submul(out, p - 1, lcm - a[0], a, guard, p)
    _submul(out, 1, lcm - b[0], b, guard, p)
    return out


def normal_form(f, basis, order):
    """Remainder of f under multivariate division by basis.

    Deterministic: the highest reducible term is always reduced next, by
    the first basis element (in list order) whose leading term divides it.
    """
    for g in basis:
        if g.ring != f.ring:
            raise ValueError("ring mismatch")
    packing = _Packing(order)
    remainder = _reduce(packing.pack_terms(f.terms), _table(basis, packing),
                        packing.guard, f.ring.prime)
    return _poly(f.ring, packing, remainder)


def spolynomial(f, g, order):
    """S-polynomial: both leading terms lifted to their lcm and cancelled."""
    if f.ring != g.ring:
        raise ValueError("ring mismatch")
    if not (f and g):
        raise ValueError("zero polynomial has no leading term")
    packing = _Packing(order)
    a, b = _table((f, g), packing)
    return _poly(f.ring, packing, _spair(a, b, packing.guard, f.ring.prime))


def buchberger(gens, order):
    """The reduced Groebner basis of the ideal generated by gens.

    The generators must share one ring (else ValueError).  The basis is a
    reducer table: each S-pair is formed from two entries by `_spair` and
    reduced by the whole table, and a nonzero remainder joins it.  Pairs
    that are coprime or of two monomials are never queued; the rest are
    processed in (lcm degree, lcm, i, j) heap order, and the chain
    criterion drops a pair whose lcm a third leading term divides once
    both companion pairs are done.
    """
    if len({g.ring for g in gens}) > 1:
        raise ValueError("ring mismatch")
    packing = _Packing(order)
    table = _table(gens, packing)
    return _complete(table, 0, gens[0].ring, packing) if table else []


def _complete(table, done, ring, packing):
    """The reduced basis of the ideal of a reducer table's polys, grown in
    place.  Pairs among the first `done` entries, which must form a
    Groebner basis, count as done and are never queued."""
    p = ring.prime
    guard = packing.guard
    heap = []
    supports = []  # per entry: packing.support of its lm
    partners = []  # per entry: bitset of the entries it has a pending pair with
    holders = {}   # per variable's guard bit: bitset of the entries whose lm holds it

    def add(j):
        lm, tail, _ = table[j]
        support = packing.support(lm)
        supports.append(support)
        partners.append(0)
        bit = 1 << j
        rest = support
        while rest:
            low = rest & -rest
            holders[low] = holders.get(low, 0) | bit
            rest ^= low
        for i in range(j if j >= done else 0):
            if supports[i] & support and (tail or table[i][1]):
                lcm = _lcm(table[i][0], lm, guard)
                heapq.heappush(heap, (packing.degree(lcm), lcm, i, j))
                partners[i] |= bit
                partners[j] |= 1 << i

    for j in range(len(table)):
        add(j)

    while heap:
        _, lcm, i, j = heapq.heappop(heap)
        partners[i] ^= 1 << j
        partners[j] ^= 1 << i
        # entries whose lm leaves the lcm's support, or whose pair with i
        # or j is pending, cannot make the chain
        blocked = partners[i] | partners[j] | 1 << i | 1 << j
        outside = guard & ~(supports[i] | supports[j])
        while outside:
            low = outside & -outside
            blocked |= holders.get(low, 0)
            outside ^= low
        candidates = ~blocked & ((1 << len(table)) - 1)
        probe = lcm | guard
        while candidates:
            low = candidates & -candidates
            if (probe - table[low.bit_length() - 1][0]) & guard == guard:
                break
            candidates ^= low
        else:
            remainder = _reduce(_spair(table[i], table[j], guard, p), table, guard, p)
            if remainder:
                table.append(_reducer(remainder, p, guard))
                add(len(table) - 1)

    return _reduce_basis(table, ring, packing)


def _reduce_basis(table, ring, packing):
    """The reduced basis, by descending lm, as Polys, from a basis's table.

    Tails are reduced by the whole minimal table: an element's leading
    term is above its tail terms, so it never divides one of them.
    """
    guard = packing.guard
    minimal = []
    for entry in sorted(table, key=lambda e: e[0]):
        if not any(packed_divides(h[0], entry[0], guard) for h in minimal):
            minimal.append(entry)
    return [_poly(ring, packing, {lm: 1, **_reduce(tail, minimal, guard, ring.prime)})
            for lm, tail, _ in reversed(minimal)]


def initial_ideal(gb, order, nvars=None):
    """Leading-term ideal of a reduced basis, as a MonomialIdeal."""
    if nvars is None:
        if not gb:
            raise ValueError("cannot infer variable count from an empty basis")
        nvars = gb[0].ring.nvars
    return MonomialIdeal(nvars, [g.leading_monomial(order) for g in gb])


class Ideal:
    """Finitely generated ideal with per-order caching of reduced bases."""

    def __init__(self, ring, gens):
        self.ring = ring
        self.gens = tuple(gens)
        for g in self.gens:
            if g.ring != ring:
                raise ValueError("ring mismatch")
        self._gb = {}
        self._reducers = {}

    def default_order(self):
        return TermOrder.lex_row_major(self.ring)

    def groebner_basis(self, order=None):
        order = order or self.default_order()
        if order.perm not in self._gb:
            self._gb[order.perm] = buchberger(list(self.gens), order)
        return self._gb[order.perm]

    def initial_ideal(self, order=None):
        order = order or self.default_order()
        return initial_ideal(self.groebner_basis(order), order, self.ring.nvars)

    def plus(self, gens):
        """self + (gens), with its default-order basis grown from self's.

        self's reduced basis opens the reducer table, and the pairs inside
        it count as done: each already reduces to zero by that basis, part
        of the table, so the chain criterion may use them too.
        """
        gens = list(gens)
        total = Ideal(self.ring, self.gens + tuple(gens))
        order = self.default_order()
        packing = _Packing(order)
        basis = self.groebner_basis(order)
        total._gb[order.perm] = _complete(_table(basis + gens, packing),
                                          len(basis), self.ring, packing)
        return total

    def contains(self, f, order=None):
        """Membership by division by the basis's reducer table, built once
        per order."""
        if f.ring != self.ring:
            raise ValueError("ring mismatch")
        order = order or self.default_order()
        if order.perm not in self._reducers:
            packing = _Packing(order)
            self._reducers[order.perm] = (
                packing, _table(self.groebner_basis(order), packing))
        packing, table = self._reducers[order.perm]
        return not _reduce(packing.pack_terms(f.terms), table, packing.guard,
                           self.ring.prime)

    def __repr__(self):
        return f"Ideal({self.ring.rows}x{self.ring.cols}, {len(self.gens)} gens)"


def ideals_equal(I, J, order=None):
    """Equality test via uniqueness of the reduced Groebner basis."""
    if I.ring != J.ring:
        raise ValueError("ring mismatch")
    order = order or I.default_order()
    return I.groebner_basis(order) == J.groebner_basis(order)


def intersect(I, J):
    """I ∩ J by elimination: adjoin t, form t·I + (1-t)·J, drop t.

    The lifted generators live in a one-row ring on nvars + 1 variables
    whose first variable x[1,1] plays t and whose other variables are the
    grid's, in order.  Lex-row-major there ranks t above the whole grid, a
    block elimination order, so the t-free part of the reduced basis is
    the reduced basis of the intersection, which the returned ideal caches.
    """
    if I.ring != J.ring:
        raise ValueError("ring mismatch")
    ring = I.ring
    ext = Ring(1, ring.nvars + 1, ring.prime)
    t = ext.variable(1, 1)
    s = ext.one() - t

    def lift(f):
        return Poly(ext, {(0,) + m: c for m, c in f.terms.items()})

    gens = [t * lift(g) for g in I.gens if g]
    gens += [s * lift(g) for g in J.gens if g]
    gb = buchberger(gens, TermOrder.lex_row_major(ext))
    kept = [Poly(ring, {m[1:]: c for m, c in g.terms.items()})
            for g in gb if all(m[0] == 0 for m in g.terms)]

    result = Ideal(ring, kept)
    result._gb[TermOrder.lex_row_major(ring).perm] = kept
    return result
