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
the only form of a basis here: Polys are built only for `buchberger` and
`Ideal.groebner_basis` to return.  All callers share the one division
and S-pair code.  Pairs are chosen by the Gebauer-Moeller criteria, and
each queued pair is reduced unless a Hilbert floor, a series proven at
most HS(S/I), shows it is zero (see `_complete`).  A last pass keeps
the first entry per lm, and for a table of several degrees only the lms
that `MonomialIdeal` keeps as minimal generators, then reduces the
tails.  For generators of one degree, as in the bases `verify()` builds,
P_∅'s and J's fallback, distinct lms never divide each other, so only a
repeated lm is dropped there, and only a tail holding an lm is reduced.
`Ideal._basis` is the one place a basis is built: it keeps one (packing,
reduced table, series) per term order, which `contains` and `initial_ideal` read.

Everything here is exact over GF(p) and bit-for-bit deterministic: the
S-pair queue is a heap keyed by (lcm degree, packed lcm, i, j), the
divisor search always takes the first match in table order, and bases
are returned reduced, monic, and sorted by descending leading term,
which makes them unique for the ideal and order.
"""

from __future__ import annotations

import heapq
from operator import itemgetter, lt

from .hilbert import MonomialIdeal, packed_hilbert_series
from .rings import Poly, Ring, TermOrder, iter_bits

# One byte per variable, whose top bit is the guard.
MAX_EXPONENT = 0x7F


def _overflow():
    return ValueError(f"exponent outside 0..{MAX_EXPONENT}, the range a packed "
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
        except (TypeError, ValueError):  # not an integer, or outside 0..255
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
    reduced by the whole table, and a nonzero remainder joins it.  The
    pairs are chosen as each entry joins (see `_complete`) and reduced in
    (lcm degree, lcm, i, j) heap order.
    """
    return Ideal(gens[0].ring, gens).groebner_basis(order) if gens else []


def _complete(table, packing, p, floor=None):
    """The reduced basis, as a table by descending lm, of the ideal I of a
    reducer table's polys, and HS(S/I) if `floor` proved it, else None; the
    table grows in place.

    Pairs are chosen when an entry joins.  Entry j pairs with the earlier
    entries whose lm shares a variable with its lm, only the tailed ones
    when j is a monomial.  Taken by (lcm, i), a pair is queued only when
    no lcm already queued for j divides its lcm (Gebauer-Moeller's M, and
    F on equal lcms: the lowest i is kept), and every queued pair is
    reduced, or shown by the floor to reduce to zero.  Their (lcm degree,
    lcm, i) order queues the same pairs: an lcm a dividing an lcm b has
    a <= b and deg a <= deg b, so both orders take an lcm's divisors
    first, equal ones by i.  A pair (i, j) left out is covered by a queued
    (k, j) whose lcm divides its lcm and by (i, k), whose lcm is smaller or
    whose later end is k < j; so an induction on (lcm, later end) never
    cites the pair it covers.  Pairs never formed reduce to zero but cover
    none.  Once the heap is empty, the first entry per lm is kept, and
    over several degrees only the lms `MonomialIdeal` keeps as minimal
    generators; then the tails are reduced.

    For polys all of one degree that filter is not needed.  An lcm's
    degree is above both lms' unless one divides the other, and no earlier
    lm divides a remainder's, so pairs pop, and entries join, in degree
    order, each remainder reduced by every entry before it.  Monomials of
    one degree divide each other only when equal: the first entries are
    the minimal basis, and only a tail holding an lm is reduced.

    floor, if given, is a HilbertSeries proven <= HS(S/I) in every degree,
    for polys all of one degree (else ValueError), so the distinct lms stay
    minimal.  Pairs go by lcm degree: when degree d starts, the lms generate
    an L ⊆ in(I) with L_e = in(I)_e for e < d, and HS(S/L) >= HS(S/I) >=
    floor.  So HS(S/L) == floor proves L = in(I) and ends the loop, and as
    each nonzero remainder adds one lm of degree d, the pairs left in degree
    d are skipped once HF(S/L, d) = floor(d).  An entry's lcms lie above its
    degree, so under a floor its pairs wait for that degree to end and
    HS(S/L) to be taken; with none they are formed at once, the order an
    inhomogeneous table needs.  HF(S/L) below the floor raises ValueError."""
    guard = packing.guard
    heap = []
    # per variable's guard bit position: bitset of the entries whose lm holds it
    holders = dict.fromkeys(iter_bits(guard), 0)
    pending = []  # (entry, earlier entries sharing a variable), not yet paired

    def join(j):
        """Queue entry j with the earlier entries whose lm shares a variable with its lm."""
        sharing = 0
        for b in iter_bits(packing.support(table[j][0])):
            sharing |= holders[b]
            holders[b] |= 1 << j
        pending.append((j, sharing))

    def pair(j, sharing):
        lm, tail, _ = table[j]
        pairs = sorted((_lcm(table[i][0], lm, guard), i)
                       for i in iter_bits(sharing) if tail or table[i][1])
        queued = []  # the lcms queued for j
        for lcm, i in pairs:
            probe = lcm | guard
            for q in queued:
                if (probe - q) & guard == guard:
                    break
            else:
                queued.append(lcm)
                heapq.heappush(heap, (packing.degree(lcm), lcm, i, j))

    uniform = len({packing.degree(m) for lm, tail, _ in table for m in (lm, *tail)}) <= 1
    if floor is not None and not uniform:
        raise ValueError("a Hilbert floor needs homogeneous polynomials of one degree")
    for j in range(len(table)):
        join(j)
    # HS(S/L), the degree popped last and HF(S/L) - floor there: never 0 with no floor
    series, degree, room = None, 0, -1
    while heap or pending:
        if pending and (floor is None or not heap or heap[0][0] > degree):
            if floor is not None:
                series = packed_hilbert_series(
                    len(packing.perm), {lm for lm, _, _ in table})
                if series == floor:
                    break
            while pending:  # in any order: the heap orders the pairs
                pair(*pending.pop())
            continue
        d, _, i, j = heapq.heappop(heap)
        if floor is not None and d > degree:
            degree = d
            have, want = series.coefficients(d), floor.coefficients(d)
            if any(map(lt, have, want)):
                raise ValueError(f"the Hilbert floor exceeds HS(S/L) by degree {d}")
            room = have[-1] - want[-1]
        if not room:
            continue
        remainder = _reduce(_spair(table[i], table[j], guard, p), table, guard, p)
        if remainder:
            table.append(_reducer(remainder, p, guard))
            join(len(table) - 1)
            room -= 1

    # the minimal basis: the first entry per lm, then, over several degrees,
    # only the lms that are minimal generators of the ideal they span
    first = {}  # lm -> its first entry, in table order
    for entry in table:
        first.setdefault(entry[0], entry)
    minimal = list(first.values())
    if not uniform:
        kept = MonomialIdeal(len(packing.perm), map(packing.unpack, first)).gens
        minimal = [first[packing.pack(lm)] for lm in kept]
    # an element's lm is above its tail terms, so it never divides one of them
    minimal.sort(key=itemgetter(0), reverse=True)
    basis = []
    for entry in minimal:
        lm, tail, _ = entry
        reduced = (tail if uniform and first.keys().isdisjoint(tail)
                   else _reduce(tail, minimal, guard, p))
        basis.append(entry if reduced == tail else _reducer({lm: 1, **reduced}, p, guard))
    return basis, floor if series == floor else None


def initial_ideal(gb, order, nvars=None):
    """Leading-term ideal of a reduced basis, as a MonomialIdeal."""
    if nvars is None:
        if not gb:
            raise ValueError("cannot infer variable count from an empty basis")
        nvars = gb[0].ring.nvars
    return MonomialIdeal(nvars, [g.leading_monomial(order) for g in gb])


class Ideal:
    """Finitely generated ideal that keeps its reduced basis per term order
    as one (packing, table, series) triple, the table by descending lm and
    the series HS(S/I) if a Hilbert floor proved it, else None."""

    def __init__(self, ring, gens):
        self.ring = ring
        self.gens = tuple(gens)
        for g in self.gens:
            if g.ring != ring:
                raise ValueError("ring mismatch")
        self._bases = {}

    def default_order(self):
        return TermOrder.lex_row_major(self.ring)

    def _basis(self, order, floor=None):
        """(packing, reduced basis table, HS(S/I) if floor proved it) for order, once."""
        if order.perm not in self._bases:
            packing = _Packing(order)
            self._bases[order.perm] = packing, *_complete(
                _table(self.gens, packing), packing, self.ring.prime, floor)
        return self._bases[order.perm]

    def groebner_basis(self, order=None):
        packing, table, _ = self._basis(order or self.default_order())
        return [_poly(self.ring, packing, {lm: 1, **tail}) for lm, tail, _ in table]

    def initial_ideal(self, order=None):
        packing, table, _ = self._basis(order or self.default_order())
        return MonomialIdeal._of_minimal(  # a reduced basis's lms are minimal
            self.ring.nvars, [packing.unpack(lm) for lm, _, _ in table])

    def contains(self, f, order=None):
        """Membership by division by the basis table."""
        if f.ring != self.ring:
            raise ValueError("ring mismatch")
        packing, table, _ = self._basis(order or self.default_order())
        return not _reduce(packing.pack_terms(f.terms), table, packing.guard,
                           self.ring.prime)

    def __repr__(self):
        return f"Ideal({self.ring.rows}x{self.ring.cols}, {len(self.gens)} gens)"


def ideals_equal(I, J, order=None):
    """Equality test via uniqueness of the reduced Groebner basis."""
    if I.ring != J.ring:
        raise ValueError("ring mismatch")
    order = order or I.default_order()
    return I._basis(order)[1] == J._basis(order)[1]


def intersect(I, J):
    """I ∩ J by elimination: adjoin t, form t·I + (1-t)·J, drop t.

    The lifted generators live in a one-row ring on nvars + 1 variables
    whose first variable x[1,1] plays t and whose other variables are the
    grid's, in order.  Lex-row-major there ranks t above the whole grid, a
    block elimination order, so the t-free part of the reduced basis is
    the reduced basis of the intersection, which the returned ideal holds
    as its generators.
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
    return Ideal(ring, kept)
