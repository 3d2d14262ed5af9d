"""Buchberger's algorithm and ideal arithmetic built on it.

Division runs against a reducer table of (lm support mask, lm, monic
terms) entries, the only form of the basis while `buchberger` runs;
`_reduce_basis` alone turns a table back into Polys.  `normal_form` and
`spolynomial` build entries from Polys, `Ideal.contains` divides by a table
kept with the basis of each order, and all share the one division and
S-pair code.  Every divisibility test first checks that the divisor's
support mask lies inside the monomial's, a prefilter only, since leading
terms need not be squarefree.  Pairs with coprime leading terms are never
queued: their S-polynomials reduce to zero.

Everything here is exact over GF(p) and bit-for-bit deterministic: the
S-pair queue is a heap keyed by (lcm degree, lcm order key, i, j), the
divisor search always takes the first match in table order, and bases
are returned reduced, monic, and sorted by descending leading term,
which makes them unique for the ideal and order.
"""

from __future__ import annotations

import heapq

from .hilbert import MonomialIdeal
from .rings import (Poly, Ring, TermOrder, mono_degree, mono_div,
                    mono_divides, mono_lcm, mono_mask, mono_mul)


def _reducer(terms, lm, p):
    """Reducer table entry (lm mask, lm, monic terms) of nonzero terms."""
    if terms[lm] != 1:
        inv = pow(terms[lm], -1, p)
        terms = {m: c * inv % p for m, c in terms.items()}
    return mono_mask(lm), lm, terms


def _table(polys, order):
    """Reducer table of the nonzero polys, in list order."""
    return [_reducer(g.terms, g.leading_monomial(order), g.ring.prime)
            for g in polys if g]


def _submul(work, coeff, shift, entry, p):
    """work -= coeff * shift * (entry's terms but its lm), in place."""
    _, lm, terms = entry
    for m, c in terms.items():
        if m != lm:
            target = mono_mul(m, shift)
            c = (work.get(target, 0) - coeff * c) % p
            if c:
                work[target] = c
            elif target in work:
                del work[target]


def _reduce(terms, reducers, key, p):
    """Remainder terms, in descending order, of division by a reducer table."""
    work = dict(terms)
    remainder = {}
    while work:
        mono = max(work, key=key)
        coeff = work.pop(mono)
        outside = ~mono_mask(mono)
        for entry in reducers:
            if entry[0] & outside == 0 and mono_divides(entry[1], mono):
                _submul(work, coeff, mono_div(mono, entry[1]), entry, p)
                break
        else:
            remainder[mono] = coeff
    return remainder


def _spair(a, b, p):
    """S-polynomial terms of two reducer entries: both tails lifted to the
    lcm of the lms, b's subtracted from a's (the lms themselves cancel)."""
    lcm = mono_lcm(a[1], b[1])
    out = {}
    _submul(out, p - 1, mono_div(lcm, a[1]), a, p)
    _submul(out, 1, mono_div(lcm, b[1]), b, p)
    return out


def normal_form(f, basis, order):
    """Remainder of f under multivariate division by basis.

    Deterministic: the highest reducible term is always reduced next, by
    the first basis element (in list order) whose leading term divides it.
    """
    for g in basis:
        if g.ring != f.ring:
            raise ValueError("ring mismatch")
    return Poly(f.ring, _reduce(f.terms, _table(basis, order), order.key, f.ring.prime))


def spolynomial(f, g, order):
    """S-polynomial: both leading terms lifted to their lcm and cancelled."""
    if f.ring != g.ring:
        raise ValueError("ring mismatch")
    p = f.ring.prime
    a, b = (_reducer(h.terms, h.leading_monomial(order), p) for h in (f, g))
    return Poly(f.ring, _spair(a, b, p))


def buchberger(gens, order):
    """The reduced Groebner basis of the ideal generated by gens.

    The generators must share one ring (else ValueError).  The basis is a
    reducer table: each S-pair is formed from two entries by `_spair` and
    reduced by the whole table, and a remainder joins with its first key
    as lm (division emits terms in descending order).  Pairs with coprime
    leading terms are never queued; the rest are processed in (lcm degree,
    lcm key, i, j) heap order, and the chain criterion drops a pair whose
    lcm a third leading term divides once both companion pairs are done.
    """
    if len({g.ring for g in gens}) > 1:
        raise ValueError("ring mismatch")
    reducers = _table(gens, order)
    if not reducers:
        return []
    ring = gens[0].ring
    p = ring.prime
    key = order.key
    heap = []
    pending = set()

    def push_pairs(j):
        mask_j, lm_j, _ = reducers[j]
        for i in range(j):
            mask_i, lm_i, _ = reducers[i]
            if mask_i & mask_j:
                lcm = mono_lcm(lm_i, lm_j)
                heapq.heappush(heap, (mono_degree(lcm), key(lcm), i, j, lcm))
                pending.add((i, j))

    for j in range(len(reducers)):
        push_pairs(j)

    while heap:
        _, _, i, j, lcm = heapq.heappop(heap)
        pending.discard((i, j))
        outside = ~(reducers[i][0] | reducers[j][0])
        for k, (lm_mask, lm, _) in enumerate(reducers):
            if (lm_mask & outside == 0 and k != i and k != j
                    and mono_divides(lm, lcm)
                    and (min(i, k), max(i, k)) not in pending
                    and (min(j, k), max(j, k)) not in pending):
                break
        else:
            remainder = _reduce(_spair(reducers[i], reducers[j], p), reducers, key, p)
            if remainder:
                reducers.append(_reducer(remainder, next(iter(remainder)), p))
                push_pairs(len(reducers) - 1)

    return _reduce_basis(reducers, ring, order)


def _reduce_basis(table, ring, order):
    """The reduced basis, by descending lm, as Polys, from a basis's table.

    Tails are reduced by the whole minimal table: an element's leading
    term is above its tail terms, so it never divides one of them.
    """
    key = order.key
    minimal = []
    for entry in sorted(table, key=lambda e: key(e[1])):
        outside = ~entry[0]
        if not any(h_mask & outside == 0 and mono_divides(h, entry[1])
                   for h_mask, h, _ in minimal):
            minimal.append(entry)
    reduced = []
    for _, lm, terms in reversed(minimal):
        tail = {m: c for m, c in terms.items() if m != lm}
        reduced.append(Poly(ring, {lm: 1, **_reduce(tail, minimal, key, ring.prime)}))
    return reduced


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

    def contains(self, f, order=None):
        """Membership by division by the basis's reducer table, built once
        per order."""
        if f.ring != self.ring:
            raise ValueError("ring mismatch")
        order = order or self.default_order()
        if order.perm not in self._reducers:
            self._reducers[order.perm] = _table(self.groebner_basis(order), order)
        return not _reduce(f.terms, self._reducers[order.perm], order.key,
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
