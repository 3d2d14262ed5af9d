"""Depth, regularity and graded Betti numbers of squarefree quotients over GF(p).

Both rest on strong collapses.  A vertex v whose link is a cone is
dominated, and deleting it is a strong collapse (Barmak-Minian, Strong
homotopy types, nerves and collapses, DCG 2012): star v and lk v are
nonempty cones, so Mayer-Vietoris gives the complex the H~ of its deletion
of v over any ring, every GF(p) alike.  A cone is acyclic, H~_{-1} too.

Every complex whose homology is taken is a small one of its own, kept as
its vertices and its minimal non-faces.  One with a cone point has none;
the rest lose their dominated vertices, and what is left is a cone, a
sphere, or is reduced whole (`_collapsed_ranks`).

Depth and regularity come from Hochster's formula for local cohomology,
from the homology of the link of each face (`depth_and_regularity`).
Links are walked as a tree: lk (F + u) is the link of u in lk F.  A coned
link is skipped with every face above it that misses its cone point.

The full Betti table, from his formula for Tor (`betti_table`), serves the
API and cross-checks the links: beta_{i,sigma}(S/I) is the rank of
H~_{|sigma|-i-1} of the restriction to sigma.  That is a cone unless sigma
is a union of generator supports, so only those unions are enumerated, and
a sigma with a dominated vertex v has the H~ of sigma - v.  The rest are
restricted (`_restriction`) and go the way of the links.

Boundary ranks come from sparse column reduction over GF(p) on Python
ints, so they are exact for every prime.  The maps are reduced from the
top dimension down, and a face that was already a pivot row of the map
above gets no column: it would reduce to zero (the "clearing" of
Chen-Kerber, Persistent homology computation with a twist, EuroCG 2011).
"""

from __future__ import annotations

from bisect import bisect_left
from functools import reduce
from operator import or_

from .errors import CapExceededError
from .rings import DEFAULT_PRIME, is_prime, iter_bits, minimal_masks, mono_mask

HOCHSTER_CAP = 18


class SimplicialComplex:
    """Stanley-Reisner complex of a squarefree monomial ideal.

    Faces are exactly the subsets whose squarefree monomial avoids every
    generator, so membership is a handful of bitmask tests and the face
    list is never materialized globally.
    """

    __slots__ = ("nvars", "supports")

    def __init__(self, nvars, supports):
        self.nvars = nvars
        self.supports = tuple(sorted(set(supports)))
        for s in self.supports:
            if s == 0:
                raise ValueError("unit ideal has no Stanley-Reisner complex")
            if not 0 < s < 1 << nvars:
                raise ValueError(f"support {s:#b} is not a set of vertices "
                                 f"in 0..{nvars - 1}")

    @classmethod
    def of_ideal(cls, ideal):
        if not ideal.is_squarefree():
            raise ValueError("Stanley-Reisner complex requires a squarefree ideal")
        return cls(ideal.nvars, [mono_mask(g) for g in ideal.gens])

    def faces_by_size(self, sigma_mask):
        """Faces of the restriction to sigma, grouped by cardinality.

        Level by level, each face of size k, in lex order, is extended by
        every vertex of sigma above its top that completes no support, so
        each group is in lex order.  Adding v can only complete a support
        topped by v: any other support inside the new face was inside the
        parent.
        """
        verts = [v for v in range(self.nvars) if sigma_mask >> v & 1]
        # rests[v]: the supports inside sigma topped by v, with v removed
        rests = [[] for _ in range(self.nvars)]
        for s in self.supports:
            if s & ~sigma_mask == 0:
                top = s.bit_length() - 1
                rests[top].append(s ^ 1 << top)
        grouped = [[0]]
        while True:
            level = [face | 1 << v for face in grouped[-1]
                     for v in verts[bisect_left(verts, face.bit_length()):]
                     if all(rest & ~face for rest in rests[v])]
            if not level:
                return grouped
            grouped.append(level)


def _column(face, index, p):
    """The boundary of a face as {row: coeff mod p}, its faces numbered by
    index, where the j-th lowest vertex carries (-1)^j."""
    return {index[face ^ 1 << v]: p - 1 if j & 1 else 1
            for j, v in enumerate(iter_bits(face))}


def _pivot_rows(columns, p):
    """Reduce sparse columns left to right over GF(p); return the pivot rows.

    A column's pivot is its largest row index; a column whose pivot is
    taken has that earlier column subtracted until its pivot is free or it
    vanishes.  There is one pivot per rank, so the rank is the count.  The
    columns are changed in place.
    """
    pivots = {}
    for col in columns:
        while col:
            low = max(col)
            prior = pivots.get(low)
            if prior is None:
                lead = col[low]
                if lead != 1:
                    inv = pow(lead, -1, p)
                    col = {r: c * inv % p for r, c in col.items()}
                pivots[low] = col
                break
            f = col[low]
            for r, c in prior.items():
                x = (col.get(r, 0) - f * c) % p
                if x:
                    col[r] = x
                else:
                    del col[r]
    return pivots.keys()


def _homology_ranks(complex_, mask, p):
    """Ranks of H~_k, k = -1 .. d, of the restriction to mask: at face size
    c, the count of size-c faces minus the ranks of the boundary maps on
    either side, reduced from the top size down with clearing."""
    grouped = complex_.faces_by_size(mask)
    top = len(grouped)
    boundary = [0] * (top + 1)  # boundary[c]: rank of the map out of size c
    cleared = ()  # positions in grouped[c] of the pivot rows of the map above
    for c in range(top - 1, 1, -1):
        index = {face: i for i, face in enumerate(grouped[c - 1])}
        cleared = _pivot_rows([_column(face, index, p)
                               for i, face in enumerate(grouped[c]) if i not in cleared], p)
        boundary[c] = len(cleared)
    # the vertices, if any, map onto the empty face
    boundary[1] = int(top > 1)
    return [len(grouped[c]) - boundary[c] - boundary[c + 1] for c in range(top)]


def _check_prime(p):
    if not is_prime(p):
        raise ValueError(f"{p} is not a prime")


def reduced_homology_ranks(complex_, sigma, p=DEFAULT_PRIME):
    """Ranks of H~_k(restriction to sigma; GF(p)) for k = -1 .. |sigma|-1."""
    _check_prime(p)
    mask = 0
    for v in sigma:
        if not 0 <= v < complex_.nvars:
            raise ValueError(f"vertex {v} is not in 0..{complex_.nvars - 1}")
        mask |= 1 << v
    ranks = _homology_ranks(complex_, mask, p)
    want = bin(mask).count("1") + 1
    return ranks + [0] * (want - len(ranks))


class BettiTable:
    """Nonzero graded Betti numbers beta_{i,sigma}(S/I) over one prime.

    sigma keys are frozensets of 0-based variable indices; serialized rows
    report them 1-based for consistency with the x[i,j] convention.
    """

    __slots__ = ("nvars", "entries")

    def __init__(self, nvars, entries):
        self.nvars = nvars
        self.entries = {k: v for k, v in entries.items() if v}

    def rank(self, i, sigma):
        return self.entries.get((i, frozenset(sigma)), 0)

    def projective_dimension(self):
        return max(i for i, _ in self.entries)

    def depth(self):
        return self.nvars - self.projective_dimension()

    def regularity(self):
        return max(len(sigma) - i for i, sigma in self.entries)

    def rows(self):
        out = []
        for (i, sigma), rank in self.entries.items():
            out.append({"i": i, "sigma": sorted(v + 1 for v in sigma), "rank": rank})
        out.sort(key=lambda row: (row["i"], row["sigma"]))
        return out

    def __repr__(self):
        return (f"<BettiTable pd={self.projective_dimension()} "
                f"depth={self.depth()} reg={self.regularity()}>")


def _checked_complex(name, ideal, p, cap):
    """The Stanley-Reisner complex of the ideal, once the inputs pass,
    with the ideal's generators walked for squarefreeness once."""
    if not ideal.is_squarefree():
        raise ValueError(f"{name} requires a squarefree monomial ideal")
    if ideal.is_unit():
        raise ValueError(f"{name} requires a proper ideal")
    _check_prime(p)
    if ideal.nvars > cap:
        raise CapExceededError(
            f"{ideal.nvars} variables exceeds the Hochster cap of {cap}")
    return SimplicialComplex(ideal.nvars, map(mono_mask, ideal.gens))


def betti_table(ideal, p=DEFAULT_PRIME, cap=15):
    """Full Betti table of S/I for a squarefree monomial ideal I.

    Only sigma that are unions of generator supports can carry homology
    (anything else restricts to a cone), so the enumeration closes the
    support set under unions instead of walking all 2^n subsets.  A sigma
    with a dominated vertex v takes the ranks of sigma - v, done before it,
    or none when sigma - v is no union, so a nonempty cone.
    """
    supports = _checked_complex("betti_table", ideal, p, cap).supports

    closed = {0}
    for s in supports:
        closed |= {mask | s for mask in closed}

    # every sigma is a submask of the union of all supports, the largest
    dominations = _dominations(max(closed), supports)
    homology = {}  # the nonzero ranks of the sigma done so far
    entries = {}
    for mask in sorted(closed):  # each sigma after its submasks
        v = _dominated(dominations, mask)
        if v:
            ranks = homology.get(mask ^ v, ())
        else:
            verts, nonfaces = _restriction(supports, mask)
            ranks = () if _apexes(verts, nonfaces) else _collapsed_ranks(verts, nonfaces, p)
        if any(ranks):
            homology[mask] = ranks
            sigma = frozenset(iter_bits(mask))
            # ranks[c] is that of H~_{c-1}, which sits in beta_{|sigma|-c}
            for c, rank in enumerate(ranks):
                if rank:
                    entries[(len(sigma) - c, sigma)] = rank
    return BettiTable(ideal.nvars, entries)


def _dominations(verts, supports):
    """(v's bit, {v, w}, blockers: the minimal non-faces of lk v through w),
    for the v and w of the restriction to verts with {v, w} a face.

    The link of v in the restriction to sigma is lk v restricted to sigma, so
    w is a cone point of it exactly when {v, w} but no blocker lies in sigma.
    """
    verts, nonfaces = _restriction(supports, verts)
    out = []
    for v in iter_bits(verts):
        link, blockers = _link(verts, nonfaces, v)
        out += [(1 << v, 1 << v | 1 << w, [t for t in blockers if t >> w & 1])
                for w in iter_bits(link)]
    return out


def _dominated(dominations, sigma):
    """The bit of a vertex whose link in the restriction to sigma is a cone, or 0."""
    out = ~sigma
    return next((bit for bit, pair, blockers in dominations
                 if not pair & out and all(s & out for s in blockers)), 0)


def _link(verts, nonfaces, u):
    """lk u in the complex on `verts` with minimal non-faces `nonfaces`: the
    v with {u, v} a face, and the minimal T - u among them.  Only a T - u
    with u in T can lie in another T', and then only with u not in T'."""
    bit = 1 << u
    through = [t ^ bit for t in nonfaces if t & bit]
    # a T = {u, v} takes v out, and u and v keep every other T out
    verts &= ~bit & ~sum(t for t in through if not t & (t - 1))
    through = [t for t in through if not t & ~verts]
    rest = [t for t in nonfaces if not t & ~verts]
    if through:
        rest = [t for t in rest if all(r & ~t for r in through)]
    return verts, through + rest


def _apexes(verts, nonfaces):
    """The cone points of a complex: the vertices in no minimal non-face."""
    return verts & ~reduce(or_, nonfaces, 0)


def _restriction(supports, mask):
    """The restriction to mask as (V, L): V the v in mask with {v} a face,
    L the minimal non-faces, the minimal supports inside V (`minimal_masks`)."""
    minimal = minimal_masks(s for s in supports if not s & ~mask)
    # a vertex whose singleton is a support is in no face and no other minimal one
    verts = mask & ~sum(s for s in minimal if not s & (s - 1))
    return verts, [s for s in minimal if s & (s - 1)]


def _non_coned_faces(complex_, wanted):
    """Yield (F, V', L) for the faces F of the union of the supports with no
    cone point in lk F, its vertices V' and minimal non-faces L, depth-first
    over the lex tree: F + u for u in V' above max F are F's children.

    If a is a cone point of lk F = a * K, a face G above F that misses a has
    the cone link a * lk_K(G - F).  So F goes with its subtree when its
    smallest a lies below max F, and else F grows only by u <= a.  F is
    yielded only when wanted(|F|, |V'|), and its subtree entered only when
    wanted(|F| + 1, |V'| - 1).
    """
    supports = complex_.supports
    stack = [(0, *_restriction(supports, reduce(or_, supports, 0)))]
    while stack:
        face, verts, nonfaces = stack.pop()
        low = face.bit_length()
        grow = verts >> low << low
        apex = _apexes(verts, nonfaces)
        if apex:
            apex &= -apex  # the smallest cone point a
            if apex >> low == 0:
                continue  # a < max F
            grow &= (apex << 1) - 1
        elif wanted(face.bit_count(), verts.bit_count()):
            yield face, verts, nonfaces
        if grow and wanted(face.bit_count() + 1, verts.bit_count() - 1):
            for u in reversed(list(iter_bits(grow))):
                stack.append((face | 1 << u, *_link(verts, nonfaces, u)))


def _collapsed_ranks(verts, nonfaces, p):
    """Ranks of H~_k, k = -1 .. d, of a complex with no cone point, after
    one pass of collapses.  If its non-faces are disjoint, so cover it, it
    is the join of their boundaries, a sphere of dimension |V| - |L| - 1."""
    for v in iter_bits(verts):
        if sum(map(int.bit_count, nonfaces)) == verts.bit_count():
            break
        if _apexes(*_link(verts, nonfaces, v)):
            verts ^= 1 << v
            nonfaces = [t for t in nonfaces if not t >> v & 1]
            if _apexes(verts, nonfaces):
                return []
    size = verts.bit_count()
    if sum(map(int.bit_count, nonfaces)) == size:
        return [0] * (size - len(nonfaces)) + [1]
    complex_ = SimplicialComplex(verts.bit_length(), nonfaces)
    return _homology_ranks(complex_, verts, p)


def depth_and_regularity(ideal, p=DEFAULT_PRIME, cap=HOCHSTER_CAP):
    """(depth, reg) of S/I for a squarefree monomial ideal I, from links.

    Hochster's formula for local cohomology, H^i_m(k[Δ]) ≅ ⊕_F
    H~_{i-|F|-1}(lk F) with the summand of F in degree -|F| and below
    (Stanley, Combinatorics and Commutative Algebra, Thm II.4.1), gives
    depth = min(|F| + 1 + k) and reg = max(k + 1) over the nonzero
    H~_k(lk F).  The vertices in no support are cone points of every link
    that misses them, so only the faces of the union of the supports count,
    and those vertices shift depth by their number alone.  Of those, the
    faces with no coned link come from `_non_coned_faces` (recursive links,
    pruned by their cone points), each link |V'| vertices wide, reduced by
    `_collapsed_ranks` only while it can still lower depth or raise reg.
    """
    complex_ = _checked_complex("depth_and_regularity", ideal, p, cap)
    cone = ideal.nvars - reduce(or_, complex_.supports, 0).bit_count()
    depth, reg = ideal.nvars + 1, -1

    def wanted(size, width):
        return cone + size < depth or width > reg

    for face, verts, nonfaces in _non_coned_faces(complex_, wanted):
        # ranks[c] is that of H~_{c-1}(lk F), which sits in H^{|F|+c}_m
        for c, rank in enumerate(_collapsed_ranks(verts, nonfaces, p)):
            if rank:
                depth = min(depth, cone + face.bit_count() + c)
                reg = max(reg, c)
    return depth, reg
