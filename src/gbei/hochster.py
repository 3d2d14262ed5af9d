"""Depth, regularity and graded Betti numbers of squarefree quotients over GF(p).

Depth and regularity come from Hochster's formula for local cohomology,
which needs the homology of the link of each face of the Stanley-Reisner
complex (`depth_and_regularity`).  The full Betti table comes from his
formula for Tor (`betti_table`); it serves the API and cross-checks the
links, since both give depth and regularity.

For the table, beta_{i,sigma}(S/I) is the rank of the
reduced homology H~_{|sigma|-i-1} of the Stanley-Reisner complex of I
restricted to sigma.  A restriction contributes nothing whenever it is a
cone, and it is a cone exactly unless sigma is a union of generator
supports, so only those unions are ever enumerated.

All of them lie inside the union U of every support, and the faces of the
restriction to sigma are the faces of the restriction to U that miss every
vertex of U outside sigma.  So a Betti table enumerates faces once, into a
face table for U: the faces in (size, lex) order, each face's boundary
column over those global row indices, and for every vertex a bitset of the
faces that contain it.  The faces of one sigma are all faces minus the OR
of the bitsets of the vertices outside it, and each size is a bit range.
The same table gives the faces containing a face F, the AND of the bitsets
of F's vertices, and with it the link of F.

Boundary ranks come from sparse column reduction over GF(p) on Python
ints, so they are exact for every prime.  The maps are reduced from the
top dimension down, and a column whose face was already a pivot row of the
map above is skipped: it always reduces to zero (the "clearing" of
Chen-Kerber, Persistent homology computation with a twist, EuroCG 2011).
Every sigma and every link reduces the same shared columns, so the
reduction copies a column the first time it subtracts from it
(copy-on-write) and never changes the table.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate, compress

from .errors import CapExceededError
from .rings import DEFAULT_PRIME, is_prime, mono_mask

HOCHSTER_CAP = 15


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

    def is_face(self, mask):
        for s in self.supports:
            if s & ~mask == 0:
                return False
        return True

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


class _FaceTable:
    """Faces of the restriction to `mask`, cut down to any subset of it.

    faces[i] is the i-th face in (size, lex) order, and starts[c] is the
    index of the first face of size c.  columns[i] is the boundary of face i
    as {row index: coeff mod p}, where the j-th lowest vertex carries
    (-1)^j.  Bit i of holders[v] is set when face i contains vertex v.
    """

    __slots__ = ("mask", "p", "faces", "starts", "columns", "holders")

    def __init__(self, complex_, mask, p):
        grouped = complex_.faces_by_size(mask)
        faces = [face for group in grouped for face in group]
        index = {face: i for i, face in enumerate(faces)}
        self.mask = mask
        self.p = p
        self.faces = faces
        self.starts = [0, *accumulate(map(len, grouped))]
        self.columns = [{index[face ^ 1 << v]: p - 1 if j & 1 else 1
                         for j, v in enumerate(_set_bits(face))}
                        for face in faces]
        # one binary digit per face, the last face first
        self.holders = [
            int("".join("1" if face >> v & 1 else "0" for face in reversed(faces)), 2)
            if mask >> v & 1 else 0
            for v in range(complex_.nvars)]

    def homology_ranks(self, sigma_mask):
        """Reduced homology ranks of the restriction to a submask of the table.

        The list runs over k = -1 .. d for the largest face dimension d.
        """
        gone = 0
        for v in _set_bits(self.mask & ~sigma_mask):
            gone |= self.holders[v]
        return self.ranks(((1 << self.starts[-1]) - 1) & ~gone, relative=False)

    def star(self, i):
        """Bitset of the faces that contain face i (all faces for the empty one)."""
        star = (1 << self.starts[-1]) - 1
        for v in _set_bits(self.faces[i]):
            star &= self.holders[v]
        return star

    def ranks(self, present_bits, relative):
        """Homology ranks, by face size, of the chain complex on a set of faces.

        The faces are the set bits of present_bits, each with its shared
        boundary column.  With `relative`, rows outside the set are dropped:
        that is the quotient by the faces outside it, when those are a
        subcomplex.  The rank at size c is the count of size-c faces minus
        the ranks of the boundary maps on either side, and the maps are
        reduced from the top size down with clearing.
        """
        present = _set_bits(present_bits)
        top = bisect_right(self.starts, present[-1])
        cuts = [bisect_left(present, start) for start in self.starts[:top + 1]]
        columns = self.columns
        kept = set(present) if relative else None
        boundary = [0] * (top + 1)  # boundary[c]: rank of the map out of size c
        cleared = ()
        for c in range(top - 1, 1, -1):
            cols = [columns[i] for i in present[cuts[c]:cuts[c + 1]] if i not in cleared]
            if relative:
                cols = [{r: x for r, x in col.items() if r in kept} for col in cols]
            cleared = _pivot_rows(cols, self.p)
            boundary[c] = len(cleared)
        # the vertices, if any, map onto the empty face when it is present
        boundary[1] = int(top > 1 and present[0] == 0)
        return [cuts[c + 1] - cuts[c] - boundary[c] - boundary[c + 1]
                for c in range(top)]


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _set_bits(bits):
    """Positions of the set bits of a nonnegative int, ascending."""
    digits = bin(bits).encode()[:1:-1].translate(_BIT_BYTES)
    return list(compress(range(len(digits)), digits))


def _pivot_rows(columns, p):
    """Reduce sparse columns left to right over GF(p); return the pivot rows.

    A column's pivot is its largest row index; a column whose pivot is
    taken has that earlier column subtracted until its pivot is free or it
    vanishes.  There is one pivot per rank, so the rank is the count.  The
    columns may be shared: one is copied before it is first changed, and a
    stored pivot is never changed.
    """
    pivots = {}
    for col in columns:
        owned = False
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
            if not owned:
                col = dict(col)
                owned = True
            f = col[low]
            for r, c in prior.items():
                x = (col.get(r, 0) - f * c) % p
                if x:
                    col[r] = x
                else:
                    del col[r]
    return pivots.keys()


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
    ranks = _FaceTable(complex_, mask, p).homology_ranks(mask)
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


def _check_input(name, ideal, p, cap):
    if not ideal.is_squarefree():
        raise ValueError(f"{name} requires a squarefree monomial ideal")
    if ideal.is_unit():
        raise ValueError(f"{name} requires a proper ideal")
    _check_prime(p)
    if ideal.nvars > cap:
        raise CapExceededError(
            f"{ideal.nvars} variables exceeds the Hochster cap of {cap}")


def betti_table(ideal, p=DEFAULT_PRIME, cap=HOCHSTER_CAP):
    """Full Betti table of S/I for a squarefree monomial ideal I.

    Only sigma that are unions of generator supports can carry homology
    (anything else restricts to a cone), so the enumeration closes the
    support set under unions instead of walking all 2^n subsets.
    """
    _check_input("betti_table", ideal, p, cap)
    complex_ = SimplicialComplex.of_ideal(ideal)

    closed = {0}
    frontier = [0]
    while frontier:
        mask = frontier.pop()
        for s in complex_.supports:
            u = mask | s
            if u not in closed:
                closed.add(u)
                frontier.append(u)

    # every sigma is a submask of the union of all supports, the largest
    table = _FaceTable(complex_, max(closed), p)
    entries = {}
    for mask in sorted(closed):
        ranks = table.homology_ranks(mask)
        size = bin(mask).count("1")
        sigma = frozenset(_set_bits(mask))
        for c, rank in enumerate(ranks):
            if rank:
                k = c - 1
                entries[(size - 1 - k, sigma)] = rank
    return BettiTable(ideal.nvars, entries)


def depth_and_regularity(ideal, p=DEFAULT_PRIME, cap=HOCHSTER_CAP):
    """(depth, reg) of S/I for a squarefree monomial ideal I, from links.

    Hochster's formula for local cohomology, H^i_m(k[Δ]) ≅ ⊕_F
    H~_{i-|F|-1}(lk F) with the summand of F in degree -|F| and below
    (Stanley, Combinatorics and Commutative Algebra, Thm II.4.1), gives
    depth = min(|F| + 1 + k) and reg = max(k + 1) over the nonzero
    H~_k(lk F).  The vertices in no support are cone points: only faces
    containing all of them have a non-acyclic link, which is the link of
    the rest in the restriction to the union U of the supports, so the
    faces of that restriction suffice and the cone points shift depth by
    their number alone.

    The faces containing F are a face table's star of F, and the faces
    missing F a subcomplex, so the star's columns with their rows cut to
    the star are the relative complex of the pair, whose homology in size
    |F| + k + 1 is H~_k(lk F).  Faces go by ascending size; a face is
    reduced only while (cone points) + |F| can still lower depth or its
    largest star face can still raise reg.
    """
    _check_input("depth_and_regularity", ideal, p, cap)
    complex_ = SimplicialComplex.of_ideal(ideal)
    union = 0
    for s in complex_.supports:
        union |= s
    table = _FaceTable(complex_, union, p)
    cone = ideal.nvars - bin(union).count("1")
    starts = table.starts
    depth, reg = ideal.nvars + 1, -1
    for size in range(len(starts) - 1):
        for i in range(starts[size], starts[size + 1]):
            star = table.star(i)
            widest = bisect_right(starts, star.bit_length() - 1) - 1
            if cone + size >= depth and widest - size <= reg:
                continue
            # the rank in size c is that of H~_{c-size-1}(lk F)
            for c, rank in enumerate(table.ranks(star, relative=True)):
                if rank:
                    depth = min(depth, cone + c)
                    reg = max(reg, c - size)
    return depth, reg
