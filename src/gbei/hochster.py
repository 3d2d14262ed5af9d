"""Graded Betti numbers of squarefree monomial quotients over GF(p).

The route is Hochster's formula: beta_{i,sigma}(S/I) is the rank of the
reduced homology H~_{|sigma|-i-1} of the Stanley-Reisner complex of I
restricted to sigma.  A restriction contributes nothing whenever it is a
cone, and it is a cone exactly unless sigma is a union of generator
supports, so only those unions are ever enumerated — that pruning is what
keeps 12-variable tables affordable.

Boundary ranks come from sparse column reduction over GF(p) on Python
ints, so they are exact for every prime.  The maps are reduced from the
top dimension down, and a column whose face was already a pivot row of the
map above is skipped: it always reduces to zero (the "clearing" of
Chen-Kerber, Persistent homology computation with a twist, EuroCG 2011).
"""

from __future__ import annotations

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

        Faces grow from a stack by adding vertices above their top vertex,
        so each group comes out in lex order.  A stack entry carries the
        vertices that extend its face, and only later ones of those can
        extend a child.  The supports inside sigma are indexed by their top
        vertex: adding v can only complete a support topped by v, as any
        other support inside the new face was already inside the parent.
        """
        verts = [v for v in range(self.nvars) if sigma_mask >> v & 1]
        # rests[v]: the supports inside sigma topped by v, with v removed
        rests = [[] for _ in range(self.nvars)]
        for s in self.supports:
            if s & ~sigma_mask == 0:
                top = s.bit_length() - 1
                rests[top].append(s ^ 1 << top)
        grouped = [[0]] + [[] for _ in verts]
        # (face, its size, the vertices that extend it)
        roots = [v for v in verts if 0 not in rests[v]]
        stack = [(0, 0, roots)] if roots else []
        while stack:
            face, size, exts = stack.pop()
            size += 1
            children = [face | 1 << v for v in exts]
            grouped[size].extend(children)
            # push in reverse so the stack pops children in lex order
            for k in range(len(exts) - 2, -1, -1):
                child = children[k]
                outside = ~child
                nxt = []
                for v in exts[k + 1:]:
                    for rest in rests[v]:
                        if rest & outside == 0:
                            break
                    else:
                        nxt.append(v)
                if nxt:
                    stack.append((child, size, nxt))
        while len(grouped) > 1 and not grouped[-1]:
            grouped.pop()
        return grouped


def _boundary_columns(smaller, larger, p, skip=()):
    """Columns {row: coeff mod p} of the boundary map from `larger` to `smaller`.

    The j-th lowest vertex of a face carries the sign (-1)^j.  Columns whose
    index is in `skip` are left out.
    """
    index = {mask: i for i, mask in enumerate(smaller)}
    minus_one = p - 1
    for j, face in enumerate(larger):
        if j in skip:
            continue
        col = {}
        coeff = 1
        m = face
        while m:
            low = m & -m
            col[index[face ^ low]] = coeff
            coeff = minus_one if coeff == 1 else 1
            m ^= low
        yield col


def _pivot_rows(columns, p):
    """Reduce sparse columns left to right over GF(p); return the pivot rows.

    A column's pivot is its largest row index; a column whose pivot is
    taken has that earlier column subtracted until its pivot is free or it
    vanishes.  There is one pivot per rank, so the rank is the count.
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


def _homology_ranks(grouped, p):
    """Reduced homology ranks for k = -1 .. len(grouped)-2.

    grouped[c] lists the size-c faces (grouped[0] = [empty face]); the rank
    of H~_k is f_k minus the ranks of the boundary maps on either side.
    """
    top = len(grouped)
    boundary = [0] * (top + 1)  # boundary[c]: rank of the map out of size c
    cleared = ()
    for c in range(top - 1, 0, -1):
        cleared = _pivot_rows(
            _boundary_columns(grouped[c - 1], grouped[c], p, cleared), p)
        boundary[c] = len(cleared)
    return [len(grouped[c]) - boundary[c] - boundary[c + 1]
            for c in range(top)]


def _check_prime(p):
    if not is_prime(p):
        raise ValueError(f"{p} is not a prime")


def reduced_homology_ranks(complex_, sigma, p=DEFAULT_PRIME):
    """Ranks of H~_k(restriction to sigma; GF(p)) for k = -1 .. |sigma|-1."""
    _check_prime(p)
    mask = 0
    for v in sigma:
        mask |= 1 << v
    grouped = complex_.faces_by_size(mask)
    ranks = _homology_ranks(grouped, p)
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


def betti_table(ideal, p=DEFAULT_PRIME, cap=HOCHSTER_CAP):
    """Full Betti table of S/I for a squarefree monomial ideal I.

    Only sigma that are unions of generator supports can carry homology
    (anything else restricts to a cone), so the enumeration closes the
    support set under unions instead of walking all 2^n subsets.
    """
    if not ideal.is_squarefree():
        raise ValueError("betti_table requires a squarefree monomial ideal")
    if ideal.is_unit():
        raise ValueError("betti_table requires a proper ideal")
    _check_prime(p)
    if ideal.nvars > cap:
        raise CapExceededError(
            f"{ideal.nvars} variables exceeds the Hochster cap of {cap}")

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

    entries = {}
    for mask in sorted(closed):
        grouped = complex_.faces_by_size(mask)
        ranks = _homology_ranks(grouped, p)
        size = bin(mask).count("1")
        sigma = frozenset(v for v in range(ideal.nvars) if mask >> v & 1)
        for c, rank in enumerate(ranks):
            if rank:
                k = c - 1
                entries[(size - 1 - k, sigma)] = rank
    return BettiTable(ideal.nvars, entries)
