"""Simple graphs, complete multipartite instances, cut sets, and path constructions.

Vertices are the 1-based integers 1..n.  A complete multipartite instance is
described by a ``PartiteSpec`` (the number of matrix rows m together with the
ascending part sizes n_1 <= ... <= n_r); its vertex blocks are consecutive
integer intervals, so block k is [1 + n_1 + ... + n_{k-1}, n_1 + ... + n_k].
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations

from .errors import CapExceededError

CUT_SET_CAP = 16


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph on the vertex set {1, ..., n_vertices}."""

    n_vertices: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n_vertices < 1:
            raise ValueError("graph needs at least one vertex")
        for u, v in self.edges:
            if not (1 <= u < v <= self.n_vertices):
                raise ValueError(f"bad edge ({u},{v}) on {self.n_vertices} vertices")

    @classmethod
    def from_edges(cls, n_vertices, edges):
        norm = frozenset((min(u, v), max(u, v)) for u, v in edges)
        for u, v in norm:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
        return cls(n_vertices, norm)

    def has_edge(self, u, v):
        return (min(u, v), max(u, v)) in self.edges

    def adjacency_masks(self):
        """Neighbor bitmasks indexed by vertex (bit v-1 set for neighbor v)."""
        adj = [0] * (self.n_vertices + 1)
        for u, v in self.edges:
            adj[u] |= 1 << (v - 1)
            adj[v] |= 1 << (u - 1)
        return adj


@dataclass(frozen=True)
class PartiteSpec:
    """A complete multipartite instance: m matrix rows and ascending part sizes."""

    m: int
    parts: tuple[int, ...]

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("m must be at least 2")
        if len(self.parts) < 2:
            raise ValueError("need at least two parts")
        if any(p < 1 for p in self.parts):
            raise ValueError("part sizes must be positive")
        if list(self.parts) != sorted(self.parts):
            raise ValueError("parts must be sorted ascending")

    @classmethod
    def of(cls, m, parts):
        """Build a spec, sorting the part sizes ascending."""
        return cls(m, tuple(sorted(parts)))

    @property
    def r(self):
        return len(self.parts)

    @property
    def n(self):
        return sum(self.parts)

    @property
    def s(self):
        """1-based index of the first part of size >= 2, or None if all parts are 1."""
        for i, p in enumerate(self.parts, start=1):
            if p >= 2:
                return i
        return None

    @property
    def all_ones(self):
        return self.parts[-1] == 1

    def block(self, k):
        """Vertices of part k (1-based) as a consecutive integer interval."""
        lo = 1 + sum(self.parts[: k - 1])
        return tuple(range(lo, lo + self.parts[k - 1]))

    def blocks(self):
        return tuple(self.block(k) for k in range(1, self.r + 1))

    def complement(self, k):
        """All vertices outside part k (the column support of the k-th variable ideal)."""
        blk = set(self.block(k))
        return tuple(v for v in range(1, self.n + 1) if v not in blk)

    def part_of(self, v):
        """1-based part index of vertex v."""
        acc = 0
        for i, p in enumerate(self.parts, start=1):
            acc += p
            if v <= acc:
                return i
        raise ValueError(f"vertex {v} out of range")


def complete_graph(n: int) -> SimpleGraph:
    """The clique on {1, ..., n}; n = 1 gives the single vertex, no edges."""
    return SimpleGraph.from_edges(n, combinations(range(1, n + 1), 2))


def complete_multipartite(spec: PartiteSpec) -> SimpleGraph:
    """The complete multipartite graph of a spec: edges exactly between distinct blocks."""
    edges = set()
    blocks = spec.blocks()
    for a, b in combinations(range(spec.r), 2):
        for u in blocks[a]:
            for v in blocks[b]:
                edges.add((u, v))
    return SimpleGraph.from_edges(spec.n, edges)


def _components(adj, mask):
    """Components (bitmasks, by lowest vertex) of the subgraph induced on mask."""
    comps = []
    while mask:
        comp = frontier = mask & -mask
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            grow = adj[low.bit_length()] & mask & ~comp
            comp |= grow
            frontier |= grow
        mask &= ~comp
        comps.append(comp)
    return comps


def _vertices(mask, n):
    return tuple(v for v in range(1, n + 1) if mask >> (v - 1) & 1)


def connected_components(G: SimpleGraph, within=None):
    """Partition of the vertex set (or of ``within``) into connected components.

    Components are returned as sorted tuples, ordered by smallest vertex.
    A vertex of ``within`` outside 1..n raises ValueError.
    """
    n = G.n_vertices
    mask = 0
    for v in range(1, n + 1) if within is None else within:
        if not 1 <= v <= n:
            raise ValueError(f"vertex {v} outside 1..{n}")
        mask |= 1 << (v - 1)
    return [_vertices(comp, n) for comp in _components(G.adjacency_masks(), mask)]


def _splits(adj, t_mask, rest):
    """Whether every member of t_mask, which has two neighbours in rest,
    touches two components of rest; a search stops once one component holds
    all of the member's neighbours."""
    while t_mask:
        low = t_mask & -t_mask
        t_mask ^= low
        out = adj[low.bit_length()] & rest
        comp = frontier = out & -out
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            grow = adj[low.bit_length()] & rest & ~comp
            comp |= grow
            frontier |= grow
            if not out & ~comp:
                return False
    return True


def cut_sets(G: SimpleGraph):
    """All vertex subsets T such that every v in T is a cut point of G minus (T minus v).

    Returns (T, c) pairs where c is the component count of G minus T, ordered by
    subset size and then lexicographically.  The empty set always qualifies.
    Putting v back merges the k_v components of G - T it touches, so
    c(T - v) = c(T) + 1 - k_v and T qualifies iff every member has k_v >= 2.
    Then every member has two neighbours outside T, and outside each subset
    of T, so the search grows T above max(T) and cuts a branch as soon as a
    member would lose that: ``tight`` holds the outside neighbours of members
    with exactly two.  Dense graphs keep almost every subset, so n is capped.
    """
    n = G.n_vertices
    if n > CUT_SET_CAP:
        raise CapExceededError(f"cut set enumeration needs n <= {CUT_SET_CAP}, got {n}")
    adj, full = G.adjacency_masks(), (1 << n) - 1
    # few[k]: the vertices that can have only two neighbours outside a k-set
    few = [sum(1 << (u - 1) for u in range(1, n + 1) if adj[u].bit_count() <= k + 1)
           for k in range(n + 1)]
    found = [((), len(_components(adj, full)))]
    stack = [(0, 0, 1)]
    while stack:
        t_mask, tight, start = stack.pop()
        for v in range(start, n + 1):
            bit = 1 << (v - 1)
            if bit & tight or (adj[v] & ~t_mask).bit_count() < 2:
                continue
            child, child_tight = t_mask | bit, tight
            rest = full & ~child
            if _splits(adj, child, rest):
                found.append((_vertices(child, n), len(_components(adj, rest))))
            if v == n:
                continue
            members = child & (adj[v] | bit) & few[child.bit_count()]
            while members:
                low = members & -members
                members ^= low
                out = adj[low.bit_length()] & rest
                if out.bit_count() == 2:
                    child_tight |= out
            stack.append((child, child_tight, v + 1))
    found.sort(key=lambda item: (len(item[0]), item[0]))
    return [(frozenset(t), c) for t, c in found]


def validate_path(G: SimpleGraph, verts):
    """Whether the vertex sequence is a path of G: distinct, adjacent in turn."""
    return (len(set(verts)) == len(verts)
            and all(G.has_edge(u, v) for u, v in zip(verts, verts[1:])))


def path_target_length(spec: PartiteSpec) -> int:
    """Edge count of the path witness: 2n - max(n + 1, 2 * n_r)."""
    n = spec.n
    return 2 * n - max(n + 1, 2 * spec.parts[-1])


def konig_path(spec: PartiteSpec) -> tuple[int, ...]:
    """The vertices of a path of length 2n - max(n + 1, 2 n_r) in the complete
    multipartite graph.

    All-ones parts give (1, ..., n).  Otherwise let L list the largest block,
    then the vertices 1..n - n_r in order, and h = max(n_r, ceil(n / 2)).  The
    path interleaves L's two halves, L[0], L[h], L[1], L[h + 1], ..., and
    ends with L[n - h] when 2h > n: n vertices if n_r <= ceil(n / 2), else
    2(n - n_r) + 1.  Each step joins a position below h to one at or above
    h, h or h - 1 apart, so a block holding both ends has at least h >= n_r
    vertices.  The blocks are runs of L: the largest is L[:n_r], below h,
    and another that large makes h = n_r and lies in L[h:].  So no block
    holds both ends of a step.  Nothing here checks the result: that is
    `verify.konig_check`'s job.
    """
    n = spec.n
    if spec.all_ones:
        return tuple(range(1, n + 1))
    big = spec.block(spec.r)
    L = (*big, *range(1, big[0]))
    h = max(len(big), -(-n // 2))
    path = [v for k in range(n - h) for v in (L[k], L[h + k])]
    return (*path, L[n - h]) if 2 * h > n else tuple(path)


def graph_from_json(obj) -> SimpleGraph:
    """Build a graph from ``{"n": int, "edges": [[u, v], ...]}`` with 1-based vertices."""
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise ValueError('graph JSON must be {"n": int, "edges": [[u,v], ...]}')
    n, edges = obj["n"], obj["edges"]
    if not _is_int(n) or n < 1:
        raise ValueError("graph JSON: n must be a positive integer")
    if not isinstance(edges, list):
        raise ValueError("graph JSON: edges must be a list")
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2 and all(map(_is_int, e))):
            raise ValueError(f"graph JSON: bad edge {e!r}")
    return SimpleGraph.from_edges(n, edges)


def _is_int(value):
    # JSON true/false load as bool, which is an int subclass
    return isinstance(value, int) and not isinstance(value, bool)


def load_graph(path) -> SimpleGraph:
    with open(path, encoding="utf-8") as fh:
        return graph_from_json(json.load(fh))
