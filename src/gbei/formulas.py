"""Ideal builders and closed-form invariant predictions.

For a complete multipartite graph on parts n_1 <= ... <= n_r and the ideal
of 2-minors indexed by edge pairs of (K_m, G), every invariant handled here
has an exact combinatorial value: dimension max{m+n-1, m*n_r}, depth m+n_s
(s the first part of size >= 2), the three-case regularity, a closed Hilbert
series, multiplicity N(1), height, the cut-set family {∅, T_s, ..., T_r},
and the matching primary decomposition.  The all-ones (complete graph) case
is Cohen-Macaulay and branches where needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .graphs import (PartiteSpec, SimpleGraph, complete_graph,
                     connected_components, konig_path)
from .groebner import Ideal
from .hilbert import HilbertSeries
from .rings import DEFAULT_PRIME, Poly, Ring


# --------------------------------------------------------------------------
# ideal builders

def _minor(ring, i, j, k, l):
    """The 2-minor x[i,k]x[j,l] - x[i,l]x[j,k], i < j and k < l, by terms."""
    diagonal, anti = [0] * ring.nvars, [0] * ring.nvars
    diagonal[ring.var_index(i, k)] = diagonal[ring.var_index(j, l)] = 1
    anti[ring.var_index(i, l)] = anti[ring.var_index(j, k)] = 1
    return Poly(ring, {tuple(diagonal): 1, tuple(anti): -1})


def pair_ideal(G1: SimpleGraph, G2: SimpleGraph, ring: Ring) -> Ideal:
    """The ideal of 2-minors p_{(e,f)} = x[i,k]x[j,l] - x[i,l]x[j,k].

    One generator per edge pair e = {i,j} of G1 and f = {k,l} of G2, with
    i < j and k < l; generators come out in sorted edge order.
    """
    if ring.rows != G1.n_vertices or ring.cols != G2.n_vertices:
        raise ValueError("ring grid does not match the two vertex counts")
    return Ideal(ring, [_minor(ring, i, j, k, l)
                        for i, j in sorted(G1.edges) for k, l in sorted(G2.edges)])


def generalized_bei(m: int, G: SimpleGraph, prime: int = DEFAULT_PRIME) -> Ideal:
    """J_{K_m,G} in the m x n grid ring over GF(prime)."""
    if m < 2:
        raise ValueError("m must be at least 2")
    ring = Ring(m, G.n_vertices, prime)
    return pair_ideal(complete_graph(m), G, ring)


def prime_component(m: int, G: SimpleGraph, T, prime: int = DEFAULT_PRIME) -> Ideal:
    """P_T: the column variables over T plus clique minors on each component of G - T."""
    ring = Ring(m, G.n_vertices, prime)
    cols = sorted(set(T))
    gens = [ring.variable(i, j) for i in range(1, m + 1) for j in cols]
    rest = [v for v in range(1, G.n_vertices + 1) if v not in set(cols)]
    for comp in connected_components(G, within=rest):
        gens += [_minor(ring, i, j, k, l) for i, j in combinations(range(1, m + 1), 2)
                 for k, l in combinations(comp, 2)]
    return Ideal(ring, gens)


def predicted_cut_sets(spec: PartiteSpec):
    """The family C(G) = {∅, T_s, ..., T_r}, each T as a sorted tuple."""
    cuts = [()]
    if not spec.all_ones:
        cuts += [spec.complement(k) for k in range(spec.s, spec.r + 1)]
    return tuple(cuts)


# --------------------------------------------------------------------------
# closed-form predictors

def predicted_dimension(spec: PartiteSpec) -> int:
    return max(spec.m + spec.n - 1, spec.m * spec.parts[-1])


def predicted_depth(spec: PartiteSpec) -> int:
    if spec.all_ones:
        return spec.m + spec.n - 1  # Cohen-Macaulay: depth = dim
    return spec.m + spec.parts[spec.s - 1]


def predicted_regularity(spec: PartiteSpec) -> int:
    m, n = spec.m, spec.n
    if m >= n:
        return n - 1
    if m > spec.parts[-1]:
        return m - 1
    return m


def _determinantal_numerator(m: int, n: int):
    """Coefficients of sum_i C(m-1,i) C(n-1,i) t^i (over the pole m+n-1)."""
    return tuple(math.comb(m - 1, i) * math.comb(n - 1, i)
                 for i in range(min(m, n)))


def predicted_hilbert(spec: PartiteSpec) -> HilbertSeries:
    """Closed-form Hilbert series of the quotient, reduced to lowest terms.

    The clique-closure series over (1-t)^(m+n-1) plus, for every part of
    size at least 2, the difference between a full polynomial ring on the
    complementary columns and the part's own determinantal series.
    """
    m, n = spec.m, spec.n
    series = HilbertSeries(_determinantal_numerator(m, n), m + n - 1)
    if not spec.all_ones:
        for k in range(spec.s, spec.r + 1):
            nk = spec.parts[k - 1]
            series = series + HilbertSeries((1,), m * nk)
            series = series - HilbertSeries(_determinantal_numerator(m, nk),
                                            m + nk - 1)
    return series


def predicted_multiplicity(spec: PartiteSpec) -> int:
    """N(1) of `predicted_hilbert` in closed form.  Only the terms whose pole
    is the dimension d count: the clique closure's C(m+n-2, m-1) when
    m+n-1 = d, and 1 for each part n_k >= 2 with m*n_k = d; a part's own
    determinantal pole m+n_k-1 stays below m*n_k."""
    m, n = spec.m, spec.n
    d = predicted_dimension(spec)
    closure = math.comb(m + n - 2, m - 1) if m + n - 1 == d else 0
    return closure + sum(nk >= 2 and m * nk == d for nk in spec.parts)


def bipartite_multiplicity(spec: PartiteSpec) -> int:
    """Case-table multiplicity for r = 2; cross-checks N(1) of the series."""
    if spec.r != 2:
        raise ValueError("the case table applies to bipartite specs only")
    if spec.all_ones:
        # parts (1, 1) fall outside the table's hypotheses (it needs a part
        # of size >= 2); there the quotient is the Segre ring with N(1) = m,
        # while the third case below would report 2.
        raise ValueError("the case table requires the larger part >= 2")
    m = spec.m
    n1, n2 = spec.parts
    a, b, c = m + n1 + n2 - 1, m * n1, m * n2
    if max(a, b) < c:
        return 1
    if a < b and b == c:
        return 2
    if c < a:
        return 2 * n2
    if a == b == c:
        return 12
    # remaining case: m*n1 < m+n1+n2-1 = m*n2
    return sum(math.comb(m - 1, k) * math.comb(n1 + n2 - 1, k)
               for k in range(m)) + 1


@dataclass(frozen=True)
class Prediction:
    """Every closed-form invariant of one spec, ready to serialize.

    cd is a tagged tuple: ("exact", v) in positive characteristic,
    ("interval", lo, hi) in characteristic zero, ("unsupported",) for
    all-ones parts where the bound does not apply.
    """

    spec: PartiteSpec
    dim: int
    depth: int
    reg: int
    hilbert: HilbertSeries
    mult: int
    cd: tuple
    height: int
    konig: tuple
    cut_sets: tuple
    components: tuple

    def cd_json(self):
        if self.cd[0] == "exact":
            return {"exact": self.cd[1]}
        if self.cd[0] == "interval":
            return {"lower": self.cd[1], "upper": self.cd[2]}
        return {"unsupported": True}

    def to_json(self):
        return {
            "dim": self.dim,
            "depth": self.depth,
            "reg": self.reg,
            "mult": self.mult,
            "cd": self.cd_json(),
            "height": self.height,
            "path": list(self.konig),
            "hilbert": self.hilbert.to_json(),
            "cutSets": [list(T) for T in self.cut_sets],
            "components": [{"kind": kind, "T": list(T)}
                           for kind, T in self.components],
        }


def predict(spec: PartiteSpec, char_zero: bool = False) -> Prediction:
    """Assemble the full Prediction for one spec.

    char_zero only changes the cohomological dimension field: exact
    mn - m - n_s in positive characteristic, the interval
    [mn - m - n_s, mn - 3] over characteristic zero.
    """
    m, n = spec.m, spec.n
    dim = predicted_dimension(spec)
    if spec.all_ones:
        cd = ("unsupported",)
    else:
        lower = m * n - m - spec.parts[spec.s - 1]
        cd = ("interval", lower, m * n - 3) if char_zero else ("exact", lower)
    series = predicted_hilbert(spec)
    cuts = predicted_cut_sets(spec)
    return Prediction(
        spec=spec,
        dim=dim,
        depth=predicted_depth(spec),
        reg=predicted_regularity(spec),
        hilbert=series,
        mult=predicted_multiplicity(spec),
        cd=cd,
        height=m * n - dim,
        konig=konig_path(spec),
        cut_sets=cuts,
        components=tuple(("determinantal" if not T else "variables", T)
                         for T in cuts),
    )
