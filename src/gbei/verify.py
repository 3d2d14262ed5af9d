"""Runs the exact oracle against the closed-form predictions.

verify() recomputes every invariant it can from first principles — Groebner
basis, initial ideal, Hilbert series, depth and regularity from the links
of the Stanley-Reisner complex (Hochster's local-cohomology formula), the
predicted decomposition, cut sets from the definition, path validation — and
lines the results up against predict().  A prediction may choose what the
oracle tries first, and it never enters a computed value: predict()'s cut
sets choose the components, and through them J's Hilbert floor, and
`konig_path` gives the path `validate_path` checks, so a "match" row is
still an independent check.

The containment and decomposition rows check the decomposition J = I :=
∩ P_T that `Prediction.components` states, without computing I, before
in(J): P_∅ from its definition, and for every other T the variable
ideal (x_T).  J ⊆ (x_T) iff every edge of G meets T, so a stated T that
leaves an edge reads mismatch.  (x_T) holds a polynomial exactly when
each of its terms holds one of its variables, a test on support bitmasks,
so the containment row J ⊆ P_T divides by P_∅'s basis only.  That basis
is built under the report's term order and the Segre floor: P_∅ ⊆
ker(x[i,j] -> s_i t_j), checked, gives HS(S/P_∅) ≥ HS(k[s_i t_j]).  With
M the meet of the other P_T, HS(S/I) = HS(S/P_∅) + HS(S/M) − HS(S/(P_∅ +
M)); with in(P_∅) + M for P_∅ + M the sum is `low` = HS(S/(in(P_∅) ∩
M)) ≤ HS(S/I), its monomial series by inclusion–exclusion over the
unions of the P_T's variable sets.  Once J ⊆ I, S/J → S/I is a graded
surjection, so low is a floor for J, and J = I iff HS(S/J) = HS(S/I):
low == HS(S/J) settles the row, and only otherwise does P_∅ + M get a
basis.  Then in(J) takes no S-pair and no series.  Leading terms of
elements of J, each checked by a ±1 cofactor identity, span an L ⊆
in(J), and J ⊆ I gives in(J) ⊆ in(P_∅) ∩ M under the one order.  So once
table lookups find every generator of in(P_∅) ∩ M in (L), L = in(J) =
in(P_∅) ∩ M and HS(S/J) = low (`_certified_initial`); else J's basis is
built.

Caps are per stage: an instance too big for Buchberger still gets its cut
sets and path checked, and one past the Hochster cap still gets
dimension, Hilbert series, and multiplicity from the initial ideal.  Depth
and regularity are read off in(J) only when it is squarefree (Conca–Varbaro,
Invent. Math. 2020); otherwise those rows are skipped(squarefree-check-failed)
and the report keeps the term order the caller asked for.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, compress
from math import comb
from operator import mul

from .formulas import generalized_bei, predict, prime_component
from .graphs import (CUT_SET_CAP, PartiteSpec, complete_multipartite,
                     cut_sets, konig_path, path_target_length, validate_path)
from .groebner import Ideal, TermOrder, _Packing
from .hilbert import (HilbertSeries, MonomialIdeal, _mul_one_minus_t_power,
                      hilbert_series, krull_dimension, multiplicity)
from .hochster import HOCHSTER_CAP, depth_and_regularity
from .rings import (DEFAULT_PRIME, Poly, Ring, iter_bits, minimal_masks,
                    mono_coprime, mono_mask)
# Unused here; kept because the benchmark tracer patches these by name.
from .groebner import ideals_equal, intersect  # noqa: F401
from .hochster import betti_table  # noqa: F401

GROEBNER_CAP = 18

_ROW_ORDER = ("dim", "depth", "reg", "hilbert", "mult",
              "decomposition", "containment", "cutSets", "konig")


@dataclass
class InvariantReport:
    """Per-spec agreement report; serializes to the stable JSON schema."""

    spec: PartiteSpec
    order: str
    prime: int
    invariants: list
    squarefree: bool
    timing_ms: dict

    def row(self, name):
        for entry in self.invariants:
            if entry["name"] == name:
                return entry
        raise KeyError(name)

    @property
    def has_mismatch(self):
        return any(entry["status"] == "mismatch" for entry in self.invariants)

    def counts(self):
        out = Counter({"match": 0, "mismatch": 0, "skipped": 0})
        out.update(entry["status"].split("(")[0] for entry in self.invariants)
        return dict(out)

    def to_json(self):
        return {
            "spec": {"m": self.spec.m, "parts": list(self.spec.parts)},
            "order": self.order,
            "prime": self.prime,
            "invariants": self.invariants,
            "squarefree": self.squarefree,
            "timingMs": {k: round(v, 3) for k, v in self.timing_ms.items()},
        }


def _stated_components(spec, G, cut_sets, prime):
    """The decomposition the predicted family states, typed as in
    `Prediction.components`: (P, variable_sets), P = P_∅ from its
    definition, or S's unit ideal when ∅ is not in the family (the empty
    intersection is S), and per T ≠ ∅ the bitmask of the x[i,j], j in T."""
    ring = Ring(spec.m, spec.n, prime)
    P = (prime_component(spec.m, G, (), prime) if any(not T for T in cut_sets)
         else Ideal(ring, [ring.one()]))
    return P, [sum(1 << ring.var_index(i, j) for i in range(1, spec.m + 1) for j in T)
               for T in cut_sets if T]


def _in_variable_ideals(polys, variable_sets):
    """Whether every poly lies in each variable ideal on the bitmasks: a
    poly does exactly when each of its terms holds one of the variables."""
    supports = [mono_mask(mono) for f in polys for mono in f.terms]
    return all(s & V for V in variable_sets for s in supports)


def _transversals(variable_sets):
    """The minimal bitmasks that meet every set of variable_sets, grown one
    set V at a time: a mask that misses V gains each bit of V in turn, and
    `minimal_masks` keeps the minimal results."""
    minimal = [0]
    for V in variable_sets:
        lows = [1 << v for v in iter_bits(V)]
        minimal = minimal_masks({S if S & V else S | low
                                 for S in minimal for low in lows})
    return minimal


def _meet(nvars, variable_sets):
    """M, the intersection of the variable ideals on the given bitmasks:
    x^S lies in all of them exactly when S meets every set, so M is
    generated by the `_transversals`."""
    return MonomialIdeal._of_minimal(nvars, [
        tuple(S >> v & 1 for v in range(nvars)) for S in _transversals(variable_sets)])


def _segre_floor(P):
    """HS(k[s_i t_j]) = sum_d C(m+d-1, d) C(n+d-1, d) t^d, P's ring m x n,
    if every generator of P maps to 0 under φ: x[i,j] -> s_i t_j, else None.
    Then P ⊆ ker φ and S/ker φ ≅ k[s_i t_j], so it is at most HS(S/P).  Its
    Hilbert function is a polynomial of degree m + n - 2 in d, so its first
    m + n - 1 terms times (1 - t)^(m+n-1) give the numerator.  An image is
    an int with a field per s_i and t_j too wide for any degree of P to carry."""
    m, n, p = P.ring.rows, P.ring.cols, P.ring.prime
    width = max((sum(mono) for g in P.gens for mono in g.terms), default=0).bit_length()
    weight = [(1 << width * i) + (1 << width * (m + j)) for i in range(m) for j in range(n)]
    for g in P.gens:
        image = Counter()
        for mono, c in g.terms.items():
            image[sum(map(mul, mono, weight))] += c
        if any(c % p for c in image.values()):
            return None
    h = [comb(m + d - 1, d) * comb(n + d - 1, d) for d in range(m + n - 1)]
    return HilbertSeries(_mul_one_minus_t_power(h, m + n - 1)[:m + n - 1], m + n - 1)


def _meet_series(P, variable_sets, order=None, exact=False):
    """HS(S/(P ∩ M)), M the meet of the variable ideals P_V on variable_sets,
    when exact; else `low`, a lower bound on it.  Both are HS(S/P) + HS(S/M)
    − HS(S/X), by 0 → S/(P ∩ M) → S/P ⊕ S/M → S/(P + M) → 0, with X = P + M
    from its generators' basis, or X = in(P) + M ⊆ in(P + M) for low: the
    ideals are homogeneous, and A ⊆ B gives HS(S/A) ≥ HS(S/B).  By the same
    sequence low is exactly HS(S/(in(P) ∩ M)).  P's basis is built under
    `order` (default lex-row-major) and `_segre_floor`, which is HS(S/P) if
    the basis reaches it.
    low builds no M: a monomial is outside M iff it is outside some P_V, and
    the P_V of a subfamily F sum to P_U, U = ∪F, so degree by degree its
    HS(S/M) − HS(S/X) is Σ_U c_U (HS(S/P_U) − HS(S/(in(P) + P_U))), c_U the
    sum of (−1)^(|F|+1) over the F with union U; S/(in(P) + P_U) is the ring
    on the variables outside U over the generators of in(P) missing U.
    Distinct U can give one such ideal, whose series is taken once.
    """
    order = order or P.default_order()
    found = P._basis(order, _segre_floor(P))[2]
    ini = P.initial_ideal(order)
    series = hilbert_series(ini) if found is None else found
    if exact:
        M = _meet(P.ring.nvars, variable_sets)
        plus = Ideal(P.ring, P.gens + tuple(Poly(P.ring, {g: 1}) for g in M.gens))
        return series + hilbert_series(M) - hilbert_series(plus.initial_ideal())
    signs = Counter()  # c_U by the union bitmask U
    for V in variable_sets:
        for U, c in list(signs.items()):
            signs[U | V] -= c
        signs[V] += 1
    masks = [mono_mask(g) for g in ini.gens]
    terms = {}  # the U's term by its small ideal: distinct U may give one
    for U, c in signs.items():
        keep = [not U >> v & 1 for v in range(P.ring.nvars)]
        small = [tuple(compress(g, keep)) for g, s in zip(ini.gens, masks) if not s & U]
        if c and small:  # with no generator, both series of U are 1/(1-t)^|keep|
            ideal = MonomialIdeal._of_minimal(sum(keep), small)
            if ideal not in terms:
                terms[ideal] = HilbertSeries((1,), ideal.nvars) - hilbert_series(ideal)
            term = terms[ideal]
            series += HilbertSeries([c * a for a in term.numerator], term.pole)
    return series


def _signed_minor(x, a, b, c, d):
    """D(ab;cd) = x[a,c]x[b,d] − x[a,d]x[b,c] as (packed monomial, sign)
    pairs, x the packed variables by (row, column); none when a == b."""
    return () if a == b else ((x[a, c] + x[b, d], 1), (x[a, d] + x[b, c], -1))


def _leading_terms(J, G, packing):
    """L, the packed lms of J's generators and of x[r,v]·D(ij;kl) for each
    non-edge {k,l} of G, v adjacent to both, i < j and row r, or None if
    one identity below fails.  Each product is checked by expanding
    x[r,v]·D(ij;kl) = x[r,k]·D(ij;vl) + x[i,l]·D(jr;vk) − x[j,l]·D(ir;vk).
    Every minor on the right lies on the edge {v,l} or {v,k}, so it is ± a
    generator of J, and L ⊆ in(J).  Products a quadric lm divides, or
    already in L, are skipped: L is squarefree quadrics and cubics, none
    dividing another."""
    ring = J.ring
    rows, cols = range(1, ring.rows + 1), range(1, ring.cols + 1)
    # x[a,b] packed: a 1 in the field of its rank
    x = {(a, b): 1 << 8 * (ring.nvars - 1 - packing.rank[ring.var_index(a, b)])
         for a in rows for b in cols}
    quadrics = {max(packing.pack_terms(g.terms)) for g in J.gens}
    cubics, adjacent = set(), G.adjacency_masks()
    for k, l in combinations(cols, 2):
        common = 0 if G.has_edge(k, l) else adjacent[k] & adjacent[l]
        for v in (bit + 1 for bit in iter_bits(common)):  # bit v - 1 is vertex v
            for i, j in combinations(rows, 2):
                a, b = max((x[i, k], x[j, l]), (x[i, l], x[j, k]), key=sum)
                for r in rows:
                    c = x[r, v]
                    lead = a + b + c
                    if {a + b, a + c, b + c} & quadrics or lead in cubics:
                        continue
                    total = {}  # the right side minus the left, term by term
                    for shift, sign, minor in (
                            (c, -1, (i, j, k, l)), (x[r, k], 1, (i, j, v, l)),
                            (x[i, l], 1, (j, r, v, k)), (x[j, l], -1, (i, r, v, k))):
                        for mono, s in _signed_minor(x, *minor):
                            total[shift + mono] = total.get(shift + mono, 0) + sign * s
                    if any(total.values()):
                        return None
                    cubics.add(lead)
    return quadrics | cubics


def _certified_initial(J, G, term_order, P, variable_sets):
    """in(J) under term_order with no S-pair reduced and no series taken,
    given J ⊆ P ∩ M, M the meet of the variable ideals on variable_sets;
    or None.

    Under one order J ⊆ P ∩ M gives in(J) ⊆ in(P) ∩ M, and `_leading_terms`
    gives L ⊆ in(J), so L = in(J) once in(P) ∩ M ⊆ (L), checked on
    generators.  in(P) ∩ M is generated by the a·t, a an lm of P's basis
    under term_order and t a minimal set meeting every V that a misses:
    (a) ∩ (x_V) is (a) when a holds a variable of V, and a·(x_V) when it
    does not, since (x_V) is prime.  L is squarefree, so a·t lies in (L)
    exactly when a 2- or 3-subset of its support is in L; an a·t outside
    (L) gives None."""
    packing = _Packing(term_order)
    L = _leading_terms(J, G, packing)
    if L is None:
        return None
    nvars = J.ring.nvars
    # a variable set's packed mask: the low bit of each of its variables' fields
    sets = [sum(1 << 8 * (nvars - 1 - packing.rank[v]) for v in iter_bits(V))
            for V in variable_sets]
    transversals = {}  # by the sets an lm misses
    for lm, _, _ in P._basis(term_order)[1]:
        a = packing.support(lm) >> 7  # lm's support: the low bit of each of its fields
        missed = tuple(V for V in sets if not a & V)
        if missed not in transversals:
            transversals[missed] = _transversals(missed)
        for t in transversals[missed]:
            if a | t in L:
                continue
            bits = [1 << b for b in iter_bits(a | t)]
            if not any(sum(c) in L for k in (2, 3) for c in combinations(bits, k)):
                return None
    return MonomialIdeal._of_minimal(nvars, map(packing.unpack, L))


def _floored_basis(spec, G, cut_sets, prime, term_order, timing):
    """The decomposition stage, then in(J), timed into `timing`: P_∅, the
    other components' variable bitmasks, low, J ⊆ I, in(J), and HS(S/J) if
    low proved it, else None.  P_∅'s one basis, its division and low are
    taken under term_order, the order of in(J).  If J ⊆ I, in(J) is
    certified by in(P_∅) ∩ M ⊆ (L), and then HS(S/J) = low; failing that,
    in(J) is read off J's basis under the floor low; if J ⊄ I, off J's
    plain basis."""
    t0 = time.perf_counter()
    J = generalized_bei(spec.m, G, prime)
    P, variable_sets = _stated_components(spec, G, cut_sets, prime)
    low = _meet_series(P, variable_sets, term_order)
    contained = (all(P.contains(g, term_order) for g in J.gens)
                 and _in_variable_ideals(J.gens, variable_sets))
    timing["decomposition"] = (time.perf_counter() - t0) * 1000
    t0 = time.perf_counter()
    # J ⊆ P_∅ ∩ M makes low a floor: HS(S/J) ≥ HS(S/(P_∅ ∩ M)) ≥ low, and
    # L = in(J) = in(P_∅) ∩ M gives HS(S/J) = low
    ini = _certified_initial(J, G, term_order, P, variable_sets) if contained else None
    found = low
    if ini is None:
        found = J._basis(term_order, low if contained else None)[2]
        ini = J.initial_ideal(term_order)
    timing["groebner"] = (time.perf_counter() - t0) * 1000
    return P, variable_sets, low, contained, ini, found


def verify(spec: PartiteSpec, *, prime: int = DEFAULT_PRIME,
           order: str = "lex-row-major", groebner_cap: int = GROEBNER_CAP,
           hochster_cap: int = HOCHSTER_CAP) -> InvariantReport:
    """Full oracle run against predict(spec); see the module docstring.

    A non-prime ``prime``, one of 2^64 or more, an unknown term order or a
    negative cap raises ValueError before any stage runs, whatever the caps.
    """
    term_order = TermOrder.by_name(order, Ring(spec.m, spec.n, prime))
    if min(groebner_cap, hochster_cap) < 0:
        raise ValueError(f"caps must be at least 0, got {groebner_cap}, {hochster_cap}")
    pred = predict(spec)
    G = complete_multipartite(spec)
    nvars = spec.m * spec.n
    predicted = {
        "dim": pred.dim, "depth": pred.depth, "reg": pred.reg,
        "hilbert": pred.hilbert.to_json(), "mult": pred.mult,
        "decomposition": True, "containment": True,
        "cutSets": [list(T) for T in sorted(pred.cut_sets,
                                            key=lambda T: (len(T), T))],
        "konig": {"length": path_target_length(spec), "valid": True,
                  "coprime": True},
    }
    computed = {}
    skipped = {}
    timing = {}
    squarefree = False

    if nvars > groebner_cap:
        skipped.update(dict.fromkeys(_ROW_ORDER[:7], "groebner-cap"))
    else:
        P, variable_sets, low, contained, ini, found = _floored_basis(
            spec, G, pred.cut_sets, prime, term_order, timing)

        t0 = time.perf_counter()
        series = hilbert_series(ini) if found is None else found
        timing["hilbert"] = (time.perf_counter() - t0) * 1000
        computed["dim"] = krull_dimension(series)
        computed["hilbert"] = series.to_json()
        computed["mult"] = multiplicity(series)

        squarefree = ini.is_squarefree()
        if nvars > hochster_cap:
            skipped.update(depth="hochster-cap", reg="hochster-cap")
        elif not squarefree:
            skipped.update(depth="squarefree-check-failed",
                           reg="squarefree-check-failed")
        else:
            t0 = time.perf_counter()
            computed["depth"], computed["reg"] = depth_and_regularity(
                ini, prime, cap=hochster_cap)
            timing["hochster"] = (time.perf_counter() - t0) * 1000

        t0 = time.perf_counter()
        computed["containment"] = contained
        computed["decomposition"] = contained and (
            low == series
            or _meet_series(P, variable_sets, term_order, exact=True) == series)
        timing["decomposition"] += (time.perf_counter() - t0) * 1000

    if spec.n > CUT_SET_CAP:
        skipped["cutSets"] = "cutset-cap"
    else:
        t0 = time.perf_counter()
        computed["cutSets"] = [sorted(T) for T, _ in cut_sets(G)]
        timing["cutsets"] = (time.perf_counter() - t0) * 1000

    t0 = time.perf_counter()
    check = konig_check(spec)
    timing["konig"] = (time.perf_counter() - t0) * 1000
    computed["konig"] = {"length": check["height"],
                         "valid": check["path_valid"],
                         "coprime": check["initial_terms_coprime"]}

    rows = []
    for name in _ROW_ORDER:
        if name in skipped:
            value, status = None, f"skipped({skipped[name]})"
        else:
            value = computed[name]
            status = "match" if predicted[name] == value else "mismatch"
        rows.append({"name": name, "predicted": predicted[name],
                     "computed": value, "status": status})
    return InvariantReport(spec=spec, order=order, prime=prime,
                           invariants=rows, squarefree=squarefree,
                           timing_ms=timing)


def konig_check(spec: PartiteSpec):
    """Length, path, validity, and coprimality of the relabeled leading terms.

    This is the m = 2 story: the classical edge ideal J_G has height
    h = 2n - max{n+1, 2 n_r}.  The vertices v_1, ..., v_{l+1} of
    konig_path(spec) are checked to be a path of G, and relabeled in path
    order they give leading terms x[1,i] x[2,i+1], i = 1..l, that are
    checked — not assumed — to be pairwise coprime.  "height" is l, the
    height those terms witness; verify() compares it with h.
    """
    path = konig_path(spec)
    ring = Ring(2, len(path), DEFAULT_PRIME)
    terms = []
    for pos in range(1, len(path)):
        mono = [0] * ring.nvars
        mono[ring.var_index(1, pos)] += 1
        mono[ring.var_index(2, pos + 1)] += 1
        terms.append(tuple(mono))
    coprime = all(mono_coprime(a, b) for a, b in combinations(terms, 2))
    return {
        "height": len(path) - 1,
        "path": path,
        "path_valid": validate_path(complete_multipartite(spec), path),
        "initial_terms_coprime": coprime,
    }


def sweep(specs, **options):
    """verify() every spec, reports in input order."""
    return [verify(spec, **options) for spec in specs]


def summarize(reports):
    """Aggregate row-status counts across a sweep."""
    totals = Counter({"match": 0, "mismatch": 0, "skipped": 0})
    for report in reports:
        totals.update(report.counts())
    return dict(totals)


def enumerate_specs(max_m, max_n):
    """All specs with 2 <= m <= max_m and 2 <= n <= max_n, in sorted order."""
    out = []
    for m in range(2, max_m + 1):
        for n in range(2, max_n + 1):
            for parts in _ascending_partitions(n):
                if len(parts) >= 2:
                    out.append(PartiteSpec(m, parts))
    return out


def _ascending_partitions(n, least=1):
    if n == 0:
        yield ()
        return
    for first in range(least, n + 1):
        for rest in _ascending_partitions(n - first, first):
            yield (first,) + rest
