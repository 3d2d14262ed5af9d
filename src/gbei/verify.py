"""Runs the exact oracle against the closed-form predictions.

verify() recomputes every invariant it can from first principles — Groebner
basis, initial ideal, Hilbert series, depth and regularity from the links
of the Stanley-Reisner complex (Hochster's local-cohomology formula), the
predicted decomposition, cut sets from the definition, path validation — and
lines the results up against predict().  Nothing is shared between the two sides
beyond the spec itself, so a "match" row is a genuine independent check.

The decomposition J = I := ∩ P_T is checked without computing I, before
J's basis.  Every P_T but P_∅ is a variable ideal, which holds a
polynomial exactly when each of its terms holds one of its variables, a
test on support bitmasks, so the containment row J ⊆ P_T divides by P_∅'s
basis only.  That basis is built under the Segre floor: P_∅ ⊆ ker(x[i,j]
-> s_i t_j), checked, gives HS(S/P_∅) ≥ HS(k[s_i t_j]).  The meet M of
the other P_T is generated by the squarefree monomials on the minimal
variable sets meeting each P_T's, and HS(S/I) = HS(S/P_∅) + HS(S/M) −
HS(S/(P_∅ + M)); with in(P_∅) + M for P_∅ + M the sum is `low` ≤ HS(S/I).
Once J ⊆ I, S/J → S/I is a graded surjection, so low is a floor for J's
basis, and J = I iff HS(S/J) = HS(S/I): low == HS(S/J) settles the row,
and only otherwise does P_∅ + M get a basis.  A component generator that
is not a single variable raises ValueError instead of giving a verdict.

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
from itertools import combinations
from math import comb

from .formulas import generalized_bei, predict, prime_component
from .graphs import (CUT_SET_CAP, PartiteSpec, complete_multipartite,
                     cut_sets, konig_path, path_target_length, validate_path)
from .groebner import Ideal, TermOrder
# Unused here; kept because the benchmark tracer patches these by name.
from .groebner import ideals_equal, intersect  # noqa: F401
from .hilbert import (HilbertSeries, MonomialIdeal, _mul_one_minus_t_power,
                      hilbert_series, krull_dimension, multiplicity)
from .hochster import HOCHSTER_CAP, depth_and_regularity
# Unused here; kept because the benchmark tracer patches it by name.
from .hochster import betti_table  # noqa: F401
from .rings import (DEFAULT_PRIME, Poly, Ring, minimal_masks, mono_coprime,
                    mono_degree, mono_mask)

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
        out = {"match": 0, "mismatch": 0, "skipped": 0}
        for entry in self.invariants:
            status = entry["status"]
            out["skipped" if status.startswith("skipped") else status] += 1
        return out

    def to_json(self):
        return {
            "spec": {"m": self.spec.m, "parts": list(self.spec.parts)},
            "order": self.order,
            "prime": self.prime,
            "invariants": self.invariants,
            "squarefree": self.squarefree,
            "timingMs": {k: round(v, 3) for k, v in self.timing_ms.items()},
        }


def _variables(ideal):
    """The bitmask of the variables that generate a variable ideal.

    A generator that is not a single variable raises ValueError: the
    support test and the meet in _meet are exact only for variable ideals.
    """
    mask = 0
    for g in ideal.gens:
        mono = next(iter(g.terms), None)
        if len(g) != 1 or mono_degree(mono) != 1:
            raise ValueError(f"component generator {g.text()} is not a "
                             f"monomial of degree one")
        mask |= mono_mask(mono)
    return mask


def _in_variable_ideals(polys, variable_sets):
    """Whether every poly lies in each variable ideal on the bitmasks: a
    poly does exactly when each of its terms holds one of the variables."""
    supports = [mono_mask(mono) for f in polys for mono in f.terms]
    return all(s & V for V in variable_sets for s in supports)


def _meet(nvars, variable_sets):
    """M, the intersection of the variable ideals on the given bitmasks.

    x^S lies in all of them exactly when S meets every set, so M is
    generated by the minimal such S, grown one set V at a time: an S that
    misses V gains each variable of V in turn, and `minimal_masks` keeps
    the minimal results.
    """
    minimal = [0]
    for V in variable_sets:
        lows = [1 << v for v in range(nvars) if V >> v & 1]
        minimal = minimal_masks({S if S & V else S | low
                                 for S in minimal for low in lows})
    return MonomialIdeal._of_minimal(
        nvars, [tuple(S >> v & 1 for v in range(nvars)) for S in minimal])


def _segre_floor(P):
    """HS(k[s_i t_j]) = sum_d C(m+d-1, d) C(n+d-1, d) t^d, P's ring m x n,
    if every generator of P maps to 0 under φ: x[i,j] -> s_i t_j, else None.
    Then P ⊆ ker φ and S/ker φ ≅ k[s_i t_j], so it is at most HS(S/P).  Its
    Hilbert function is a polynomial of degree m + n - 2 in d, so its first
    m + n - 1 terms times (1 - t)^(m+n-1) give the numerator."""
    m, n, p = P.ring.rows, P.ring.cols, P.ring.prime
    for g in P.gens:
        image = Counter()
        for mono, c in g.terms.items():
            image[tuple(sum(mono[i * n:i * n + n]) for i in range(m)),
                  tuple(sum(mono[j::n]) for j in range(n))] += c
        if any(c % p for c in image.values()):
            return None
    h = [comb(m + d - 1, d) * comb(n + d - 1, d) for d in range(m + n - 1)]
    return HilbertSeries(_mul_one_minus_t_power(h, m + n - 1)[:m + n - 1], m + n - 1)


def _meet_series(P, variable_sets, exact=False):
    """HS(S/(P ∩ M)), M the meet of the variable ideals on variable_sets,
    when exact; else `low`, a lower bound on it.  Both are HS(S/P) + HS(S/M)
    − HS(S/X), by 0 → S/(P ∩ M) → S/P ⊕ S/M → S/(P + M) → 0, with X = P + M
    from its generators' basis, or X = in(P) + M ⊆ in(P + M) for low: the
    ideals are homogeneous, and A ⊆ B gives HS(S/A) ≥ HS(S/B).  P's basis
    is built under `_segre_floor`, which is HS(S/P) if the basis reaches it.
    """
    found = P._basis(P.default_order(), _segre_floor(P))[2]
    ini = P.initial_ideal()
    series = hilbert_series(ini) if found is None else found
    M = _meet(P.ring.nvars, variable_sets)
    plus = (Ideal(P.ring, P.gens + tuple(Poly(P.ring, {g: 1}) for g in M.gens))
            .initial_ideal() if exact else MonomialIdeal(M.nvars, ini.gens + M.gens))
    return series + hilbert_series(M) - hilbert_series(plus)


def verify(spec: PartiteSpec, *, prime: int = DEFAULT_PRIME,
           order: str = "lex-row-major", groebner_cap: int = GROEBNER_CAP,
           hochster_cap: int = HOCHSTER_CAP) -> InvariantReport:
    """Full oracle run against predict(spec); see the module docstring.

    A non-prime ``prime``, one of 2^64 or more, or an unknown term order
    raises ValueError before any stage runs, whatever the caps are.
    """
    term_order = TermOrder.by_name(order, Ring(spec.m, spec.n, prime))
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
        t0 = time.perf_counter()
        J = generalized_bei(spec.m, G, prime)
        parts = [prime_component(spec.m, G, T, prime) for T in pred.cut_sets]
        variable_sets = [_variables(A) for A in parts[1:]]
        low = _meet_series(parts[0], variable_sets)
        contained = (all(parts[0].contains(g) for g in J.gens)
                     and _in_variable_ideals(J.gens, variable_sets))
        timing["decomposition"] = (time.perf_counter() - t0) * 1000

        t0 = time.perf_counter()
        # J ⊆ P_∅ ∩ M makes low a floor: HS(S/J) ≥ HS(S/(P_∅ ∩ M)) ≥ low
        found = J._basis(term_order, low if contained else None)[2]
        ini = J.initial_ideal(term_order)
        timing["groebner"] = (time.perf_counter() - t0) * 1000

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
            low == series or _meet_series(parts[0], variable_sets, exact=True) == series)
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
    totals = {"match": 0, "mismatch": 0, "skipped": 0}
    for report in reports:
        for name, value in report.counts().items():
            totals[name] += value
    return totals


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
