"""Runs the exact oracle against the closed-form predictions.

verify() recomputes every invariant it can from first principles — Groebner
basis, initial ideal, Hilbert series, depth and regularity from the links
of the Stanley-Reisner complex (Hochster's local-cohomology formula), the
predicted decomposition, cut sets from the definition, path validation — and
lines the results up against predict().  Nothing is shared between the two sides
beyond the spec itself, so a "match" row is a genuine independent check.

The decomposition J = I := ∩ P_T is checked without computing I.  The
containment row shows J ⊆ P_T for every T, so S/J → S/I is a graded
surjection, and it is an isomorphism iff HS(S/J) = HS(S/I).  Every P_T
but P_∅ is a variable ideal, so M = ∩_{T≠∅} P_T is generated by the
squarefree monomials on the minimal variable sets that meet each P_T's,
found on bitmasks, and HS(S/I) = HS(S/P_∅) + HS(S/M) − HS(S/(P_∅ + M)).
With in(P_∅) + M in place of P_∅ + M the sum is a lower bound on HS(S/I),
which settles the row when it reaches HS(S/J); only otherwise does P_∅ + M
get a basis, grown from P_∅'s.  A component generator that is not a single
variable raises ValueError instead of giving a verdict.

Caps are per stage: an instance too big for Buchberger still gets its cut
sets and path checked, and one past the Hochster cap still gets
dimension, Hilbert series, and multiplicity from the initial ideal.  Depth
and regularity are read off in(J) only when it is squarefree (Conca–Varbaro,
Invent. Math. 2020); otherwise those rows are skipped(squarefree-check-failed)
and the report keeps the term order the caller asked for.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations

from .formulas import generalized_bei, predict, prime_component
from .graphs import (CUT_SET_CAP, PartiteSpec, complete_multipartite,
                     cut_sets, konig_path, path_target_length, validate_path)
from .groebner import Ideal, TermOrder
# Unused here; kept because the benchmark tracer patches these by name.
from .groebner import ideals_equal, intersect  # noqa: F401
from .hilbert import (MonomialIdeal, hilbert_series, krull_dimension,
                      multiplicity)
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

    A generator that is not a single variable raises ValueError: the meet
    in _meet is exact only for variable ideals.
    """
    mask = 0
    for g in ideal.gens:
        mono = next(iter(g.terms), None)
        if len(g) != 1 or mono_degree(mono) != 1:
            raise ValueError(f"component generator {g.text()} is not a "
                             f"monomial of degree one")
        mask |= mono_mask(mono)
    return mask


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
    return MonomialIdeal(nvars, [tuple(S >> v & 1 for v in range(nvars))
                                 for S in minimal])


def _meet_series(P, variable_sets, target):
    """HS(S/(P ∩ M)), M the meet of the variable ideals on variable_sets,
    for a caller that has shown J ⊆ P ∩ M with HS(S/J) = target.

    It is HS(S/P) + HS(S/M) − HS(S/(P + M)), by 0 → S/(P ∩ M) → S/P ⊕ S/M
    → S/(P + M) → 0.  The ideals are homogeneous, A ⊆ B gives HS(S/A) ≥
    HS(S/B) coefficientwise, and in(P) + M ⊆ in(P + M); so `low`, the sum
    over in(P) + M, has target ≥ HS(S/(P ∩ M)) ≥ low, and low == target
    settles it.  Otherwise P + M grows P's basis for the exact series.
    """
    ini = P.initial_ideal()
    series = hilbert_series(ini)
    if not variable_sets:
        return series
    M = _meet(P.ring.nvars, variable_sets)
    series += hilbert_series(M)
    low = series - hilbert_series(MonomialIdeal(M.nvars, ini.gens + M.gens))
    if low == target:
        return low
    total = P.plus(Poly(P.ring, {g: 1}) for g in M.gens)
    return series - hilbert_series(total.initial_ideal())


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
        ini = J.initial_ideal(term_order)
        timing["groebner"] = (time.perf_counter() - t0) * 1000

        t0 = time.perf_counter()
        series = hilbert_series(ini)
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
        parts = [prime_component(spec.m, G, T, prime) for T in pred.cut_sets]
        variable_sets = [_variables(A) for A in parts[1:]]
        contained = all(P.contains(g) for P in parts for g in J.gens)
        computed["containment"] = contained
        computed["decomposition"] = contained and (  # _meet_series needs J ⊆ P_∅ ∩ M
            _meet_series(parts[0], variable_sets, series) == series)
        timing["decomposition"] = (time.perf_counter() - t0) * 1000

    if spec.n > CUT_SET_CAP:
        skipped["cutSets"] = "cutset-cap"
    else:
        t0 = time.perf_counter()
        computed["cutSets"] = [sorted(T) for T, _ in cut_sets(G)]
        timing["cutsets"] = (time.perf_counter() - t0) * 1000

    t0 = time.perf_counter()
    check = konig_check(spec)
    timing["konig"] = (time.perf_counter() - t0) * 1000
    computed["konig"] = {"length": len(check["path"]) - 1,
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
    """Height, path, validity, and coprimality of the relabeled leading terms.

    This is the m = 2 story: the classical edge ideal J_G has height
    h = 2n - max{n+1, 2 n_r}, and a valid path v_1, ..., v_{h+1} relabeled
    in path order yields leading terms x[1,i] x[2,i+1] that are checked —
    not assumed — to be pairwise coprime.
    """
    h = path_target_length(spec)
    witness = konig_path(spec)
    ring = Ring(2, len(witness.vertices), DEFAULT_PRIME)
    terms = []
    for pos in range(1, h + 1):
        mono = [0] * ring.nvars
        mono[ring.var_index(1, pos)] += 1
        mono[ring.var_index(2, pos + 1)] += 1
        terms.append(tuple(mono))
    coprime = all(mono_coprime(a, b) for a, b in combinations(terms, 2))
    return {
        "height": h,
        "path": witness.vertices,
        "path_valid": validate_path(complete_multipartite(spec), witness),
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
