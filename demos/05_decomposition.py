# The primary decomposition, certified the way verify() certifies it.
#
# For a complete multipartite graph the minimal primes of J_{K_m,G} are
# indexed by the cut sets: the empty set, plus the complement T_k of each
# part of size >= 2.  P_∅ is generated by the minors of the clique closure,
# and every other P_T by the variables over T.  Write M for the meet of
# those variable components, so the claim is J = I := P_∅ ∩ M.
#
# No intersection is computed.  If J lies in every component, S/J maps
# onto S/I, and the map is an isomorphism exactly when HS(S/J) = HS(S/I).
# HS(S/I) = HS(S/P_∅) + HS(S/M) − HS(S/(P_∅ + M)), and the same sum over
# in(P_∅) + M, which lies inside in(P_∅ + M), is a lower bound on it.  So
# containment plus HS(S/J) = that lower bound proves J = I.

from gbei.formulas import (decomposition_components, generalized_bei,
                           predicted_cut_sets)
from gbei.graphs import PartiteSpec, complete_multipartite, cut_sets
from gbei.hilbert import MonomialIdeal, hilbert_series
from gbei.rings import mono_lcm

spec = PartiteSpec(2, (2, 2))    # K_{2,2}: parts {1,2}, {3,4}
G = complete_multipartite(spec)
J = generalized_bei(spec.m, G)
nvars = J.ring.nvars

print(f"spec m={spec.m}, parts={spec.parts}")
brute = [tuple(sorted(T)) for T, _ in cut_sets(G)]
print(f"cut sets, brute-forced from the graph: {brute}")
print(f"cut sets, by formula:                  {list(predicted_cut_sets(spec))}")

components = decomposition_components(spec)
print()
for T, P in components:
    label = "determinantal (T = empty)" if not T else f"variables over T = {T}"
    print(f"component {label}: {len(P.gens)} generators")
P0 = components[0][1]
variable_parts = [P for _, P in components[1:]]

# Step 1: J's generators lie in P_∅ and in each variable component.
print()
print(f"J inside P_∅:                 {all(P0.contains(g) for g in J.gens)}")
print(f"J inside each variable ideal: "
      f"{all(P.contains(g) for P in variable_parts for g in J.gens)}")

# Step 2: M is generated by the lcms of one variable from each component,
# and the Hilbert series of S/J meets the lower bound.
meet = [(0,) * nvars]
for P in variable_parts:
    meet = [mono_lcm(a, b) for a in meet for (b,) in (g.terms for g in P.gens)]
M = MonomialIdeal(nvars, meet)
in_P0 = P0.initial_ideal()
low = (hilbert_series(in_P0) + hilbert_series(M)
       - hilbert_series(MonomialIdeal(nvars, in_P0.gens + M.gens)))
series = hilbert_series(J.initial_ideal())
print(f"M has {len(M.gens)} minimal generators")
print(f"HS(S/J)                                 = {series.text()}")
print(f"HS(S/P_∅) + HS(S/M) − HS(S/(in(P_∅) + M)) = {low.text()}")
print(f"equal, so J = P_∅ ∩ M:                   {series == low}")
