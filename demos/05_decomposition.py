# The primary decomposition, certified the way verify() certifies it.
#
# For a complete multipartite graph the minimal primes of J_{K_m,G} are
# indexed by the cut sets: the empty set, plus the complement T_k of each
# part of size >= 2.  P_∅ is generated by the minors of the clique closure,
# and every other P_T by the variables over T.  Write M for the meet of
# those variable components, so the claim is J = I := P_∅ ∩ M.
#
# No intersection of polynomial ideals is computed.  If J lies in every
# component, S/J maps onto S/I, and the map is an isomorphism exactly when
# HS(S/J) = HS(S/I).  HS(S/I) = HS(S/P_∅) + HS(S/M) − HS(S/(P_∅ + M)), and
# the same sum over in(P_∅) + M, which lies inside in(P_∅ + M), is a lower
# bound on it.  So containment plus HS(S/J) = that lower bound proves J = I.
#
# verify() reaches HS(S/J) with no series of J at all: containment gives
# in(J) ⊆ in(P_∅) ∩ M under one term order, and once every generator of
# in(P_∅) ∩ M lies in in(J), the two are equal, and HS(S/J) is the bound.

from gbei.formulas import generalized_bei, predict, prime_component
from gbei.graphs import PartiteSpec, complete_multipartite, cut_sets
from gbei.hilbert import MonomialIdeal, hilbert_series
from gbei.rings import mono_lcm

spec = PartiteSpec(2, (2, 2))    # K_{2,2}: parts {1,2}, {3,4}
G = complete_multipartite(spec)
J = generalized_bei(spec.m, G)
nvars = J.ring.nvars

print(f"spec m={spec.m}, parts={spec.parts}")
brute = [tuple(sorted(T)) for T, _ in cut_sets(G)]
family = predict(spec).components
print(f"cut sets, brute-forced from the graph: {brute}")
print(f"the predicted family:                  {[T for _, T in family]}")

print()
components = [(kind, T, prime_component(spec.m, G, T)) for kind, T in family]
for kind, T, P in components:
    print(f"component {kind} over T = {T}: {len(P.gens)} generators")
P0 = next(P for kind, _, P in components if kind == "determinantal")
variable_parts = [P for kind, _, P in components if kind == "variables"]

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
in_J = J.initial_ideal()
series = hilbert_series(in_J)
print(f"M has {len(M.gens)} minimal generators")
print(f"HS(S/J)                                 = {series.text()}")
print(f"HS(S/P_∅) + HS(S/M) − HS(S/(in(P_∅) + M)) = {low.text()}")
print(f"equal, so J = P_∅ ∩ M:                   {series == low}")

# Step 3: the same proof on generators.  in(P_∅) ∩ M is generated by the
# lcms of a generator of in(P_∅) and one of M; each lies in in(J), and
# each generator of in(J) lies in in(P_∅) ∩ M, so the two are equal and
# HS(S/J) is the bound.  verify() writes in(J)'s generators down from
# checked cofactor identities instead of building J's Gröbner basis.
both = MonomialIdeal(nvars, [mono_lcm(a, t) for a in in_P0.gens for t in M.gens])
print()
print(f"in(P_∅) ∩ M has {len(both.gens)} minimal generators, in(J) {len(in_J.gens)}")
print(f"each generator of in(P_∅) ∩ M in in(J): {all(in_J.contains(g) for g in both.gens)}")
print(f"each generator of in(J) in in(P_∅) ∩ M: {all(both.contains(g) for g in in_J.gens)}")
print(f"in(J) = in(P_∅) ∩ M:                    {in_J == both}")
