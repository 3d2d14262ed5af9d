# Depth and regularity without a free resolution.
#
# The initial ideals here are squarefree, which unlocks the combinatorial
# route: Betti numbers of S/in(J) are ranks of reduced homology of induced
# subcomplexes of the Stanley-Reisner complex.  Depth then falls out of
# Auslander-Buchsbaum (depth = nvars - pd) and regularity is the widest
# diagonal with a nonzero entry.  Hochster's local-cohomology formula reads
# the same two numbers off the links of the faces instead, with no table.

from gbei.formulas import generalized_bei, predict
from gbei.graphs import PartiteSpec, complete_multipartite
from gbei.hochster import (SimplicialComplex, betti_table, depth_and_regularity,
                           reduced_homology_ranks)

# warm-up: homology ranks of tiny complexes, mod the default prime
hollow_triangle = SimplicialComplex(3, [0b111])       # boundary of a 2-simplex
print("hollow triangle, H~ ranks by dimension (-1, 0, 1, 2):",
      reduced_homology_ranks(hollow_triangle, [0, 1, 2]))

two_points = SimplicialComplex(2, [0b11])
print("two points:", reduced_homology_ranks(two_points, [0, 1]))

# the real use: Betti table of S/in(J) for the star K_{1,2}, m = 2
spec = PartiteSpec(2, (1, 2))
J = generalized_bei(spec.m, complete_multipartite(spec))
init = J.initial_ideal()
print()
print(f"in(J) for m={spec.m}, parts={spec.parts}: {init}")
print(f"squarefree: {init.is_squarefree()}")

table = betti_table(init)
print()
print("nonzero graded Betti numbers of S/in(J):")
for row in table.rows():
    print(f"  beta_{row['i']}, sigma={row['sigma']}  rank {row['rank']}")

nvars = init.nvars
print()
print(f"pd  = {table.projective_dimension()}")
print(f"depth = {nvars} - pd = {table.depth()}")
print(f"reg = {table.regularity()}")

depth, reg = depth_and_regularity(init)
print(f"from the links of the faces: depth = {depth}, reg = {reg}")
assert (depth, reg) == (table.depth(), table.regularity())

pred = predict(spec)
print()
print(f"closed forms predict depth = {pred.depth}, reg = {pred.reg}")
print(f"agree: {table.depth() == pred.depth and table.regularity() == pred.reg}")
