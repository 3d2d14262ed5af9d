# How many pairwise-coprime initial terms can the generators give?
#
# A classical lower bound: if k of the generators have pairwise coprime
# lex leading terms, those generators already form a regular-sequence-like
# certificate, so height(J) >= k.  The bound is labeling-sensitive -- the
# leading term of a minor depends on how the graph's vertices are numbered,
# while the height does not.  K_{2,2} with m = 3 makes the gap concrete.

from itertools import combinations

from gbei.formulas import generalized_bei, predict
from gbei.graphs import PartiteSpec, SimpleGraph, complete_multipartite
from gbei.rings import TermOrder, mono_coprime, mono_mask


def max_coprime_subset(monomials):
    """Size of the largest pairwise-coprime subset (exact backtracking).

    Supports become bitmasks; the search includes each candidate before
    excluding it and prunes any branch that cannot beat the best found.
    """
    supports = [mono_mask(mono) for mono in monomials]
    if not supports:
        raise ValueError("need at least one monomial")
    best = 0
    total = len(supports)

    def walk(idx, used, count):
        nonlocal best
        if count > best:
            best = count
        if idx == total or count + (total - idx) <= best:
            return
        support = supports[idx]
        if used & support == 0:
            walk(idx + 1, used | support, count + 1)
        walk(idx + 1, used, count)

    walk(0, 0, 0)
    return best


def leading_terms(J):
    order = TermOrder.lex_row_major(J.ring)
    return [g.leading_monomial(order) for g in J.gens], order


def mono_text(ring, mono):
    return "*".join(ring.var_name(v) + (f"^{e}" if e > 1 else "")
                    for v, e in enumerate(mono) if e)


def coprime_witness(monos, size):
    for subset in combinations(range(len(monos)), size):
        if all(mono_coprime(monos[a], monos[b])
               for a, b in combinations(subset, 2)):
            return subset
    return None


def main():
    spec = PartiteSpec(3, (2, 2))
    print(f"height of J_{{K_3, K_{{2,2}}}} by formula: {predict(spec).height}")
    print()

    # labeling 1: the parts are the consecutive blocks {1,2} and {3,4}
    block = complete_multipartite(spec)
    J_block = generalized_bei(3, block)
    monos, order = leading_terms(J_block)
    best = max_coprime_subset(monos)
    print(f"block labeling  (edges {sorted(block.edges)}):")
    print(f"  {len(J_block.gens)} generators, max pairwise-coprime leads: {best}")

    # labeling 2: the same graph numbered around the 4-cycle 1-2-3-4-1
    cycle = SimpleGraph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    J_cycle = generalized_bei(3, cycle)
    monos, order = leading_terms(J_cycle)
    best = max_coprime_subset(monos)
    print(f"cycle labeling  (edges {sorted(cycle.edges)}):")
    print(f"  {len(J_cycle.gens)} generators, max pairwise-coprime leads: {best}")

    witness = coprime_witness(monos, best)
    print()
    print("one witness under the cycle labeling:")
    for i in witness:
        lead = mono_text(J_cycle.ring, monos[i])
        print(f"  {J_cycle.gens[i].text(order)}   lead {lead}")

    # Same ideal up to renaming columns, same height 6; but the block labeling
    # certifies only 4 of it and the cycle labeling 5.  Neither reaches 6: the
    # coprime-leads bound is genuinely weaker than the height here.


if __name__ == "__main__":
    main()
