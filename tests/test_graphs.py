import json
import random
from itertools import combinations

import pytest

from gbei.errors import CapExceededError
from gbei.graphs import (
    PartiteSpec,
    SimpleGraph,
    complete_graph,
    complete_multipartite,
    connected_components,
    cut_sets,
    graph_from_json,
    konig_path,
    load_graph,
    path_target_length,
    validate_path,
)


# ---------------------------------------------------------------------------
# PartiteSpec

def test_spec_basics():
    spec = PartiteSpec(3, (1, 2, 2))
    assert spec.r == 3
    assert spec.n == 5
    assert spec.s == 2
    assert not spec.all_ones
    assert spec.blocks() == ((1,), (2, 3), (4, 5))
    assert spec.block(2) == (2, 3)
    assert spec.complement(2) == (1, 4, 5)
    assert [spec.part_of(v) for v in range(1, 6)] == [1, 2, 2, 3, 3]


def test_spec_all_ones():
    spec = PartiteSpec(4, (1, 1, 1))
    assert spec.all_ones
    assert spec.s is None


def test_spec_of_sorts_parts():
    assert PartiteSpec.of(2, [3, 1, 2]).parts == (1, 2, 3)


def test_spec_validation():
    with pytest.raises(ValueError):
        PartiteSpec(1, (1, 2))
    with pytest.raises(ValueError):
        PartiteSpec(2, (3,))
    with pytest.raises(ValueError):
        PartiteSpec(2, (0, 2))
    with pytest.raises(ValueError):
        PartiteSpec(2, (2, 1))
    with pytest.raises(ValueError):
        PartiteSpec(2, (1, 2)).part_of(4)


# ---------------------------------------------------------------------------
# graphs

def test_simple_graph_normalization():
    G = SimpleGraph.from_edges(3, [(2, 1), (1, 3)])
    assert G.has_edge(1, 2) and G.has_edge(2, 1)
    assert not G.has_edge(2, 3)
    with pytest.raises(ValueError):
        SimpleGraph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        SimpleGraph.from_edges(3, [(1, 4)])
    with pytest.raises(ValueError):
        SimpleGraph(0, frozenset())


def test_complete_graph():
    assert len(complete_graph(4).edges) == 6
    assert complete_graph(1).edges == frozenset()


def test_complete_multipartite_edges():
    spec = PartiteSpec(2, (1, 2, 2))
    G = complete_multipartite(spec)
    # edge iff the endpoints live in different blocks
    for u in range(1, 6):
        for v in range(u + 1, 6):
            expected = spec.part_of(u) != spec.part_of(v)
            assert G.has_edge(u, v) == expected
    n, sizes = spec.n, spec.parts
    assert 2 * len(G.edges) == n * n - sum(p * p for p in sizes)


def test_connected_components():
    G = SimpleGraph.from_edges(5, [(1, 2), (4, 5)])
    assert connected_components(G) == [(1, 2), (3,), (4, 5)]
    assert connected_components(G, within=[2, 3, 4]) == [(2,), (3,), (4,)]
    assert connected_components(G, within=[4, 5]) == [(4, 5)]


# ---------------------------------------------------------------------------
# cut sets
#
# T qualifies when every v in T is a cut point of G - (T - v); the empty set
# always does.  Hand-checked small cases.

def test_cut_sets_path():
    G = SimpleGraph.from_edges(3, [(1, 2), (2, 3)])
    assert cut_sets(G) == [(frozenset(), 1), (frozenset({2}), 2)]


def test_cut_sets_star():
    G = SimpleGraph.from_edges(4, [(1, 2), (1, 3), (1, 4)])
    assert cut_sets(G) == [(frozenset(), 1), (frozenset({1}), 3)]


def test_cut_sets_triangle():
    assert cut_sets(complete_graph(3)) == [(frozenset(), 1)]


def test_cut_sets_two_blocks():
    G = complete_multipartite(PartiteSpec(2, (2, 2)))
    found = [sorted(T) for T, _ in cut_sets(G)]
    assert found == [[], [1, 2], [3, 4]]


def test_cut_sets_longer_path():
    # 1-2-3-4-5: the interior vertices, one or two at a time (non-adjacent)
    G = SimpleGraph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
    found = [sorted(T) for T, _ in cut_sets(G)]
    assert found == [[], [2], [3], [4], [2, 4]]


def test_cut_sets_member_keeps_its_two_neighbours():
    # 1 joins T first with only 2 and 3 outside; once both join, 1 touches no
    # component, so {1, 2, 3} fails although 2 and 3 each still split theirs
    G = SimpleGraph.from_edges(7, [(1, 2), (1, 3), (2, 4), (2, 5), (3, 6), (3, 7)])
    found = [sorted(T) for T, _ in cut_sets(G)]
    assert found == [[], [1], [2], [3], [2, 3]]


def test_cut_sets_cap():
    G = SimpleGraph.from_edges(17, [])
    with pytest.raises(CapExceededError):
        cut_sets(G)
    assert cut_sets(SimpleGraph.from_edges(4, [])) == [(frozenset(), 4)]


# Closed forms at the cap, n = 16.  A vertex of a path or cycle is a cut point
# of what is left exactly when both its neighbours are left, so the cut sets
# are the independent sets that avoid the ends (path) or have size != 1
# (cycle), and removing an independent T leaves |T| + 1 or |T| arcs.

def _independent_sets(vertices, G):
    return [frozenset(T) for k in range(len(vertices) + 1)
            for T in combinations(vertices, k)
            if not any(G.has_edge(u, v) for u, v in combinations(T, 2))]


def _in_order(pairs):
    return sorted(pairs, key=lambda item: (len(item[0]), sorted(item[0])))


def test_cut_sets_path_at_the_cap():
    G = SimpleGraph.from_edges(16, [(v, v + 1) for v in range(1, 16)])
    found = cut_sets(G)
    assert len(found) == 987  # F_16, the independent sets of a 14-vertex path
    assert found == _in_order((T, len(T) + 1)
                              for T in _independent_sets(range(2, 16), G))


def test_cut_sets_cycle_at_the_cap():
    G = SimpleGraph.from_edges(16, [(v, v % 16 + 1) for v in range(1, 17)])
    found = cut_sets(G)
    assert len(found) == 2191  # L_16 - 16: no single vertex cuts a cycle
    assert found == _in_order((T, max(len(T), 1))
                              for T in _independent_sets(range(1, 17), G)
                              if len(T) != 1)


def test_cut_sets_dense_at_the_cap():
    assert cut_sets(complete_graph(16)) == [(frozenset(), 1)]
    G = complete_multipartite(PartiteSpec(2, (8, 8)))
    assert cut_sets(G) == [(frozenset(), 1), (frozenset(range(1, 9)), 8),
                           (frozenset(range(9, 17)), 8)]


def _definition_cut_sets(nx, G):
    """Cut sets straight from the definition, counting components with networkx."""
    H = nx.Graph(G.edges)
    H.add_nodes_from(range(1, G.n_vertices + 1))
    counts = {}
    for k in range(G.n_vertices + 1):
        for T in combinations(range(1, G.n_vertices + 1), k):
            counts[frozenset(T)] = nx.number_connected_components(
                H.subgraph(set(H) - set(T)))
    return _in_order((T, c) for T, c in counts.items()
                     if all(c > counts[T - {v}] for v in T))


@pytest.mark.parametrize("seed", range(30))
def test_cut_sets_match_networkx(seed):
    nx = pytest.importorskip("networkx")
    rng = random.Random(f"cut-sets-{seed}")
    n, density = 1 + seed % 10, seed / 29
    G = SimpleGraph.from_edges(n, [e for e in combinations(range(1, n + 1), 2)
                                   if rng.random() < density])
    assert cut_sets(G) == _definition_cut_sets(nx, G)


# ---------------------------------------------------------------------------
# path construction

def test_path_target_length():
    assert path_target_length(PartiteSpec(2, (1, 2))) == 2
    assert path_target_length(PartiteSpec(2, (2, 2))) == 3
    assert path_target_length(PartiteSpec(2, (1, 1, 2))) == 3
    assert path_target_length(PartiteSpec(2, (1, 1, 1))) == 2
    assert path_target_length(PartiteSpec(2, (1, 5))) == 2


def test_konig_path_pinned():
    assert konig_path(PartiteSpec(2, (2, 2))) == (3, 1, 4, 2)
    assert konig_path(PartiteSpec(2, (1, 1, 2))) == (3, 1, 4, 2)
    assert konig_path(PartiteSpec(2, (1, 1, 1))) == (1, 2, 3)


def test_konig_path_dominant_part():
    # n_r > n - n_r: alternate out of the big block, one extra at the end
    assert konig_path(PartiteSpec(2, (1, 3))) == (2, 1, 3)
    assert konig_path(PartiteSpec(2, (2, 5))) == (3, 1, 4, 2, 5)


def test_konig_path_exhaustive_small():
    def partitions(n, least=1):
        if n == 0:
            yield ()
            return
        for first in range(least, n + 1):
            for rest in partitions(n - first, first):
                yield (first,) + rest

    for n in range(2, 9):
        for parts in partitions(n):
            if len(parts) < 2:
                continue
            spec = PartiteSpec(2, parts)
            path = konig_path(spec)
            assert type(path) is tuple
            assert len(path) == path_target_length(spec) + 1
            assert validate_path(complete_multipartite(spec), path)


def test_validate_path_on_tuples():
    G = SimpleGraph.from_edges(4, [(1, 2), (2, 3), (1, 3)])
    for verts in [(1, 2, 3), (2,), ()]:
        assert validate_path(G, verts) is True, verts
    for verts in [(1, 2, 1),      # a repeated vertex
                  (1, 2, 3, 1),   # a cycle, every step an edge
                  (3, 4),         # not an edge: 4 is isolated
                  (3, 5)]:        # 5 is outside the graph
        assert validate_path(G, verts) is False, verts


# ---------------------------------------------------------------------------
# JSON graphs

def test_graph_from_json():
    G = graph_from_json({"n": 4, "edges": [[1, 2], [3, 4]]})
    assert G.n_vertices == 4
    assert G.has_edge(1, 2) and G.has_edge(3, 4)


@pytest.mark.parametrize("doc", [
    {"edges": []},
    {"n": 3},
    {"n": 0, "edges": []},
    {"n": "3", "edges": []},
    {"n": 3, "edges": [[1, 2, 3]]},
    {"n": 3, "edges": [[1, 1]]},
    {"n": 3, "edges": [[1, 9]]},
    [1, 2],
    {"n": True, "edges": []},
    {"n": 3, "edges": 5},
    {"n": 3, "edges": [5]},
    {"n": 3, "edges": [[1, None]]},
    {"n": 3, "edges": [[1.9, 2]]},
    {"n": 3, "edges": [["1", "2"]]},
    {"n": 3, "edges": [[True, 2]]},
])
def test_graph_from_json_rejects(doc):
    with pytest.raises(ValueError):
        graph_from_json(doc)


def test_load_graph(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": 3, "edges": [[1, 2], [2, 3]]}))
    G = load_graph(path)
    assert G.n_vertices == 3 and len(G.edges) == 2


@pytest.mark.parametrize("within", [[0, 1], [5]])
def test_connected_components_rejects_vertices_outside_the_graph(within):
    G = SimpleGraph.from_edges(4, [(1, 2), (3, 4)])
    with pytest.raises(ValueError, match="outside 1..4"):
        connected_components(G, within=within)
