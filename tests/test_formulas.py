"""The closed-form predictions, checked against each other and small oracles.

Most of the heavy agreement testing lives in test_verify and the acceptance
suite; here the formulas are exercised directly: pinned values, internal
consistency (the series must know the dimension and the multiplicity), and
the cut-set description against enumeration from the definition.
"""

from itertools import combinations

import pytest

from gbei.formulas import (
    _minor,
    bipartite_multiplicity,
    decomposition_components,
    generalized_bei,
    pair_ideal,
    predict,
    predicted_cut_sets,
    predicted_depth,
    predicted_dimension,
    predicted_hilbert,
    predicted_multiplicity,
    predicted_regularity,
    prime_component,
)
from gbei.graphs import (
    PartiteSpec,
    complete_graph,
    complete_multipartite,
    cut_sets,
    path_target_length,
)
from gbei.hilbert import krull_dimension, multiplicity
from gbei.rings import Ring
from gbei.verify import enumerate_specs


def _partitions(n, least=1):
    if n == 0:
        yield ()
        return
    for first in range(least, n + 1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _specs(max_m, max_n):
    for m in range(2, max_m + 1):
        for n in range(2, max_n + 1):
            for parts in _partitions(n):
                if len(parts) >= 2:
                    yield PartiteSpec(m, parts)


# ---------------------------------------------------------------------------
# generators

def test_pair_ideal_generators():
    R = Ring(2, 3)
    J = pair_ideal(complete_graph(2), complete_graph(3), R)
    texts = sorted(g.text() for g in J.gens)
    assert texts == [
        "x[1,1]*x[2,2] + -x[1,2]*x[2,1]",
        "x[1,1]*x[2,3] + -x[1,3]*x[2,1]",
        "x[1,2]*x[2,3] + -x[1,3]*x[2,2]",
    ]


@pytest.mark.parametrize("prime", [2, 32003])
@pytest.mark.parametrize("rows, cols", [(2, 3), (3, 4)])
def test_minor_equals_the_minor_built_by_poly_arithmetic(prime, rows, cols):
    ring = Ring(rows, cols, prime)
    x = ring.variable
    for i, j in combinations(range(1, rows + 1), 2):
        for k, l in combinations(range(1, cols + 1), 2):
            minor = _minor(ring, i, j, k, l)
            assert minor == x(i, k) * x(j, l) - x(i, l) * x(j, k)
            assert len(minor) == 2


def test_generalized_bei_shape():
    spec = PartiteSpec(3, (2, 2))
    J = generalized_bei(3, complete_multipartite(spec), prime=101)
    assert (J.ring.rows, J.ring.cols, J.ring.prime) == (3, 4, 101)
    assert len(J.gens) == 3 * 4  # C(3,2) row pairs x 4 edges


# ---------------------------------------------------------------------------
# dimension, depth, regularity

@pytest.mark.parametrize("m,parts,dim,depth,reg", [
    (2, (1, 2), 4, 4, 2),
    (2, (2, 2), 5, 4, 2),
    (2, (1, 1, 2), 5, 4, 2),
    (3, (2, 2), 6, 5, 2),
    (3, (1, 3), 9, 6, 3),
    (5, (1, 2), 10, 7, 2),
    (2, (2, 5), 10, 4, 2),
])
def test_pinned_invariants(m, parts, dim, depth, reg):
    spec = PartiteSpec(m, parts)
    assert predicted_dimension(spec) == dim
    assert predicted_depth(spec) == depth
    assert predicted_regularity(spec) == reg


def test_regularity_case_boundaries():
    # m >= n, then m > n_r, then neither
    assert predicted_regularity(PartiteSpec(4, (1, 3))) == 3   # m = n
    assert predicted_regularity(PartiteSpec(3, (1, 3))) == 3   # m = n_r < n
    assert predicted_regularity(PartiteSpec(4, (2, 3))) == 3   # n_r < m < n
    assert predicted_regularity(PartiteSpec(2, (3, 3))) == 2   # m < n_r


def test_all_ones_is_cohen_macaulay():
    # the clique case: dim = depth = m + n - 1 and reg = min(m-1, n-1)
    for m in range(2, 6):
        for r in range(2, 6):
            spec = PartiteSpec(m, (1,) * r)
            assert predicted_dimension(spec) == m + r - 1
            assert predicted_depth(spec) == m + r - 1
            assert predicted_regularity(spec) == min(m - 1, r - 1)


def test_depth_never_exceeds_dimension():
    for spec in _specs(6, 7):
        assert predicted_depth(spec) <= predicted_dimension(spec)


# ---------------------------------------------------------------------------
# Hilbert series and multiplicity

def test_pinned_series():
    assert predicted_hilbert(PartiteSpec(2, (1, 2))).numerator == (1, 2, 1)
    assert predicted_hilbert(PartiteSpec(2, (1, 2))).pole == 4
    s = predicted_hilbert(PartiteSpec(2, (2, 2)))
    assert (s.numerator, s.pole) == ((1, 3, 2, -2), 5)
    assert s.at_one() == 4


def test_series_knows_dimension_and_multiplicity():
    for spec in _specs(5, 6):
        series = predicted_hilbert(spec)
        assert krull_dimension(series) == predicted_dimension(spec)
        assert multiplicity(series) >= 1


def test_multiplicity_closed_form_is_n_of_one_of_the_series():
    specs = list(enumerate_specs(12, 12))
    assert len(specs) == 2849
    for spec in specs:
        assert predicted_multiplicity(spec) == \
            multiplicity(predicted_hilbert(spec)), spec


def test_bipartite_table_against_series():
    for m in range(2, 7):
        for n1 in range(1, 7):
            for n2 in range(max(n1, 2), 7):
                spec = PartiteSpec(m, (n1, n2))
                assert bipartite_multiplicity(spec) == \
                    multiplicity(predicted_hilbert(spec)), spec


def test_segre_multiplicity_outside_table():
    # parts (1, 1) are outside the case table: the quotient is the Segre
    # product scroll, whose degree is m, not the 2*n_2 = 2 the third case
    # would claim once m >= 3
    for m in range(2, 7):
        assert multiplicity(predicted_hilbert(PartiteSpec(m, (1, 1)))) == m
    with pytest.raises(ValueError):
        bipartite_multiplicity(PartiteSpec(3, (1, 1)))


@pytest.mark.parametrize("m,parts,mult", [
    (2, (1, 2), 4),
    (2, (2, 2), 4),
    (2, (2, 3), 6),
    (2, (2, 5), 1),
    (3, (2, 2), 12),
])
def test_pinned_multiplicities(m, parts, mult):
    assert bipartite_multiplicity(PartiteSpec(m, parts)) == mult


def test_bipartite_table_needs_two_parts():
    with pytest.raises(ValueError):
        bipartite_multiplicity(PartiteSpec(2, (1, 1, 2)))


# ---------------------------------------------------------------------------
# cut sets and components

def test_pinned_cut_sets():
    assert predicted_cut_sets(PartiteSpec(2, (1, 2))) == ((), (1,))
    assert predicted_cut_sets(PartiteSpec(2, (1, 1, 2))) == ((), (1, 2))
    assert predicted_cut_sets(PartiteSpec(2, (2, 2))) == ((), (3, 4), (1, 2))
    assert predicted_cut_sets(PartiteSpec(3, (1, 1, 1))) == ((),)


def test_cut_sets_formula_against_brute_force():
    # the description C(G) = {empty} + one complement per part of size >= 2
    # must coincide with the definition, part by part
    for n in range(2, 13):
        for parts in _partitions(n):
            if len(parts) < 2:
                continue
            spec = PartiteSpec(2, parts)
            G = complete_multipartite(spec)
            expected = sorted(
                (tuple(sorted(T)) for T in predicted_cut_sets(spec)),
                key=lambda T: (len(T), T))
            found = [tuple(sorted(T)) for T, _ in cut_sets(G)]
            assert found == expected, spec


def test_components_and_prime_component():
    spec = PartiteSpec(2, (1, 2))
    comps = decomposition_components(spec)
    assert [T for T, _ in comps] == [(), (1,)]
    G = complete_multipartite(spec)
    P0 = prime_component(2, G, ())
    # the clique closure: all C(2,2)=1 row pairs times C(3,2)=3 column pairs
    assert len(P0.gens) == 3
    P1 = prime_component(2, G, (1,))
    # T = {1} leaves only the isolated block {2, 3}: a pure variable ideal
    assert len(P1.gens) == 2
    assert all(g.total_degree() == 1 for g in P1.gens)
    for g in generalized_bei(2, G).gens:
        assert P0.contains(g) and P1.contains(g)


# ---------------------------------------------------------------------------
# the assembled prediction

def test_predict_json_schema():
    doc = predict(PartiteSpec(3, (2, 2))).to_json()
    assert set(doc) == {"dim", "depth", "reg", "mult", "cd", "height",
                        "path", "hilbert", "cutSets", "components"}
    assert doc["dim"] == 6 and doc["height"] == 6
    assert doc["cd"] == {"exact": 7}
    assert doc["hilbert"]["pole"] == 6
    assert doc["cutSets"] == [[], [3, 4], [1, 2]]
    assert doc["components"] == [
        {"kind": "determinantal", "T": []},
        {"kind": "variables", "T": [3, 4]},
        {"kind": "variables", "T": [1, 2]},
    ]
    assert len(doc["path"]) == path_target_length(PartiteSpec(3, (2, 2))) + 1


def test_cd_variants():
    assert predict(PartiteSpec(3, (2, 2))).cd == ("exact", 7)
    assert predict(PartiteSpec(3, (2, 2)), char_zero=True).cd == \
        ("interval", 7, 9)
    assert predict(PartiteSpec(2, (1, 1, 1))).cd == ("unsupported",)
    assert predict(PartiteSpec(2, (1, 1, 1))).cd_json() == {"unsupported": True}


def test_predict_height_complements_dimension():
    for spec in _specs(4, 5):
        pred = predict(spec)
        assert pred.height == spec.m * spec.n - pred.dim
        assert pred.mult == multiplicity(pred.hilbert)
