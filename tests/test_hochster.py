"""Simplicial homology over GF(p) and the Betti tables built from it.

The known-space checks pin the rank computation: a full simplex is acyclic,
the hollow triangle is a circle, and the 6-vertex projective plane detects
the coefficient prime (torsion at 2).  The sparse rank routine is checked
against sympy's DomainMatrix over GF(p) where sympy is installed, up to
primes far past 64 bits.  The Betti tables are then validated
against Auslander-Buchsbaum and against the Hilbert numerator, which ties
this module to an entirely independent computation.
"""

import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from gbei import (PartiteSpec, TermOrder, complete_multipartite,
                  enumerate_specs, generalized_bei)
from gbei.errors import CapExceededError
from gbei.hilbert import HilbertSeries, MonomialIdeal, hilbert_series
from gbei.rings import DEFAULT_PRIME
from gbei.hochster import (
    BettiTable,
    SimplicialComplex,
    _FaceTable,
    _pivot_rows,
    betti_table,
    depth_and_regularity,
    reduced_homology_ranks,
)


def _sq(nvars, *supports):
    gens = []
    for sup in supports:
        mono = [0] * nvars
        for v in sup:
            mono[v] = 1
        gens.append(tuple(mono))
    return MonomialIdeal(nvars, gens)


# ---------------------------------------------------------------------------
# complexes

def test_of_ideal_guards():
    with pytest.raises(ValueError):
        SimplicialComplex.of_ideal(MonomialIdeal(2, [(2, 0)]))
    with pytest.raises(ValueError):
        SimplicialComplex.of_ideal(MonomialIdeal(2, [(0, 0)]))


def test_faces_of_two_points():
    # (xy): two isolated vertices
    c = SimplicialComplex.of_ideal(_sq(2, (0, 1)))
    assert c.is_face(0b01) and c.is_face(0b10)
    assert not c.is_face(0b11)
    grouped = c.faces_by_size(0b11)
    assert grouped == [[0], [0b01, 0b10]]


def test_faces_restriction():
    c = SimplicialComplex.of_ideal(_sq(3, (0, 1)))
    # restricted away from the non-face, everything survives
    grouped = c.faces_by_size(0b110)
    assert [len(g) for g in grouped] == [1, 2, 1]


# ---------------------------------------------------------------------------
# homology of known spaces

def test_two_points():
    c = SimplicialComplex.of_ideal(_sq(2, (0, 1)))
    assert reduced_homology_ranks(c, [0, 1]) == [0, 1, 0]


def test_empty_complex_carries_h_minus_one():
    c = SimplicialComplex.of_ideal(_sq(1, (0,)))
    assert reduced_homology_ranks(c, []) == [1]


def test_full_simplex_is_acyclic():
    c = SimplicialComplex.of_ideal(_sq(4, (0, 1, 2, 3)))
    assert reduced_homology_ranks(c, [0, 1, 2]) == [0, 0, 0, 0]


def test_hollow_triangle_is_a_circle():
    c = SimplicialComplex.of_ideal(_sq(3, (0, 1, 2)))
    assert reduced_homology_ranks(c, [0, 1, 2]) == [0, 0, 1, 0]


def test_hollow_tetrahedron_is_a_sphere():
    c = SimplicialComplex.of_ideal(_sq(4, (0, 1, 2, 3)))
    assert reduced_homology_ranks(c, [0, 1, 2, 3]) == [0, 0, 0, 1, 0]


# the 6-vertex triangulation of the projective plane; its ideal is generated
# by the ten non-facet triples, and its first homology is pure 2-torsion
_RP2_FACETS = [
    (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
    (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
]


def _rp2_ideal():
    facets = {frozenset(f) for f in _RP2_FACETS}
    non_faces = [
        tuple(sorted(v - 1 for v in triple))
        for triple in combinations(range(1, 7), 3)
        if frozenset(triple) not in facets
    ]
    assert len(non_faces) == 10
    return _sq(6, *non_faces)


def test_rp2_is_a_closed_surface():
    counts = {}
    for f in _RP2_FACETS:
        for e in combinations(f, 2):
            counts[e] = counts.get(e, 0) + 1
    assert len(counts) == 15 and set(counts.values()) == {2}


def test_rp2_homology_depends_on_the_prime():
    c = SimplicialComplex.of_ideal(_rp2_ideal())
    sigma = list(range(6))
    assert reduced_homology_ranks(c, sigma, p=2) == [0, 0, 1, 1, 0, 0, 0]
    assert reduced_homology_ranks(c, sigma, p=32003) == [0, 0, 0, 0, 0, 0, 0]


def _dense_boundary(smaller, larger):
    """Boundary matrix as row lists, signs from the j-th lowest set bit."""
    index = {mask: i for i, mask in enumerate(smaller)}
    mat = [[0] * len(larger) for _ in smaller]
    for j, mask in enumerate(larger):
        sign, m = 1, mask
        while m:
            low = m & -m
            mat[index[mask ^ low]][j] = sign
            sign = -sign
            m ^= low
    return mat


def test_boundary_composition_vanishes():
    # rebuild the boundary matrices with the same sign convention (the j-th
    # lowest set bit carries (-1)^j) and check that consecutive maps compose
    # to zero over both primes
    for ideal in (_rp2_ideal(), _sq(3, (0, 1, 2)), _sq(4, (0, 1), (2, 3))):
        c = SimplicialComplex.of_ideal(ideal)
        grouped = c.faces_by_size((1 << ideal.nvars) - 1)
        for c_size in range(1, len(grouped) - 1):
            a = _dense_boundary(grouped[c_size - 1], grouped[c_size])
            b = _dense_boundary(grouped[c_size], grouped[c_size + 1])
            for p in (2, 32003):
                for row in a:
                    for k in range(len(b[0])):
                        assert sum(x * b[j][k] for j, x in enumerate(row)) % p == 0


def _size_columns(table, size):
    """The table's boundary columns out of the size-`size` faces, with rows
    renumbered from 0 within the size-(size-1) faces."""
    lo = table.starts[size - 1]
    return [{r - lo: c for r, c in col.items()}
            for col in table.columns[table.starts[size]:table.starts[size + 1]]]


def test_sparse_columns_match_dense_boundary():
    c = SimplicialComplex.of_ideal(_rp2_ideal())
    grouped = c.faces_by_size((1 << 6) - 1)
    for c_size in range(1, len(grouped)):
        dense = _dense_boundary(grouped[c_size - 1], grouped[c_size])
        for p in (2, 7):
            cols = _size_columns(_FaceTable(c, (1 << 6) - 1, p), c_size)
            for j, col in enumerate(cols):
                want = {i: row[j] % p for i, row in enumerate(dense) if row[j]}
                assert col == want


def test_faces_are_lex_ordered_and_complete():
    rng = random.Random(5)
    for _ in range(20):
        nvars = rng.randrange(1, 9)
        supports = [sum(1 << v for v in rng.sample(range(nvars), rng.randrange(1, nvars + 1)))
                    for _ in range(rng.randrange(1, 5))]
        c = SimplicialComplex(nvars, supports)
        sigma = rng.randrange(1 << nvars)
        grouped = c.faces_by_size(sigma)
        want = {}
        for mask in range(1 << nvars):
            if mask & ~sigma == 0 and c.is_face(mask):
                want.setdefault(bin(mask).count("1"), []).append(mask)
        assert len(grouped) == max(want) + 1
        for size, faces in enumerate(grouped):
            key = [sorted(v for v in range(nvars) if f >> v & 1) for f in faces]
            assert key == sorted(key)
            assert sorted(faces) == want[size]


# ---------------------------------------------------------------------------
# the sparse rank routine against an independent implementation

_DIFF_PRIMES = (2, 3, 32003, 2**61 - 1, 2**89 - 1)


def _sympy_rank(cols, nrows, p):
    dm = pytest.importorskip("sympy.polys.matrices")
    sympy = pytest.importorskip("sympy")
    K = sympy.GF(p)
    rows = [[K(col.get(i, 0)) for col in cols] for i in range(nrows)]
    return dm.DomainMatrix(rows, (nrows, len(cols)), K).rank()


def _our_rank(cols, p):
    return len(_pivot_rows([{r: c % p for r, c in col.items()} for col in cols], p))


@pytest.mark.parametrize("p", _DIFF_PRIMES)
def test_rank_matches_sympy_on_random_sparse_matrices(p):
    rng = random.Random(p % 1000)
    for _ in range(40):
        nrows, ncols = rng.randrange(1, 12), rng.randrange(1, 12)
        density = rng.choice((0.2, 0.4, 0.7))
        cols = [{i: rng.choice((1, -1)) for i in range(nrows) if rng.random() < density}
                for _ in range(ncols)]
        assert _our_rank(cols, p) == _sympy_rank(cols, nrows, p)


@pytest.mark.parametrize("p", _DIFF_PRIMES)
def test_rank_matches_sympy_on_random_boundaries(p):
    rng = random.Random(17 + p % 1000)
    complexes = [SimplicialComplex.of_ideal(_rp2_ideal())]
    for _ in range(8):
        nvars = rng.randrange(4, 8)
        supports = [sum(1 << v for v in rng.sample(range(nvars), rng.randrange(2, 5)))
                    for _ in range(rng.randrange(1, 6))]
        complexes.append(SimplicialComplex(nvars, supports))
    for c in complexes:
        grouped = c.faces_by_size((1 << c.nvars) - 1)
        table = _FaceTable(c, (1 << c.nvars) - 1, 3)
        for size in range(1, len(grouped)):
            cols = [{r: (1 if v == 1 else -1) for r, v in col.items()}
                    for col in _size_columns(table, size)]
            assert _our_rank(cols, p) == _sympy_rank(cols, len(grouped[size - 1]), p)


@pytest.mark.parametrize("p", [2, 32003])
def test_clearing_does_not_change_homology(p):
    complex_ = SimplicialComplex.of_ideal(_rp2_ideal())
    grouped = complex_.faces_by_size((1 << 6) - 1)
    table = _FaceTable(complex_, (1 << 6) - 1, p)
    uncleared = [0] * (len(grouped) + 1)
    for size in range(1, len(grouped)):
        uncleared[size] = len(_pivot_rows(_size_columns(table, size), p))
    plain = [len(grouped[c]) - uncleared[c] - uncleared[c + 1]
             for c in range(len(grouped))]
    assert table.homology_ranks((1 << 6) - 1) == plain
    assert plain == ([0, 0, 1, 1] if p == 2 else [0, 0, 0, 0])


def test_homology_rejects_a_composite_modulus():
    c = SimplicialComplex.of_ideal(_sq(3, (0, 1, 2)))
    with pytest.raises(ValueError):
        reduced_homology_ranks(c, [0, 1, 2], p=4)
    with pytest.raises(ValueError):
        betti_table(_sq(3, (0, 1, 2)), p=6)


def test_package_imports_without_numpy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "sys.modules['numpy'] = None; import gbei")
    proc = subprocess.run([sys.executable, "-c", code, str(src)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# Betti tables

def test_betti_guards():
    with pytest.raises(ValueError):
        betti_table(MonomialIdeal(2, [(2, 0)]))
    with pytest.raises(ValueError):
        betti_table(MonomialIdeal(2, [(0, 0)]))
    with pytest.raises(CapExceededError):
        betti_table(_sq(4, (0, 1)), cap=3)


def test_betti_of_two_edges():
    # S/(xy, yz): 0 -> S(-3) -> S(-2)^2 -> S
    table = betti_table(_sq(3, (0, 1), (1, 2)))
    assert table.rank(0, ()) == 1
    assert table.rank(1, (0, 1)) == 1
    assert table.rank(1, (1, 2)) == 1
    assert table.rank(2, (0, 1, 2)) == 1
    assert table.projective_dimension() == 2
    assert table.depth() == 1
    assert table.regularity() == 1
    assert table.rows() == [
        {"i": 0, "sigma": [], "rank": 1},
        {"i": 1, "sigma": [1, 2], "rank": 1},
        {"i": 1, "sigma": [2, 3], "rank": 1},
        {"i": 2, "sigma": [1, 2, 3], "rank": 1},
    ]


def test_betti_of_a_complete_intersection():
    # two coprime quadrics resolve by a Koszul complex
    table = betti_table(_sq(4, (0, 1), (2, 3)))
    assert table.rank(1, (0, 1)) == 1
    assert table.rank(1, (2, 3)) == 1
    assert table.rank(2, (0, 1, 2, 3)) == 1
    assert table.depth() == 2
    assert table.regularity() == 2


def _betti_numerator(table):
    coeffs = [0] * (table.nvars + 1)
    for (i, sigma), rank in table.entries.items():
        coeffs[len(sigma)] += (-1) ** i * rank
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return HilbertSeries(tuple(coeffs), table.nvars)


@pytest.mark.parametrize("seed", list(range(6)))
def test_betti_table_matches_hilbert_numerator(seed):
    # the alternating sum of the Betti numbers in each degree recovers the
    # numerator of the Hilbert series over the full pole (1-t)^nvars
    rng = random.Random(100 + seed)
    nvars = rng.randrange(3, 8)
    supports = set()
    for _ in range(rng.randrange(2, 6)):
        size = rng.randrange(1, min(4, nvars) + 1)
        supports.add(tuple(sorted(rng.sample(range(nvars), size))))
    ideal = _sq(nvars, *supports)
    if ideal.is_unit():
        pytest.skip("degenerate draw")
    table = betti_table(ideal)
    assert _betti_numerator(table) == hilbert_series(ideal)
    assert 0 <= table.depth() < nvars


def test_depth_reads_off_the_table():
    table = BettiTable(4, {(0, frozenset()): 1, (3, frozenset({0, 1, 2})): 2})
    assert table.projective_dimension() == 3
    assert table.depth() == 1
    assert table.rank(2, (0,)) == 0


# ---------------------------------------------------------------------------
# the shared face table against a per-sigma reference

def _union_closure(supports):
    closed = {0}
    for s in supports:
        closed |= {mask | s for mask in closed}
    return closed


def _reference_betti(ideal, p):
    """Betti entries with the faces of each sigma enumerated afresh and every
    boundary map reduced in full, without clearing."""
    complex_ = SimplicialComplex.of_ideal(ideal)
    entries = {}
    for mask in _union_closure(complex_.supports):
        grouped = complex_.faces_by_size(mask)
        rank = [0] * (len(grouped) + 1)
        for size in range(1, len(grouped)):
            index = {face: i for i, face in enumerate(grouped[size - 1])}
            cols = []
            for face in grouped[size]:
                verts = [v for v in range(ideal.nvars) if face >> v & 1]
                cols.append({index[face ^ 1 << v]: (-1) ** j % p
                             for j, v in enumerate(verts)})
            rank[size] = len(_pivot_rows(cols, p))
        sigma = frozenset(v for v in range(ideal.nvars) if mask >> v & 1)
        for c in range(len(grouped)):
            homology = len(grouped[c]) - rank[c] - rank[c + 1]
            if homology:
                entries[(len(sigma) - c, sigma)] = homology
    return entries


@pytest.mark.parametrize("p", [2, 3, 32003])
def test_betti_table_matches_per_sigma_reference(p):
    rng = random.Random(p)
    ideals = [MonomialIdeal(4, [])]
    for _ in range(12):
        nvars = rng.randrange(2, 9)
        # supports drawn from a subset of the vertices, so some lie in none
        used = rng.sample(range(nvars), rng.randrange(1, nvars + 1))
        supports = {tuple(sorted(rng.sample(used, rng.randrange(1, min(4, len(used)) + 1))))
                    for _ in range(rng.randrange(1, 6))}
        ideals.append(_sq(nvars, *supports))
    for ideal in ideals:
        assert betti_table(ideal, p).entries == _reference_betti(ideal, p)


@pytest.mark.parametrize("p", [2, 32003])
def test_rp2_betti_table_matches_reference(p):
    table = betti_table(_rp2_ideal(), p)
    assert table.entries == _reference_betti(_rp2_ideal(), p)
    # H~_1 and H~_2 of the whole surface sit in beta_{4,[6]} and beta_{3,[6]}
    torsion = 1 if p == 2 else 0
    assert table.rank(4, range(6)) == torsion
    assert table.rank(3, range(6)) == torsion


@pytest.mark.parametrize("p", [2, 32003])
@pytest.mark.parametrize("m, parts, nonzero, total", [
    (3, (1, 1, 2), 453, 466), (3, (1, 3), 318, 322), (2, (2, 2, 2), 755, 802)])
def test_spec_betti_tables_match_reference(m, parts, nonzero, total, p):
    J = generalized_bei(m, complete_multipartite(PartiteSpec(m, parts)), p)
    ini = J.initial_ideal(TermOrder.lex_row_major(J.ring))
    entries = betti_table(ini, p).entries
    assert entries == _reference_betti(ini, p)
    assert (len(entries), sum(entries.values())) == (nonzero, total)


def test_shared_columns_survive_reduction():
    complex_ = SimplicialComplex.of_ideal(_rp2_ideal())
    table = _FaceTable(complex_, (1 << 6) - 1, 32003)
    before = [dict(col) for col in table.columns]
    sigmas = sorted(_union_closure(complex_.supports))
    first = [table.homology_ranks(mask) for mask in sigmas]
    second = [table.homology_ranks(mask) for mask in sigmas]
    assert first == second
    assert table.columns == before


def _count_face_calls(monkeypatch):
    calls = []
    original = SimplicialComplex.faces_by_size

    def counted(self, sigma_mask):
        grouped = original(self, sigma_mask)
        calls.append((sigma_mask, sum(len(group) for group in grouped)))
        return grouped

    monkeypatch.setattr(SimplicialComplex, "faces_by_size", counted)
    return calls


def test_faces_are_enumerated_once_per_table(monkeypatch):
    calls = _count_face_calls(monkeypatch)
    table = betti_table(_rp2_ideal(), 2)
    assert len(calls) == 1
    assert table.entries == _reference_betti(_rp2_ideal(), 2)


def test_face_table_covers_only_the_union_of_supports(monkeypatch):
    calls = _count_face_calls(monkeypatch)
    table = betti_table(_sq(15, (0, 1)))
    # the restriction to {x1, x2} has the faces {}, {x1} and {x2}
    assert calls == [(0b11, 3)]
    assert table.entries == {(0, frozenset()): 1, (1, frozenset({0, 1})): 1}


@pytest.mark.parametrize("supports", [[0b1000], [-1]])
def test_complex_rejects_supports_outside_the_vertices(supports):
    with pytest.raises(ValueError):
        SimplicialComplex(3, supports)


def test_homology_rejects_vertices_outside_the_complex():
    with pytest.raises(ValueError):
        reduced_homology_ranks(SimplicialComplex(3, [0b011]), [0, 5])


# ---------------------------------------------------------------------------
# depth and regularity from links, against the Betti table

def _spec_initial_ideal(spec, p):
    J = generalized_bei(spec.m, complete_multipartite(spec), p)
    return J.initial_ideal(TermOrder.lex_row_major(J.ring))


def _table_invariants(ideal, p):
    table = betti_table(ideal, p)
    return table.depth(), table.regularity()


_SMALL_SPECS = [spec for spec in enumerate_specs(6, 6) if spec.m * spec.n <= 12]


@pytest.mark.parametrize("p", [2, 32003])
def test_links_match_the_betti_table_on_every_small_spec(p):
    assert len(_SMALL_SPECS) == 35
    for spec in _SMALL_SPECS:
        ini = _spec_initial_ideal(spec, p)
        assert depth_and_regularity(ini, p) == _table_invariants(ini, p), spec


@pytest.mark.parametrize("p", [2, 32003])
def test_links_match_the_betti_table_with_cone_vertices(p):
    rng = random.Random(40 + p % 1000)
    cones = 0
    for _ in range(60):
        nvars = rng.randrange(2, 10)
        # supports drawn from a subset of the vertices, so some lie in none
        used = rng.sample(range(nvars), rng.randrange(1, nvars + 1))
        supports = {tuple(sorted(rng.sample(used, rng.randrange(1, min(4, len(used)) + 1))))
                    for _ in range(rng.randrange(1, 7))}
        ideal = _sq(nvars, *supports)
        cones += len({v for sup in supports for v in sup}) < nvars
        assert depth_and_regularity(ideal, p) == _table_invariants(ideal, p), supports
    assert cones >= 20


def test_rp2_links_depend_on_the_prime():
    # over GF(2) H~_1 of the surface lowers depth and H~_2 raises reg; over
    # a large prime the surface is acyclic and the vertex links are circles
    assert depth_and_regularity(_rp2_ideal(), 2) == (2, 3)
    assert depth_and_regularity(_rp2_ideal(), 32003) == (3, 2)
    for p in (2, 32003):
        ideal = _rp2_ideal()
        assert depth_and_regularity(ideal, p) == _table_invariants(ideal, p)


@pytest.mark.parametrize("ideal, want", [
    (MonomialIdeal(5, []), (5, 0)),                   # a polynomial ring
    (_sq(3, (0,), (1,), (2,)), (0, 0)),               # the field
    (_sq(3, (0, 1), (1, 2)), (1, 1)),                 # S/(xy, yz)
    (_sq(5, (1, 2), (2, 4)), (3, 1)),                 # the same, two cone points
], ids=["zero", "variables", "two-edges", "two-edges-coned"])
def test_pinned_depth_and_regularity(ideal, want):
    assert depth_and_regularity(ideal) == want


def test_depth_and_regularity_guards():
    with pytest.raises(ValueError):
        depth_and_regularity(MonomialIdeal(2, [(2, 0)]))
    with pytest.raises(ValueError):
        depth_and_regularity(MonomialIdeal(2, [(0, 0)]))
    with pytest.raises(ValueError):
        depth_and_regularity(_sq(3, (0, 1, 2)), p=6)
    with pytest.raises(CapExceededError):
        depth_and_regularity(_sq(4, (0, 1)), cap=3)


def _count_links(monkeypatch):
    """The star bitsets of the links reduced, recorded as they go."""
    ranks = _FaceTable.ranks
    reduced = []

    def counted(self, present_bits, relative):
        if relative:
            reduced.append(present_bits)
        return ranks(self, present_bits, relative)

    monkeypatch.setattr(_FaceTable, "ranks", counted)
    return reduced


def test_links_are_pruned(monkeypatch):
    # faces that cannot lower depth or raise reg are never reduced; the
    # count pins both prunes, since a looser one only costs time
    reduced = _count_links(monkeypatch)
    ini = _spec_initial_ideal(PartiteSpec(3, (2, 2)), 32003)
    assert depth_and_regularity(ini, 32003) == (5, 2)
    complex_ = SimplicialComplex.of_ideal(ini)
    union = 0
    for s in complex_.supports:
        union |= s
    faces = _FaceTable(complex_, union, 32003).starts[-1]
    assert (len(reduced), faces) == (296, 368)


def test_reg_from_a_link_past_the_depth_prune(monkeypatch):
    # a point beside the cone v * (circle bcd): H~_0 of the whole complex
    # gives depth 1 and reg 1, and only the circle lk v gives reg 2.  Every
    # vertex is past the depth prune; v is reduced for reg and b, c, d,
    # whose links cannot beat reg 2, are not
    reduced = _count_links(monkeypatch)
    a, v, b, c, d = range(5)
    ideal = _sq(5, (a, v), (a, b), (a, c), (a, d), (b, c, d))
    assert depth_and_regularity(ideal) == (1, 2)
    assert _table_invariants(ideal, DEFAULT_PRIME) == (1, 2)
    assert len(reduced) == 2


def test_link_reduction_leaves_the_table_unchanged():
    complex_ = SimplicialComplex.of_ideal(_rp2_ideal())
    table = _FaceTable(complex_, (1 << 6) - 1, 2)
    before = [dict(col) for col in table.columns]
    for i in range(table.starts[-1]):
        table.ranks(table.star(i), relative=True)
    assert table.columns == before
