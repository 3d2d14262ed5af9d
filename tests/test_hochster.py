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
from functools import reduce
from itertools import combinations
from operator import or_
from pathlib import Path

import pytest

from gbei import (PartiteSpec, TermOrder, complete_multipartite,
                  enumerate_specs, generalized_bei, hochster)
from gbei.errors import CapExceededError
from gbei.formulas import predicted_depth, predicted_regularity
from gbei.hilbert import HilbertSeries, MonomialIdeal, hilbert_series
from gbei.rings import DEFAULT_PRIME
from gbei.hochster import (
    BettiTable,
    SimplicialComplex,
    _apexes,
    _collapsed_ranks,
    _column,
    _dominated,
    _dominations,
    _homology_ranks,
    _link,
    _non_coned_faces,
    _pivot_rows,
    _restriction,
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


def _size_columns(grouped, size, p):
    """The boundary columns out of the size-`size` faces, as `_homology_ranks`
    builds them, with rows numbered from 0 within the size-(size-1) faces."""
    index = {face: i for i, face in enumerate(grouped[size - 1])}
    return [_column(face, index, p) for face in grouped[size]]


def test_sparse_columns_match_dense_boundary():
    c = SimplicialComplex.of_ideal(_rp2_ideal())
    grouped = c.faces_by_size((1 << 6) - 1)
    for c_size in range(1, len(grouped)):
        dense = _dense_boundary(grouped[c_size - 1], grouped[c_size])
        for p in (2, 7):
            cols = _size_columns(grouped, c_size, p)
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
            if mask & ~sigma == 0 and all(s & ~mask for s in c.supports):
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
        for size in range(1, len(grouped)):
            cols = [{r: (1 if v == 1 else -1) for r, v in col.items()}
                    for col in _size_columns(grouped, size, 3)]
            assert _our_rank(cols, p) == _sympy_rank(cols, len(grouped[size - 1]), p)


@pytest.mark.parametrize("p", [2, 32003])
def test_clearing_does_not_change_homology(p):
    complex_ = SimplicialComplex.of_ideal(_rp2_ideal())
    grouped = complex_.faces_by_size((1 << 6) - 1)
    uncleared = [0] * (len(grouped) + 1)
    for size in range(1, len(grouped)):
        uncleared[size] = len(_pivot_rows(_size_columns(grouped, size, p), p))
    plain = [len(grouped[c]) - uncleared[c] - uncleared[c + 1]
             for c in range(len(grouped))]
    assert _homology_ranks(complex_, (1 << 6) - 1, p) == plain
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
# the Betti table against a per-sigma reference

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


def _count_face_calls(monkeypatch):
    calls = []
    original = SimplicialComplex.faces_by_size

    def counted(self, sigma_mask):
        grouped = original(self, sigma_mask)
        calls.append((sigma_mask, sum(len(group) for group in grouped)))
        return grouped

    monkeypatch.setattr(SimplicialComplex, "faces_by_size", counted)
    return calls


def test_face_table_covers_only_the_union_of_supports(monkeypatch):
    calls = _count_face_calls(monkeypatch)
    table = betti_table(_sq(15, (0, 1)))
    # the restriction to {x1, x2} is the 0-sphere, read without its faces
    assert calls == []
    assert table.entries == {(0, frozenset()): 1, (1, frozenset({0, 1})): 1}
    # RP2 on the first six of 15 vertices: no restriction collapses, and
    # the faces enumerated lie inside those six
    ideal = _sq(15, *[_bits(s) for s in SimplicialComplex.of_ideal(_rp2_ideal()).supports])
    assert betti_table(ideal, 2).entries == _reference_betti(ideal, 2)
    assert calls and all(not mask & ~0b111111 for mask, _ in calls)


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


# the specs within the default cap of `betti_table`, 15 variables
_SMALL_SPECS = [spec for spec in enumerate_specs(6, 6) if spec.m * spec.n <= 15]


@pytest.mark.parametrize("p", [2, 32003])
def test_links_match_the_betti_table_on_every_small_spec(p):
    assert len(_SMALL_SPECS) == 43
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


def _random_supports(rng, nvars):
    """A few random supports, none inside another, as bitmasks."""
    drawn = set()
    for _ in range(rng.randrange(1, 7)):
        size = rng.randrange(1, min(3, nvars) + 1)
        drawn.add(sum(1 << v for v in rng.sample(range(nvars), size)))
    return [s for s in drawn if not any(t != s and t & ~s == 0 for t in drawn)]


def _cone_points(supports, nvars, face):
    """Brute force: the cone points of lk F, F = face, from the whole link."""
    def is_face(mask):
        return all(s & ~mask for s in supports)

    if not is_face(face):
        return set()  # the link of a non-face is void
    link = [g for g in range(1 << nvars) if not g & face and is_face(g | face)]
    return {v for v in range(nvars)
            if not face >> v & 1 and all(is_face(g | face | 1 << v) for g in link)}


def _is_face(supports, mask):
    return all(s & ~mask for s in supports)


def _bits(mask):
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def _brute_link(supports, nvars, face):
    """Brute force: the vertices of lk F, F = face, in the union of the
    supports, and the minimal non-faces among them, sorted."""
    union = reduce(or_, supports, 0)
    verts = sum(1 << v for v in _bits(union & ~face) if _is_face(supports, face | 1 << v))
    nonfaces = [g for g in range(1 << nvars)
                if not g & ~verts and not _is_face(supports, face | g)]
    return verts, sorted(g for g in nonfaces
                         if not any(h != g and not h & ~g for h in nonfaces))


def _union_faces(supports, nvars):
    """Brute force: the faces inside the union of the supports."""
    union = reduce(or_, supports, 0)
    return [f for f in range(1 << nvars) if not f & ~union and _is_face(supports, f)]


def test_recursive_links_match_the_link_on_every_face():
    # lk (F + u) is the link of u in lk F, and a cone point of a link is a
    # vertex in no minimal non-face; the vertices in no support are cone
    # points of every link, and the walk leaves them out
    rng = random.Random(11)
    coned = faces = 0
    for _ in range(80):
        nvars = rng.randrange(3, 9)
        supports = _random_supports(rng, nvars)
        outside = set(range(nvars)) - set(_bits(reduce(or_, supports)))
        root = _brute_link(supports, nvars, 0)
        for face in _union_faces(supports, nvars):
            verts, nonfaces = root
            for u in _bits(face):
                verts, nonfaces = _link(verts, nonfaces, u)
            assert (verts, sorted(nonfaces)) == _brute_link(supports, nvars, face)
            want = _cone_points(supports, nvars, face)
            assert set(_bits(_apexes(verts, nonfaces))) | outside == want, (supports, face)
            coned += bool(want - outside)
            faces += 1
    assert coned >= 80 and faces >= 400


def test_a_cone_point_needs_every_support_through_it():
    # the path a-d-c-b: lk d is the two points a and c, no cone.  Of the
    # supports through a, ab only takes b out of lk d, and ac is the
    # non-face that keeps a from being a cone point; lk a is the point d,
    # a cone.  lk d carries the H~_0 behind reg 1
    a, b, c, d = range(4)
    supports = [1 << a | 1 << b, 1 << a | 1 << c, 1 << b | 1 << d]
    root = (0b1111, supports)
    assert _link(*root, d) == (1 << a | 1 << c, [1 << a | 1 << c])
    assert not _apexes(*_link(*root, d))
    assert _apexes(*_link(*root, a)) == 1 << d
    ideal = _sq(4, (a, b), (a, c), (b, d))
    assert depth_and_regularity(ideal) == (2, 1)
    assert _table_invariants(ideal, DEFAULT_PRIME) == (2, 1)


def _scanned_link(verts, nonfaces, u):
    """`_link` with its minimality filter as a scan of every T - u."""
    bit = 1 << u
    through = [t ^ bit for t in nonfaces if t & bit]
    verts &= ~bit & ~sum(t for t in through if not t & (t - 1))
    through = [t for t in through if not t & ~verts]
    rest = [t for t in nonfaces if not t & ~verts]
    return verts, through + [t for t in rest if all(r & ~t for r in through)]


def test_the_hashed_link_filter_keeps_what_the_scan_keeps(monkeypatch):
    # many small non-faces through u make the submask lookups run, few
    # make the scan run; both must give the scan's list, in its order
    rng = random.Random(31)
    branches = []  # per filtered T: whether it took the submask lookups
    holds_one = hochster._holds_one
    monkeypatch.setattr(hochster, "_holds_one", lambda t, through, hashed: branches.append(
        1 << t.bit_count() <= len(through)) or holds_one(t, through, hashed))
    for _ in range(300):
        nvars = rng.randrange(4, 13)
        drawn = {sum(1 << v for v in rng.sample(range(nvars), rng.choice((2, 2, 3, 3, 4))))
                 for _ in range(rng.randrange(1, 40))}
        nonfaces = [s for s in drawn if not any(t != s and not t & ~s for t in drawn)]
        rng.shuffle(nonfaces)
        verts = reduce(or_, nonfaces)
        for u in range(nvars):
            assert hochster._link(verts, nonfaces, u) == _scanned_link(verts, nonfaces, u), (
                nonfaces, u)
    assert branches.count(True) >= 500 and branches.count(False) >= 500


def _kept_by_the_prune(supports, face):
    """Brute force: the walk reaches F when for every lex prefix P of F,
    with u the next vertex of F, lk P has no cone point below max P and u
    is at most its smallest cone point, if any, in the union."""
    union = reduce(or_, supports, 0)
    prefix = 0
    for u in _bits(face):
        cones = [v for v in _cone_points(supports, union.bit_length(), prefix)
                 if union >> v & 1]
        if cones and (min(cones) < prefix.bit_length() or u > min(cones)):
            return False
        prefix |= 1 << u
    return True


def _walk(monkeypatch, complex_):
    """What `_non_coned_faces` yields with no bound, by face, and the count
    of faces it visits: the root and one per link it takes."""
    taken = []
    link = hochster._link
    monkeypatch.setattr(hochster, "_link", lambda *args: taken.append(args) or link(*args))
    walked = {face: (verts, sorted(nonfaces))
              for face, verts, nonfaces in _non_coned_faces(complex_, lambda *_: True)}
    monkeypatch.setattr(hochster, "_link", link)
    return walked, 1 + len(taken)


def _drawn_supports(rng, nvars):
    """_random_supports, with now and then a support inside another, or a
    singleton, which the walk must take out first."""
    supports = _random_supports(rng, nvars)
    if rng.random() < 0.5:
        supports.append(supports[0] | 1 << rng.randrange(nvars))
    if rng.random() < 0.3:
        supports.append(1 << rng.randrange(nvars))
    return supports


def _submasks(mask):
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


def test_the_restriction_matches_brute_force_on_every_mask():
    # V is the v in the mask with {v} a face, and L the minimal non-faces
    # among them; singletons and supports inside others must drop out
    rng = random.Random(29)
    singletons = nested = 0
    for _ in range(50):
        nvars = rng.randrange(2, 8)
        supports = _drawn_supports(rng, nvars)
        singletons += any(not s & (s - 1) for s in supports)
        nested += any(t != s and not t & ~s for s in supports for t in supports)
        for mask in range(1 << nvars):
            verts = sum(1 << v for v in _bits(mask) if _is_face(supports, 1 << v))
            nonfaces = [g for g in _submasks(verts) if not _is_face(supports, g)]
            minimal = sorted(g for g in nonfaces
                             if not any(h != g and not h & ~g for h in nonfaces))
            got_verts, got_nonfaces = _restriction(supports, mask)
            assert (got_verts, sorted(got_nonfaces)) == (verts, minimal), (supports, mask)
    assert singletons >= 30 and nested >= 20


# the case that needs both: with {0} and {4}, the rest are no minimal
# non-faces, and 0 and 4 are in no face
_TRAP = [0b00001, 0b10000, 0b00101, 0b10001, 0b10101]


def test_the_walk_yields_every_non_coned_face_and_visits_no_more(monkeypatch):
    rng = random.Random(23)
    draws = [_drawn_supports(rng, rng.randrange(2, 8)) for _ in range(60)]
    kept = yielded = 0
    for supports in draws + [_TRAP]:
        nvars = reduce(or_, supports).bit_length()
        walked, visited = _walk(monkeypatch, SimplicialComplex(nvars, supports))
        faces = _union_faces(supports, nvars)
        outside = set(range(nvars)) - set(_bits(reduce(or_, supports)))
        want = {face: _brute_link(supports, nvars, face) for face in faces
                if not _cone_points(supports, nvars, face) - outside}
        assert walked == want, supports
        assert visited == sum(_kept_by_the_prune(supports, f) for f in faces), supports
        kept += visited
        yielded += len(walked)
    assert _walk(monkeypatch, SimplicialComplex(5, _TRAP))[0] == {0b00100: (0, [])}
    assert kept >= 200 and yielded >= 150


@pytest.mark.parametrize("p", [2, 32003])
def test_the_trap_case_gives_the_table_invariants(p):
    ideal = _sq(5, *[_bits(s) for s in _TRAP])
    assert depth_and_regularity(ideal, p) == _table_invariants(ideal, p) == (3, 0)


def _strip(ranks):
    return list(ranks[:max((c + 1 for c, r in enumerate(ranks) if r), default=0)])


@pytest.mark.parametrize("p", [2, 32003])
def test_collapsed_links_keep_their_homology(monkeypatch, p):
    # each complex with no cone point against a full reduction on its own
    # faces; RP2 keeps its torsion, and spheres need no faces
    homology_ranks = hochster._homology_ranks
    tables = _count_homology_calls(monkeypatch)
    rng = random.Random(30 + p % 1000)
    cases = [(0b111111, list(SimplicialComplex.of_ideal(_rp2_ideal()).supports))]
    while len(cases) < 150:
        nvars = rng.randrange(4, 9)
        drawn = {sum(1 << v for v in rng.sample(range(nvars), rng.randrange(2, 5)))
                 for _ in range(rng.randrange(3, 9))}
        supports = [s for s in drawn if not any(t != s and not t & ~s for t in drawn)]
        verts = reduce(or_, supports)
        if not _apexes(verts, supports):
            cases.append((verts, supports))
    for verts, supports in cases:
        complex_ = SimplicialComplex(verts.bit_length(), supports)
        full = homology_ranks(complex_, verts, p)
        assert _strip(_collapsed_ranks(verts, supports, p)) == _strip(full), supports
    assert _strip(_collapsed_ranks(*cases[0], p)) == ([0, 0, 1, 1] if p == 2 else [])
    # of the 151 calls of `_collapsed_ranks` (RP2 twice), these many reduce
    # on their faces; the rest collapse to a cone or a sphere
    assert len(tables) == (43 if p == 2 else 38)


@pytest.mark.parametrize("p", [2, 32003])
def test_links_match_the_betti_table_where_links_are_cones(p):
    # each ideal has a face whose link has a cone point that is no cone
    # point of the complex; the vertices in no support are the only cone
    # points of the complex, since no support lies inside another
    rng = random.Random(70 + p % 1000)
    cases = 0
    while cases < 40:
        nvars = rng.randrange(3, 10)
        supports = _random_supports(rng, nvars)
        whole = _cone_points(supports, nvars, 0)
        faces = SimplicialComplex(nvars, supports).faces_by_size((1 << nvars) - 1)
        if not any(_cone_points(supports, nvars, f) - whole
                   for group in faces[1:] for f in group):
            continue
        cases += 1
        ideal = _sq(nvars, *[[v for v in range(nvars) if s >> v & 1] for s in supports])
        assert depth_and_regularity(ideal, p) == _table_invariants(ideal, p), supports


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
    """The links reduced, as (V', L), recorded as they go."""
    collapsed_ranks = hochster._collapsed_ranks
    reduced = []

    def counted(verts, nonfaces, p):
        reduced.append((verts, nonfaces))
        return collapsed_ranks(verts, nonfaces, p)

    monkeypatch.setattr(hochster, "_collapsed_ranks", counted)
    return reduced


def test_links_are_pruned(monkeypatch):
    # faces whose link is a cone, or that cannot lower depth or raise reg,
    # are never reduced; the counts pin the prunes, since a looser one only
    # costs time.  Every link collapses to a point or a sphere, so none is
    # reduced on its faces
    ini = _spec_initial_ideal(PartiteSpec(3, (2, 2)), 32003)
    complex_ = SimplicialComplex.of_ideal(ini)
    walked, visited = _walk(monkeypatch, complex_)
    faces = sum(map(len, complex_.faces_by_size(reduce(or_, complex_.supports))))
    assert (len(walked), visited, faces) == (68, 162, 368)
    reduced = _count_links(monkeypatch)
    tables = _count_homology_calls(monkeypatch)
    assert depth_and_regularity(ini, 32003) == (5, 2)
    assert (len(reduced), len(tables)) == (47, 0)


def test_reg_from_a_link_past_the_depth_prune(monkeypatch):
    # a point beside the cone v * (circle bcd): H~_0 of the whole complex
    # gives depth 1 and reg 1, and only the circle lk v gives reg 2.  Every
    # vertex is past the depth prune; v is reduced for reg, the void link
    # of a cannot beat reg 1, and v is a cone point of lk b, lk c and lk d
    a, v, b, c, d = range(5)
    ideal = _sq(5, (a, v), (a, b), (a, c), (a, d), (b, c, d))
    reduced = _count_links(monkeypatch)
    assert depth_and_regularity(ideal) == (1, 2)
    assert [verts for verts, _ in reduced] == [0b11111, 0b11100]
    assert _table_invariants(ideal, DEFAULT_PRIME) == (1, 2)


@pytest.mark.parametrize("m, parts", [(2, (1, 8)), (3, (1, 5)), (2, (1, 10))])
def test_links_past_the_cap_match_the_prediction(m, parts):
    # 18 to 22 variables, up to 530,944 faces, of which a few hundred are
    # visited
    spec = PartiteSpec(m, parts)
    ini = _spec_initial_ideal(spec, 32003)
    want = predicted_depth(spec), predicted_regularity(spec)
    assert depth_and_regularity(ini, 32003, cap=24) == want


# ---------------------------------------------------------------------------
# the strong collapses of the Betti table

def _dominated_vertices(supports, nvars, sigma):
    """Brute force: the v in sigma with a cone point in its link in the
    restriction to sigma, the complex whose non-vertices are those outside."""
    restricted = list(supports) + [1 << u for u in range(nvars) if not sigma >> u & 1]
    return {v for v in range(nvars)
            if sigma >> v & 1 and _cone_points(restricted, nvars, 1 << v)}


def test_dominance_test_matches_the_links_on_every_sigma():
    rng = random.Random(15)
    dominated = undominated = 0
    for _ in range(60):
        nvars = rng.randrange(2, 8)
        supports = _random_supports(rng, nvars)
        dominations = _dominations((1 << nvars) - 1, supports)
        for sigma in range(1 << nvars):
            want = _dominated_vertices(supports, nvars, sigma)
            bit = _dominated(dominations, sigma)
            assert bool(bit) == bool(want), (supports, sigma)
            assert not bit or bit.bit_length() - 1 in want, (supports, sigma)
            dominated += bool(want)
            undominated += not want
    assert dominated >= 1500 and undominated >= 600


def _count_homology_calls(monkeypatch):
    """The vertex masks of the complexes reduced on their faces, recorded as
    they go."""
    homology_ranks = hochster._homology_ranks
    reduced = []

    def counted(complex_, mask, p):
        reduced.append(mask)
        return homology_ranks(complex_, mask, p)

    monkeypatch.setattr(hochster, "_homology_ranks", counted)
    return reduced


def test_a_collapse_can_carry_homology(monkeypatch):
    # I = (abc, cd): in sigma = abcd, lk d is the edge ab, a cone, and
    # deleting d leaves the hollow triangle abc, so beta_{2,abcd} = 1
    a, b, c, d = range(4)
    ideal = _sq(4, (a, b, c), (c, d))
    tables = _count_homology_calls(monkeypatch)
    reduced = _count_links(monkeypatch)
    table = betti_table(ideal)
    assert table.rank(2, {a, b, c, d}) == 1
    assert table.rank(1, {a, b, c}) == 1
    # abcd copies abc, and the triangle is a sphere, read without its faces
    reduced = [verts for verts, _ in reduced]
    assert 0b1111 not in reduced and 0b0111 in reduced and tables == []
    assert table.entries == _reference_betti(ideal, DEFAULT_PRIME)


def test_few_sigma_are_reduced(monkeypatch):
    ini = _spec_initial_ideal(PartiteSpec(2, (2, 2, 2)), DEFAULT_PRIME)
    reduced = _count_homology_calls(monkeypatch)
    betti_table(ini)
    supports = SimplicialComplex.of_ideal(ini).supports
    assert (len(reduced), len(_union_closure(supports))) == (8, 1636)
