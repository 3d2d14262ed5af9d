"""Acceptance gate: ten end-to-end criteria, one printed verdict line each.

Every criterion couples a closed-form prediction to an independent
computation (Buchberger + Hilbert series + Hochster homology, or brute-force
combinatorics) on instances small enough to run exactly, with wall-clock
budgets.  The verdict lines print even under captured output so the gate is
readable straight off the pytest log.
"""

import random
import time
from itertools import combinations, combinations_with_replacement

from gbei.formulas import (
    bipartite_multiplicity,
    generalized_bei,
    predict,
    predicted_hilbert,
    predicted_regularity,
)
from gbei.graphs import PartiteSpec, SimpleGraph, complete_multipartite
from gbei.groebner import buchberger, normal_form, spolynomial
from gbei.hilbert import MonomialIdeal, hilbert_series, multiplicity
from gbei.hochster import SimplicialComplex, betti_table, reduced_homology_ranks
from gbei.rings import TermOrder
from gbei.verify import enumerate_specs, konig_check, verify


def _announce(capsys, num, desc, ok, dt, limit, detail=""):
    verdict = "PASS" if ok and dt < limit else "FAIL"
    with capsys.disabled():
        print(f"[{verdict}] criterion {num:>2}: {desc} ({dt:.2f}s)", flush=True)
    assert ok, f"criterion {num}: {detail or desc}"
    assert dt < limit, f"criterion {num}: {dt:.2f}s exceeded the {limit}s budget"


def _rows_match(report, expectations):
    problems = []
    for name, value in expectations.items():
        row = report.row(name)
        if row["status"] != "match":
            problems.append(f"{name}: {row['status']}")
        elif value is not None and row["computed"] != value:
            problems.append(f"{name}: computed {row['computed']}, wanted {value}")
    return problems


def test_criterion_01_star_m2(capsys):
    t0 = time.perf_counter()
    report = verify(PartiteSpec(2, (1, 2)))
    problems = _rows_match(report, {
        "dim": 4, "depth": 4, "reg": 2, "mult": 4,
        "decomposition": True, "containment": True,
        "cutSets": [[], [1]],
    })
    _announce(capsys, 1, "K_{1,2} m=2: invariants, decomposition, cut sets",
              not problems, time.perf_counter() - t0, 1.0, "; ".join(problems))


def test_criterion_02_square_m2(capsys):
    t0 = time.perf_counter()
    report = verify(PartiteSpec(2, (2, 2)))
    problems = _rows_match(report, {
        "dim": 5, "depth": 4, "reg": 2, "mult": 4, "hilbert": None,
    })
    # the series must agree exactly as reduced rational functions
    row = report.row("hilbert")
    if row["predicted"] != row["computed"]:
        problems.append(f"series: {row['predicted']} vs {row['computed']}")
    pred = predicted_hilbert(PartiteSpec(2, (2, 2)))
    if (list(pred.numerator), pred.pole) != \
            (row["predicted"]["numerator"], row["predicted"]["pole"]):
        problems.append("serialized series drifted from the formula")
    _announce(capsys, 2, "K_{2,2} m=2: invariants and exact Hilbert series",
              not problems, time.perf_counter() - t0, 5.0, "; ".join(problems))


def test_criterion_03_square_m3(capsys):
    t0 = time.perf_counter()
    report = verify(PartiteSpec(3, (2, 2)))
    problems = _rows_match(report, {
        "dim": 6, "depth": 5, "reg": 2, "mult": 12,
    })
    if not report.squarefree:
        problems.append("initial ideal not squarefree under either order")
    _announce(capsys, 3, "K_{2,2} m=3: Hochster depth/reg on 12 variables",
              not problems, time.perf_counter() - t0, 60.0, "; ".join(problems))


def test_criterion_04_star_m3(capsys):
    t0 = time.perf_counter()
    report = verify(PartiteSpec(3, (1, 3)))
    problems = _rows_match(report, {"dim": 9, "depth": 6, "reg": 3})
    _announce(capsys, 4, "K_{1,3} m=3: reg = m on 12 variables",
              not problems, time.perf_counter() - t0, 60.0, "; ".join(problems))


def test_criterion_05_tripartite_m2(capsys):
    t0 = time.perf_counter()
    report = verify(PartiteSpec(2, (1, 1, 2)))
    problems = _rows_match(report, {
        "dim": 5, "depth": 4, "reg": 2,
        "decomposition": True, "cutSets": [[], [1, 2]],
    })
    _announce(capsys, 5, "K_{1,1,2} m=2: r=3 decomposition and cut sets",
              not problems, time.perf_counter() - t0, 5.0, "; ".join(problems))


def test_criterion_06_coprime_below_height(capsys, max_coprime_subset):
    # K_{2,2} presented as the 4-cycle 1-2-3-4-1 (parts {1,3} and {2,4}):
    # the twelve lex initial terms admit five pairwise-coprime members, one
    # short of the height — initial terms depend on the labeling, the height
    # does not
    t0 = time.perf_counter()
    square = SimpleGraph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    J = generalized_bei(3, square)
    order = TermOrder.lex_row_major(J.ring)
    leads = [g.leading_monomial(order) for g in J.gens]
    best = max_coprime_subset(leads)
    height = predict(PartiteSpec(3, (2, 2))).height
    ok = len(leads) == 12 and best == 5 and height == 6 and best < height
    _announce(capsys, 6, "J_{K_3,K_{2,2}}: 5 coprime initial terms < height 6",
              ok, time.perf_counter() - t0, 1.0,
              f"best={best}, height={height}, gens={len(leads)}")


def test_criterion_07_regularity_sweep(capsys):
    t0 = time.perf_counter()
    mismatches = []
    count = 0
    for spec in enumerate_specs(5, 5):
        if spec.m * spec.n > 12:
            continue
        count += 1
        report = verify(spec)
        row = report.row("reg")
        if row["status"] != "match" or row["computed"] != predicted_regularity(spec):
            mismatches.append(f"{spec}: {row}")
    ok = not mismatches and count >= 20
    _announce(capsys, 7, f"regularity three-case sweep ({count} specs)",
              ok, time.perf_counter() - t0, 300.0, "; ".join(mismatches))


def test_criterion_08_konig_sweep(capsys):
    t0 = time.perf_counter()
    def partitions(n, least=1):
        if n == 0:
            yield ()
            return
        for first in range(least, n + 1):
            for rest in partitions(n - first, first):
                yield (first,) + rest

    bad = []
    count = 0
    for n in range(2, 9):
        for parts in partitions(n):
            if len(parts) < 2:
                continue
            count += 1
            spec = PartiteSpec(2, parts)
            check = konig_check(spec)
            want = 2 * n - max(n + 1, 2 * parts[-1])
            if not (check["path_valid"] and check["initial_terms_coprime"]
                    and check["height"] == want
                    and len(check["path"]) == want + 1):
                bad.append(f"{spec}: {check}")
    _announce(capsys, 8, f"Koenig paths for every m=2 spec, n <= 8 ({count} specs)",
              not bad, time.perf_counter() - t0, 60.0, "; ".join(bad))


def test_criterion_09_property_suites(capsys):
    t0 = time.perf_counter()
    problems = []

    # Buchberger: unique reduced basis under shuffles; S-pairs reduce to zero
    rng = random.Random(909)
    for m, parts in [(2, (1, 2)), (2, (2, 2))]:
        J = generalized_bei(m, complete_multipartite(PartiteSpec(m, parts)))
        order = TermOrder.lex_row_major(J.ring)
        reference = buchberger(J.gens, order)
        for _ in range(3):
            gens = list(J.gens)
            rng.shuffle(gens)
            if buchberger(gens, order) != reference:
                problems.append(f"shuffle changed the basis for {parts}")
        for f, g in combinations(reference, 2):
            if not normal_form(spolynomial(f, g, order), reference, order).is_zero():
                problems.append(f"S-pair survived for {parts}")

    # homology: boundary-of-boundary vanishes; simplex and circle ranks
    tri = MonomialIdeal(3, [(1, 1, 1)])
    complex_ = SimplicialComplex.of_ideal(tri)
    if reduced_homology_ranks(complex_, [0, 1, 2]) != [0, 0, 1, 0]:
        problems.append("hollow triangle is not a circle")
    simplex = SimplicialComplex.of_ideal(MonomialIdeal(5, [(1,) * 5]))
    if any(reduced_homology_ranks(simplex, [0, 1, 2, 3])):
        problems.append("solid simplex is not acyclic")
    grouped = complex_.faces_by_size(0b111)
    for c in range(1, len(grouped) - 1):
        a = _boundary_matrix(grouped[c - 1], grouped[c])
        b = _boundary_matrix(grouped[c], grouped[c + 1])
        if any(sum(x * b[j][k] for j, x in enumerate(row)) % 32003
               for row in a for k in range(len(b[0]))):
            problems.append("boundary composition is nonzero")

    # Hilbert series against degree-by-degree monomial counting
    for seed in range(3):
        srng = random.Random(7000 + seed)
        nvars = srng.randrange(4, 11)
        gens = []
        for _ in range(srng.randrange(2, 6)):
            mono = [0] * nvars
            for _ in range(srng.randrange(1, 4)):
                mono[srng.randrange(nvars)] += 1
            gens.append(tuple(mono))
        ideal = MonomialIdeal(nvars, gens)
        coeffs = hilbert_series(ideal).coefficients(6)
        for d in range(7):
            counted = sum(
                1 for combo in combinations_with_replacement(range(nvars), d)
                if not ideal.contains(
                    tuple(combo.count(v) for v in range(nvars))))
            if coeffs[d] != counted:
                problems.append(f"series seed {seed} degree {d}")

    # multiplicity: the r=2 case table against N(1), every m,n1,n2 <= 6
    for m in range(2, 7):
        for n1 in range(1, 7):
            for n2 in range(max(n1, 2), 7):
                spec = PartiteSpec(m, (n1, n2))
                if bipartite_multiplicity(spec) != \
                        multiplicity(predicted_hilbert(spec)):
                    problems.append(f"table vs series at {spec}")
        # outside the table (parts (1, 1)): Segre ring, so N(1) = m
        if multiplicity(predicted_hilbert(PartiteSpec(m, (1, 1)))) != m:
            problems.append(f"Segre multiplicity at m={m}")

    _announce(capsys, 9, "property suites: Buchberger, homology, Hilbert, mult",
              not problems, time.perf_counter() - t0, 120.0, "; ".join(problems))


def _boundary_matrix(smaller, larger):
    index = {mask: i for i, mask in enumerate(smaller)}
    mat = [[0] * max(len(larger), 1) for _ in range(max(len(smaller), 1))]
    for j, mask in enumerate(larger):
        sign, m = 1, mask
        while m:
            low = m & -m
            mat[index[mask ^ low]][j] = sign
            sign = -sign
            m ^= low
    return mat


def test_criterion_10_cd_formula_sweep(capsys):
    t0 = time.perf_counter()
    bad = []
    count = 0
    for spec in enumerate_specs(6, 8):
        if spec.all_ones:
            if predict(spec).cd != ("unsupported",):
                bad.append(f"{spec}: all-ones should be unsupported")
            continue
        count += 1
        m, n, ns = spec.m, spec.n, spec.parts[spec.s - 1]
        exact = predict(spec).cd
        interval = predict(spec, char_zero=True).cd
        want = m * n - m - ns
        if exact != ("exact", want):
            bad.append(f"{spec}: exact {exact}")
        if interval != ("interval", want, m * n - 3):
            bad.append(f"{spec}: interval {interval}")
        if not interval[1] <= interval[2]:
            bad.append(f"{spec}: empty interval")
    ok = not bad and count > 100
    _announce(capsys, 10, f"cd bounds across m<=6, n<=8 ({count} specs)",
              ok, time.perf_counter() - t0, 30.0, "; ".join(bad))
