"""Workload definitions: seeded inputs, the calls of one pass, output checks.

A workload is a fixed list of calls into gbei.  The seed picks the
coefficient prime, the random 16-vertex graph that `cutsets` reads, and the
order of the calls within a pass; the specs themselves never change.  Every
call is checked: row statuses, exit codes, and a digest of its result
(with `timingMs` stripped) against the digest recorded in expected.json.

Caps are always passed explicitly, so a change to a default cap cannot
change the work a workload asks for.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

import gbei
import gbei.cli
from gbei import PartiteSpec, TermOrder, complete_multipartite, generalized_bei

GROEBNER_CAP = 18
HOCHSTER_CAP = 15

# Primes below 2^15, where the int64 rank in the Hochster stage is exact.
PRIMES = (32003, 31991, 30011, 29989, 24571, 16381, 12289, 10007)
GRAPH_VARIANTS = 8
GRAPH_VERTICES = 16
GRAPH_EDGE_PROB = 0.25

EXPECTED_PATH = Path(__file__).with_name("expected.json")

HOCHSTER_SPECS = ((3, (1, 1, 2)), (3, (1, 3)), (3, (2, 2)),
                  (3, (1, 1, 1, 1, 1)), (3, (1, 1, 1, 2)))
ELIMINATION_SPECS = ((4, (2, 2)), (3, (1, 1, 1, 3)), (3, (3, 3)),
                     (2, (2, 2, 2, 3)))
HILBERT_SPECS = ((3, (3, 3)), (2, (4, 5)))
BETTI_SPEC = (2, (2, 2, 2))
SWEEP_BOUNDS = (3, 4)

WORKLOADS = ("verify-hochster", "verify-elimination", "cli-mix")

_CAP_FLAGS = ["--groebner-max-vars", str(GROEBNER_CAP),
              "--hochster-max-vars", str(HOCHSTER_CAP)]


@dataclass
class Call:
    """One closed-loop call: `run()` returns the payload that `check` inspects."""

    label: str
    kind: str
    run: object
    expected_skips: frozenset = frozenset()


def variant(seed):
    """(prime, graph index) chosen by a seed."""
    return PRIMES[seed % len(PRIMES)], (seed // len(PRIMES)) % GRAPH_VARIANTS


def random_graph(index):
    """The index-th seeded G(16, 1/4) graph as graph JSON (1-based vertices)."""
    rng = random.Random(f"gbei-bench-graph-{index}")
    edges = [[u, v] for u in range(1, GRAPH_VERTICES + 1)
             for v in range(u + 1, GRAPH_VERTICES + 1)
             if rng.random() < GRAPH_EDGE_PROB]
    return {"n": GRAPH_VERTICES, "edges": edges}


def _spec_text(m, parts):
    return f"{m},({','.join(map(str, parts))})"


def _verify_call(m, parts, prime, skips):
    spec = PartiteSpec(m, parts)

    def run():
        report = gbei.verify(spec, prime=prime, groebner_cap=GROEBNER_CAP,
                             hochster_cap=HOCHSTER_CAP)
        return report.to_json()

    return Call(f"verify {_spec_text(m, parts)} p={prime}", "verify", run,
                frozenset(skips))


def _cli_call(label, argv):
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = gbei.cli.main(argv)
        return {"exit": code, "doc": json.loads(out.getvalue())}

    return Call(label, "cli", run)


def _betti_call(prime):
    m, parts = BETTI_SPEC

    def run():
        J = generalized_bei(m, complete_multipartite(PartiteSpec(m, parts)), prime)
        ini = J.initial_ideal(TermOrder.lex_row_major(J.ring))
        return gbei.betti_table(ini, prime, cap=HOCHSTER_CAP).rows()

    return Call(f"betti_table {_spec_text(m, parts)} p={prime}", "library", run)


def build_calls(workload, prime, graph_index, scratch_dir):
    """The calls of one pass, in canonical (unshuffled) order."""
    if workload == "verify-hochster":
        return [_verify_call(m, parts, prime, ()) for m, parts in HOCHSTER_SPECS]
    if workload == "verify-elimination":
        return [_verify_call(m, parts, prime, {"depth", "reg"})
                for m, parts in ELIMINATION_SPECS]
    if workload != "cli-mix":
        raise ValueError(f"unknown workload {workload!r}")
    max_m, max_n = SWEEP_BOUNDS
    graph_path = Path(scratch_dir) / f"graph-{graph_index}.json"
    graph_path.parent.mkdir(parents=True, exist_ok=True)
    graph_path.write_text(json.dumps(random_graph(graph_index)), encoding="utf-8")
    calls = [_cli_call(f"sweep --max-m {max_m} --max-n {max_n} p={prime}",
                       ["sweep", "--max-m", str(max_m), "--max-n", str(max_n),
                        "--prime", str(prime)] + _CAP_FLAGS)]
    for m, parts in HILBERT_SPECS:
        calls.append(_cli_call(
            f"hilbert {_spec_text(m, parts)} p={prime}",
            ["hilbert", "--m", str(m), "--parts", ",".join(map(str, parts)),
             "--prime", str(prime)] + _CAP_FLAGS))
    calls.append(_cli_call(f"cutsets graph={graph_index}",
                           ["cutsets", "--graph", str(graph_path),
                            "--prime", str(prime)]))
    calls.append(_betti_call(prime))
    return calls


def build_inputs(workload, seed, scratch_dir):
    """Seeded inputs: the pass's calls, shuffled by the seed."""
    prime, graph_index = variant(seed)
    calls = build_calls(workload, prime, graph_index, scratch_dir)
    random.Random(seed).shuffle(calls)
    return calls


def _strip_timing(obj):
    if isinstance(obj, dict):
        return {k: _strip_timing(v) for k, v in obj.items() if k != "timingMs"}
    if isinstance(obj, list):
        return [_strip_timing(v) for v in obj]
    return obj


def digest(payload):
    """Hash of a result with every `timingMs` field removed."""
    text = json.dumps(_strip_timing(payload), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def _report_problems(report, expected_skips):
    problems = []
    for row in report["invariants"]:
        want = ("skipped(hochster-cap)" if row["name"] in expected_skips
                else "match")
        if row["status"] != want:
            problems.append(f"{row['name']}: {row['status']} (want {want})")
    return problems


def check(call, payload, expected):
    """Problems with one call's result; an empty list means it passed."""
    problems = []
    if call.kind == "verify":
        problems += _report_problems(payload, call.expected_skips)
    elif call.kind == "cli":
        if payload["exit"] != 0:
            problems.append(f"exit code {payload['exit']}")
        doc = payload["doc"]
        if "match" in doc and doc["match"] is not True:
            problems.append(f"hilbert match is {doc['match']}")
        for report in doc.get("reports", ()):
            problems += _report_problems(report, frozenset())
    want = expected.get(call.label)
    got = digest(payload)
    if want is None:
        problems.append("no recorded digest")
    elif got != want:
        problems.append(f"digest {got} != recorded {want}")
    return problems


def load_expected():
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)
