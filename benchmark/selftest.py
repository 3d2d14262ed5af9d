"""Tests of the benchmark itself (not collected by the package's test run).

    python3 -m pytest -q benchmark/selftest.py

The workload test runs two traced passes and one untraced pass of each
workload (about two minutes on two cores).
"""

from __future__ import annotations

import importlib
import shutil
import subprocess
import sys

import pytest

import run

workloads = run.import_workloads()
import hostspeed  # noqa: E402
import spans  # noqa: E402  (needs the path set up by import_workloads)

DETERMINISTIC = ("groebner.basis_elems", "hochster.betti_entries",
                 "hochster.sigma_count", "groebner.normal_form_calls",
                 "verify.rows_match")
SEED = 5


def _traced_pass(calls, expected):
    tracer = spans.Tracer()
    with tracer.installed():
        result = run.run_pass(workloads, calls, expected, tracer)
    return result, spans.layer_metrics(tracer.spans)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counters_repeat_and_tracing_keeps_results(workload):
    calls = workloads.build_inputs(workload, SEED, run.OUT_DIR)
    expected = workloads.load_expected()
    first, first_metrics = _traced_pass(calls, expected)
    second, second_metrics = _traced_pass(calls, expected)
    plain = run.run_pass(workloads, calls, expected)
    for result in (first, second, plain):
        assert result.failed == 0
        assert result.attempted == len(calls)
    assert first.digests == second.digests == plain.digests
    assert set(plain.digests) == {call.label for call in calls}
    for name in DETERMINISTIC:
        assert first_metrics[name] == second_metrics[name], name
    assert first_metrics["verify.rows_match"] > 0
    if workload == "verify-elimination":
        assert first_metrics["hochster.sigma_count"] == 0
    else:
        assert first_metrics["hochster.sigma_count"] > 0


def test_tracer_restores_every_target():
    def lookup(module_name, attr):
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
        return owner

    before = [lookup(m, a) for m, a, _, _ in spans.TARGETS]
    tracer = spans.Tracer()
    with tracer.installed():
        assert all(lookup(m, a) is not f for (m, a, _, _), f
                   in zip(spans.TARGETS, before))
    assert [lookup(m, a) for m, a, _, _ in spans.TARGETS] == before


def test_self_time_excludes_children():
    # root [0, 10] -> buchberger [1, 9] -> two normal forms of 2 s each
    recorded = [
        (3, 2, 1, "groebner.normal_form", 2.0, 4.0, True),
        (4, 2, 1, "groebner.normal_form", 5.0, 7.0, False),
        (2, 1, 1, "groebner.buchberger", 1.0, 9.0, 5),
        (1, 0, 1, "bench.call", 0.0, 10.0, None),
    ]
    metrics = spans.layer_metrics(recorded)
    assert metrics["groebner.buchberger_s"] == pytest.approx(4.0)
    assert metrics["groebner.normal_form_s"] == pytest.approx(4.0)
    assert metrics["bench.glue_s"] == pytest.approx(2.0)
    assert metrics["groebner.useful_reduction_ratio"] == 0.5
    assert metrics["groebner.basis_elems"] == 5


def test_probe_scales_by_mean_speed():
    probe = hostspeed.Probe()
    probe.starts = [0.1 * i for i in range(20)]
    probe.seconds = [0.001] * 10 + [0.002] * 10
    # [1.0, 2.0) holds ten 2-ms probes: 0.98 s of own time at half speed
    assert probe.own(1.0, 2.0) == pytest.approx(0.98)
    assert probe.scaled(1.0, 2.0) == pytest.approx(0.49)
    # the mean of speeds, not of durations
    assert probe.speed(0.5, 1.5) == pytest.approx(0.75)
    # a short interval borrows the nearest MIN_PROBES probes
    assert probe.speed(1.95, 2.0) == pytest.approx(0.5)


def test_check_rejects_wrong_status_and_digest():
    call = workloads.Call("verify x", "verify", None, frozenset({"depth"}))
    payload = {"invariants": [
        {"name": "dim", "status": "match"},
        {"name": "depth", "status": "skipped(hochster-cap)"},
    ]}
    good = {"verify x": workloads.digest(payload)}
    assert workloads.check(call, payload, good) == []
    assert workloads.check(call, payload, {"verify x": "0" * 20})
    assert workloads.check(call, payload, {})
    payload["invariants"][1]["status"] = "match"
    assert workloads.check(call, payload, good)


def test_digest_ignores_timing():
    a = {"reports": [{"x": 1, "timingMs": {"groebner": 1.0}}]}
    b = {"reports": [{"x": 1, "timingMs": {"groebner": 2.0}}]}
    assert workloads.digest(a) == workloads.digest(b)
    assert workloads.digest(a) != workloads.digest({"reports": [{"x": 2}]})


def test_refuses_to_run_without_sources():
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "benchmark", bare / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "benchmark/run.py", "--workload", "cli-mix",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60, check=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""

