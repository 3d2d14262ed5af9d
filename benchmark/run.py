"""Closed-loop benchmark of the gbei oracle and CLI.

    python3 benchmark/run.py --workload verify-hochster --seed 1 --seconds 30 --trace 0

gbei is imported from the src/ directory next to benchmark/.  One
caller runs the workload's calls one after another (a closed loop, nothing
concurrent) in whole passes until the time is used, with at least one pass
(two with --trace 1).  Every call's output is checked.  The last stdout
line is one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics from untraced passes, topped up
with repeats of the slowest calls in the time left after the last whole
pass.  pass_s sums each call's median time over its repeats, each repeat
scaled to a reference host speed by hostspeed.Probe; max_call_s is the
largest of those medians.  --trace 1 alternates untraced and traced passes
and reports the per-layer metrics of the traced ones (span durations scaled
the same way), plus the tracing overhead (traced minus untraced pass_s);
the spans of the last traced pass go to .bench_out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 9
SETUP_PROBE_PERIOD = 0.01


def import_workloads():
    """Import gbei from the checkout's src/ (never an installed copy)."""
    if not (SRC / "gbei" / "__init__.py").is_file():
        sys.exit(f"error: no gbei sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gbei
    if Path(gbei.__file__).resolve().parent != (SRC / "gbei").resolve():
        sys.exit(f"error: imported gbei from {gbei.__file__}, not {SRC}")
    import workloads
    return workloads


def setup_probe(workload, seed):
    """Fresh interpreter: time importing gbei and building the inputs.

    Prints the time scaled to the reference host speed, then the wall time.
    """
    import hostspeed

    probe = hostspeed.Probe()
    with probe.running(SETUP_PROBE_PERIOD):
        start = time.perf_counter()
        workloads = import_workloads()
        workloads.build_inputs(workload, seed, OUT_DIR)
        end = time.perf_counter()
    print(probe.scaled(start, end), end - start)


def measure_setup(workload, seed):
    """Median over several fresh-interpreter set-ups, scaled and wall."""
    times, walls = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload,
             "--seed", str(seed)],
            capture_output=True, text=True, timeout=60, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"error: set-up probe exited with {proc.returncode}")
        scaled, wall = proc.stdout.strip().splitlines()[-1].split()
        times.append(float(scaled))
        walls.append(float(wall))
    return statistics.median(times), statistics.median(walls)


class Pass:
    """Outcome of the calls run into it: each call's (start, end) intervals."""

    def __init__(self):
        self.intervals = {}
        self.attempted = 0
        self.failed = 0
        self.digests = {}


def run_pass(workloads, calls, expected, tracer=None, into=None):
    """Run `calls` once each, checking every result, into `into` or a new Pass.

    A call whose digest differs from an earlier repeat in the same Pass fails.
    """
    result = Pass() if into is None else into
    for index, call in enumerate(calls, 1):
        gc.collect()  # every call starts from the same heap state
        result.attempted += 1
        t0 = time.perf_counter()
        try:
            payload = tracer.call(index, call.run) if tracer else call.run()
        except Exception:
            traceback.print_exc()
            problems = ["raised"]
        else:
            t1 = time.perf_counter()
            result.intervals.setdefault(call.label, []).append((t0, t1))
            problems = workloads.check(call, payload, expected)
            got = workloads.digest(payload)
            if result.digests.setdefault(call.label, got) != got:
                problems.append("result differs from an earlier repeat")
        if problems:
            result.failed += 1
            print(f"FAIL {call.label}: {'; '.join(problems)}", file=sys.stderr)
    return result


def call_seconds(result, probe):
    """Each call's median time over its repeats, at reference host speed."""
    return {label: statistics.median(probe.scaled(*iv) for iv in ivs)
            for label, ivs in result.intervals.items()}


def scaled_spans(recorded, probe):
    """Spans whose durations are scaled to the reference host speed.

    Every span of a call is scaled by the speed over the whole call, so that
    self times (a span minus its children) stay consistent.
    """
    speed = {call_id: probe.speed(start, end)
             for _, parent, call_id, _, start, end, _ in recorded if parent == 0}
    return [(sid, parent, call_id, name, start,
             start + probe.own(start, end) * speed[call_id], info)
            for sid, parent, call_id, name, start, end, info in recorded]


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_passes(workloads, calls, expected, seconds, trace):
    """Whole passes until `seconds` is used, then `top_up`.

    With `trace`, every second pass goes into a separate traced Pass and
    there is no top-up (per-layer metrics need whole passes).
    """
    import spans

    plain, traced, tracers = Pass(), Pass(), []
    start = time.perf_counter()
    done = 0
    min_passes = 2 if trace else 1
    while True:
        elapsed = time.perf_counter() - start
        if done >= min_passes and elapsed + elapsed / done > seconds:
            break
        if trace and done % 2 == 1:
            tracers.append(spans.Tracer())
            with tracers[-1].installed():
                run_pass(workloads, calls, expected, tracers[-1], traced)
        else:
            run_pass(workloads, calls, expected, into=plain)
        done += 1
    if not trace:
        top_up(workloads, calls, expected, plain, start + seconds)
    return plain, traced, tracers


def top_up(workloads, calls, expected, plain, deadline):
    """Spend the time left after the last whole pass on more repeats.

    The slowest calls go first, each only if its last time still fits: a
    long call gets the fewest repeats in whole passes.
    """
    fitted = True
    while fitted:
        fitted = False
        last = {label: t1 - t0 for label, ivs in plain.intervals.items()
                for t0, t1 in ivs[-1:]}
        for call in sorted(calls, key=lambda c: last.get(c.label, 0.0),
                           reverse=True):
            if call.label not in last:  # it raised every time: no repeats
                continue
            if time.perf_counter() + last[call.label] <= deadline:
                run_pass(workloads, [call], expected, into=plain)
                fitted = True


def measure(workload, seed, seconds, trace):
    workloads = import_workloads()
    import hostspeed
    import spans

    calls = workloads.build_inputs(workload, seed, OUT_DIR)
    expected = workloads.load_expected()
    probe = hostspeed.Probe()
    with probe.running():
        plain, traced, tracers = run_passes(workloads, calls, expected,
                                            seconds, trace)

    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    for label, got in traced.digests.items():
        if plain.digests.get(label, got) != got:
            print(f"FAIL {label}: traced result differs", file=sys.stderr)
            failed += 1
    untraced = call_seconds(plain, probe)

    if trace:
        per_pass = [spans.layer_metrics(scaled_spans(t.spans, probe))
                    for t in tracers]
        metrics = {name: (statistics.median(p[name] for p in per_pass),
                          spans.unit_of(name)) for name in per_pass[0]}
        overhead = (sum(call_seconds(traced, probe).values())
                    - sum(untraced.values()))
        metrics["trace.overhead_s"] = (overhead, "s")
        spans.write_spans(tracers[-1].spans, OUT_DIR / f"spans-{workload}-{seed}.jsonl")
    else:
        setup, setup_wall = measure_setup(workload, seed)
        print(f"setup wall {setup_wall:.4f} s", file=sys.stderr)
        metrics = {
            "setup_s": (setup, "s"),
            "pass_s": (sum(untraced.values()), "s"),
            "max_call_s": (max(untraced.values(), default=0.0), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        }

    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.6f} {unit}", file=sys.stderr)
    wall = {label: statistics.median(t1 - t0 for t0, t1 in ivs)
            for label, ivs in plain.intervals.items()}
    repeats = {label: len(ivs) for label, ivs in plain.intervals.items()}
    print(f"untraced wall pass {sum(wall.values()):.3f} s; repeats {repeats}; "
          f"probes {len(probe.seconds)}, median "
          f"{statistics.median(probe.seconds) * 1e3:.3f} ms",
          file=sys.stderr)
    print(f"attempted={attempted} failed={failed} "
          f"fail_ratio={failed / attempted:.4f}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify-hochster", "verify-elimination", "cli-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
