"""Every benchmark call reproduces its recorded result.

`benchmark/workloads.py` holds the calls of the three benchmark workloads
and, in `benchmark/expected.json`, a digest of each call's result with
every `timingMs` field stripped.  Running each call once at p = 32003 on
graph 0 and checking it against that record makes a change to any report,
beyond its timings, a test failure.  The module is loaded by path and
used as is.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "benchmark" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # the dataclass decorator looks its module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_calls_match_recorded_digests(workload, tmp_path):
    expected = workloads.load_expected()
    for call in workloads.build_calls(workload, 32003, 0, tmp_path):
        assert workloads.check(call, call.run(), expected) == [], call.label
