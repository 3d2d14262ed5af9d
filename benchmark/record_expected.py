"""Record the result digests that the benchmark checks every call against.

    python3 benchmark/record_expected.py

Run from the root of a source checkout, on the commit whose results are
the reference.  Every call of every workload is run once per prime (and
per graph variant) and must pass its status checks; the digests of the
results, `timingMs` stripped, are written to benchmark/expected.json.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import OUT_DIR, import_workloads


def main():
    workloads = import_workloads()
    digests = {}
    for index, prime in enumerate(workloads.PRIMES):
        graph_index = index % workloads.GRAPH_VARIANTS
        for workload in workloads.WORKLOADS:
            for call in workloads.build_calls(workload, prime, graph_index, OUT_DIR):
                payload = call.run()
                problems = [p for p in workloads.check(call, payload, {})
                            if p != "no recorded digest"]
                if problems:
                    sys.exit(f"error: {call.label}: {'; '.join(problems)}")
                digests[call.label] = workloads.digest(payload)
                print(call.label, digests[call.label], flush=True)
    Path(workloads.EXPECTED_PATH).write_text(
        json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
