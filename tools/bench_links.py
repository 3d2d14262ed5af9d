"""Time `depth_and_regularity` and count the links it reduces, spec by spec.

    python tools/bench_links.py --src src --label change \
        --output BENCH_hochster_links.json

gbei is imported from --src, so the same script measures a checkout of any
commit.  The results are stored under --label in --output, beside the
labels already there, so two runs give a before/after pair in one file.
A link counts as reduced when `_FaceTable.ranks` is called with
relative=True, as `tests/test_hochster.py::_count_links` counts them.
Each spec's time is the best of REPEAT calls on its lex row-major
initial ideal over GF(32003); building that ideal is not timed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

PRIME = 32003
CAP = 18
REPEAT = 3
# the five verify-hochster specs, then specs past the default Hochster cap
SPECS = ((3, (1, 1, 2)), (3, (1, 3)), (3, (2, 2)), (3, (1, 1, 1, 1, 1)),
         (3, (1, 1, 1, 2)),
         (4, (2, 2)), (3, (3, 3)), (2, (2, 2, 2, 3)), (3, (1, 5)), (2, (2, 7)),
         (2, (1, 8)))


def _measure(m, parts):
    from gbei import (PartiteSpec, TermOrder, complete_multipartite,
                      generalized_bei)
    from gbei.hochster import (SimplicialComplex, _FaceTable,
                               depth_and_regularity)

    J = generalized_bei(m, complete_multipartite(PartiteSpec(m, parts)), PRIME)
    ini = J.initial_ideal(TermOrder.lex_row_major(J.ring))
    complex_ = SimplicialComplex.of_ideal(ini)
    union = 0
    for s in complex_.supports:
        union |= s
    faces = _FaceTable(complex_, union, PRIME).starts[-1]

    ranks = _FaceTable.ranks
    reduced = []

    def counted(self, present_bits, relative):
        if relative:
            reduced.append(present_bits)
        return ranks(self, present_bits, relative)

    _FaceTable.ranks = counted
    try:
        runs = []
        for _ in range(REPEAT):
            reduced.clear()
            t0 = time.perf_counter()
            depth, reg = depth_and_regularity(ini, PRIME, cap=CAP)
            runs.append(round(time.perf_counter() - t0, 4))
    finally:
        _FaceTable.ranks = ranks
    return {"spec": f"{m},({','.join(map(str, parts))})", "nvars": ini.nvars,
            "faces": faces, "links_reduced": len(reduced),
            "depth": depth, "reg": reg, "best_s": min(runs), "runs_s": runs}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True,
                        help="directory that holds the gbei package")
    parser.add_argument("--label", required=True,
                        help="name of this side, e.g. parent or change")
    parser.add_argument("--output", type=Path, required=True,
                        help="JSON file to add this side to")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.abspath(args.src))
    specs = []
    for m, parts in SPECS:
        specs.append(_measure(m, parts))
        print(json.dumps(specs[-1]), file=sys.stderr)
    side = {"repeat": REPEAT,
            "host": {"python": platform.python_version(),
                     "machine": platform.machine(), "cpus": os.cpu_count()},
            "total_best_s": round(sum(row["best_s"] for row in specs), 4),
            "specs": specs}

    record = {"prime": PRIME, "cap": CAP, "sides": {}}
    if args.output.exists():
        record = json.loads(args.output.read_text())
    record["sides"][args.label] = side
    args.output.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
