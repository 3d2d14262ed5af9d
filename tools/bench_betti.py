"""Time `betti_table` and count the sigma it reduces, ideal by ideal.

    python tools/bench_betti.py --src src --label change \
        --output BENCH_betti.json

gbei is imported from --src, so the same script measures a checkout of any
commit.  The results are stored under --label in --output, beside the
labels already there, so two runs give a before/after pair in one file.
Each ideal is the initial ideal of a spec's J over GF(32003) in one of the
two lex orders, built outside the timed region, and its time is the best
of REPEAT calls.  A sigma counts as reduced when its homology is taken on
its faces: a call of `_homology_ranks`, or of `_FaceTable.homology_ranks`
on a checkout that still has the shared table.  The sigma count (the
union closure of the supports), the number of entries and a SHA-256 of
the table's rows must be equal on every side.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from pathlib import Path

PRIME = 32003
REPEAT = 3
SPECS = ((2, (2, 2, 2)), (3, (1, 1, 2)), (3, (1, 3)), (3, (2, 2)), (2, (3, 3)),
         (3, (1, 1, 1, 1, 1)), (3, (1, 1, 1, 2)))
ORDERS = ("lex_row_major", "lex_column_major")


def _sigma_count(ini):
    from gbei.hochster import SimplicialComplex

    closed = {0}
    for s in SimplicialComplex.of_ideal(ini).supports:
        closed |= {mask | s for mask in closed}
    return len(closed)


def _measure(m, parts, order):
    from gbei import (PartiteSpec, TermOrder, complete_multipartite,
                      generalized_bei, hochster)

    J = generalized_bei(m, complete_multipartite(PartiteSpec(m, parts)), PRIME)
    ini = J.initial_ideal(getattr(TermOrder, order)(J.ring))

    owner = hochster if hasattr(hochster, "_homology_ranks") else hochster._FaceTable
    name = "_homology_ranks" if owner is hochster else "homology_ranks"
    homology_ranks = getattr(owner, name)
    reduced = []

    def counted(*args):  # (complex_, mask, p), or (table, sigma_mask)
        reduced.append(args[1])
        return homology_ranks(*args)

    setattr(owner, name, counted)
    try:
        runs = []
        for _ in range(REPEAT):
            reduced.clear()
            t0 = time.perf_counter()
            table = hochster.betti_table(ini, PRIME)
            runs.append(round(time.perf_counter() - t0, 4))
    finally:
        setattr(owner, name, homology_ranks)
    digest = hashlib.sha256(json.dumps(table.rows()).encode()).hexdigest()
    return {"spec": f"{m},({','.join(map(str, parts))})", "order": order,
            "nvars": ini.nvars, "sigma": _sigma_count(ini),
            "sigma_reduced": len(reduced), "entries": len(table.entries),
            "digest": digest, "best_s": min(runs), "runs_s": runs}


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
    ideals = []
    for m, parts in SPECS:
        for order in ORDERS:
            ideals.append(_measure(m, parts, order))
            print(json.dumps(ideals[-1]), file=sys.stderr)
    side = {"repeat": REPEAT,
            "host": {"python": platform.python_version(),
                     "machine": platform.machine(), "cpus": os.cpu_count()},
            "total_best_s": round(sum(row["best_s"] for row in ideals), 4),
            "ideals": ideals}

    record = {"prime": PRIME, "sides": {}}
    if args.output.exists():
        record = json.loads(args.output.read_text())
    record["sides"][args.label] = side
    args.output.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
