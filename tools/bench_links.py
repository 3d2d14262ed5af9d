"""Time `depth_and_regularity` and count the links it reduces, spec by spec.

    python tools/bench_links.py --src src --label change \
        --output BENCH_hochster_links.json

gbei is imported from --src, so the same script measures a checkout of any
commit.  The results are stored under --label in --output, beside the
labels already there, so two runs give a before/after pair in one file.
Each spec's time is the best of REPEAT calls on its lex row-major initial
ideal over GF(32003); building that ideal is not timed.  One more, untimed
call counts, with the module's functions wrapped:

- links_reduced: the links whose homology is taken, one per call of
  `_collapsed_ranks` (with no such function, one per face-table reduction);
- tables_reduced: the reductions on faces, calls of `_homology_ranks`
  (or, on older checkouts, `_FaceTable.homology_ranks` or `_FaceTable.ranks`)
  under the call;
- visited and non_coned: the faces the link walk enters, and all faces
  `_non_coned_faces` yields with no depth or reg bound; null where there is
  no walk.

faces is the face count of the whole complex on the union of the supports.
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


def _wrap(owner, name, counts, key, during=None):
    """Count the calls of owner.name under counts[key]; return the undo.
    With `during`, a call counts only while counts[during] is 0."""
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        if during is None or not counts[during]:
            counts[key] += 1
        return original(*args, **kwargs)

    setattr(owner, name, counted)
    return lambda: setattr(owner, name, original)


def _counted_call(hochster, ini, complex_):
    """(links_reduced, tables_reduced, visited) of one call."""
    counts = {"links": 0, "tables": 0, "taken": 0, "inside": 0}
    if hasattr(hochster, "_homology_ranks"):
        undo = [_wrap(hochster, "_homology_ranks", counts, "tables")]
    else:
        undo = [_wrap(hochster._FaceTable, name, counts, "tables")
                for name in ("homology_ranks", "ranks")
                if hasattr(hochster._FaceTable, name)]
    if hasattr(hochster, "_collapsed_ranks"):
        collapsed_ranks = hochster._collapsed_ranks

        def collapsing(*args):
            counts["links"] += 1
            counts["inside"] += 1
            try:
                return collapsed_ranks(*args)
            finally:
                counts["inside"] -= 1

        hochster._collapsed_ranks = collapsing
        undo.append(lambda: setattr(hochster, "_collapsed_ranks", collapsed_ranks))
        # a link the walk takes, not one the collapse tests a vertex by
        undo.append(_wrap(hochster, "_link", counts, "taken", during="inside"))
    try:
        hochster.depth_and_regularity(ini, PRIME, cap=CAP)
    finally:
        for step in reversed(undo):
            step()
    if not hasattr(hochster, "_non_coned_faces"):
        return counts["tables"], counts["tables"], None
    return counts["links"], counts["tables"], 1 + counts["taken"]


def _measure(m, parts):
    from gbei import (PartiteSpec, TermOrder, complete_multipartite,
                      generalized_bei, hochster)

    J = generalized_bei(m, complete_multipartite(PartiteSpec(m, parts)), PRIME)
    ini = J.initial_ideal(TermOrder.lex_row_major(J.ring))
    complex_ = hochster.SimplicialComplex.of_ideal(ini)
    union = 0
    for s in complex_.supports:
        union |= s
    faces = sum(map(len, complex_.faces_by_size(union)))

    runs = []
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        depth, reg = hochster.depth_and_regularity(ini, PRIME, cap=CAP)
        runs.append(round(time.perf_counter() - t0, 4))
    links, tables, visited = _counted_call(hochster, ini, complex_)
    non_coned = None
    if hasattr(hochster, "_non_coned_faces"):
        non_coned = sum(1 for _ in hochster._non_coned_faces(complex_, lambda *_: True))
    return {"spec": f"{m},({','.join(map(str, parts))})", "nvars": ini.nvars,
            "faces": faces, "visited": visited, "non_coned": non_coned,
            "links_reduced": links, "tables_reduced": tables,
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
