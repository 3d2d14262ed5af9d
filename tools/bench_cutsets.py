"""Time `cut_sets` graph by graph and count the cut sets it returns.

    python tools/bench_cutsets.py --src src --label change \
        --output BENCH_cut_sets.json

gbei is imported from --src, so the same script measures a checkout of any
commit.  The results are stored under --label in --output, beside the
labels already there, so two runs give a before/after pair in one file.
The graphs are the eight seeded G(16, 1/4) graphs that the cli-mix
workload's `cutsets` call reads (`benchmark.workloads.random_graph` of this
checkout), then the path, the cycle and three complete multipartite graphs,
all on 16 vertices.  Each graph's time is the best of REPEAT calls.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

REPEAT = 3
ROOT = Path(__file__).resolve().parents[1]


def _graphs():
    from benchmark.workloads import GRAPH_VARIANTS, random_graph
    from gbei import (PartiteSpec, SimpleGraph, complete_graph,
                      complete_multipartite, graph_from_json)

    for index in range(GRAPH_VARIANTS):
        yield f"G(16,1/4) #{index}", graph_from_json(random_graph(index))
    yield "P16", SimpleGraph.from_edges(16, [(v, v + 1) for v in range(1, 16)])
    yield "C16", SimpleGraph.from_edges(16, [(v, v % 16 + 1) for v in range(1, 17)])
    yield "K16", complete_graph(16)
    for parts in ((8, 8), (4, 4, 4, 4)):
        name = f"K({','.join(map(str, parts))})"
        yield name, complete_multipartite(PartiteSpec(2, parts))


def _measure(name, G):
    from gbei import cut_sets

    runs = []
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        found = cut_sets(G)
        runs.append(round(time.perf_counter() - t0, 4))
    return {"graph": name, "edges": len(G.edges), "cut_sets": len(found),
            "best_s": min(runs), "runs_s": runs}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True,
                        help="directory that holds the gbei package")
    parser.add_argument("--label", required=True,
                        help="name of this side, e.g. parent or change")
    parser.add_argument("--output", type=Path, required=True,
                        help="JSON file to add this side to")
    args = parser.parse_args(argv)

    sys.path[:0] = [os.path.abspath(args.src), str(ROOT)]
    graphs = []
    for name, G in _graphs():
        graphs.append(_measure(name, G))
        print(json.dumps(graphs[-1]), file=sys.stderr)
    random_best = sum(row["best_s"] for row in graphs
                      if row["graph"].startswith("G("))
    side = {"repeat": REPEAT,
            "host": {"python": platform.python_version(),
                     "machine": platform.machine(), "cpus": os.cpu_count()},
            "random_total_best_s": round(random_best, 4),
            "graphs": graphs}

    record = {"sides": {}}
    if args.output.exists():
        record = json.loads(args.output.read_text())
    record["sides"][args.label] = side
    args.output.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
