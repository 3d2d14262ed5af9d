"""Time `hilbert_series` ideal by ideal and count its recursion nodes.

    python tools/bench_hilbert.py --src src --label change \
        --output BENCH_hilbert.json

gbei is imported from --src, so the same script measures a checkout of any
commit.  The results are stored under --label in --output, beside the
labels already there, so two runs give a before/after pair in one file.
The ideals are the nineteen monomial ideals whose series the oracle takes
on the verify-elimination specs and on three specs past the Groebner cap:
for each verify-elimination spec in(J), in(P_∅), the meet M of the
variable components and in(P_∅ + M); then in(J) alone for the others.
All are lex row-major over GF(32003) and are built from the public API
before any timing, M by minimalized lcms.  Each ideal's time is the best
of REPEAT calls; its node count comes from one more, untimed call that
counts `_kpoly`.
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
REPEAT = 3
# the verify-elimination specs, then in(J) alone past the Groebner cap
MEET_SPECS = ((4, (2, 2)), (3, (1, 1, 1, 3)), (3, (3, 3)), (2, (2, 2, 2, 3)))
LARGE_SPECS = ((2, (1, 11)), (2, (3, 9)), (3, (1, 7)))


def _ideals():
    from gbei import (Ideal, MonomialIdeal, PartiteSpec, Poly, TermOrder,
                      complete_multipartite, generalized_bei, predict,
                      prime_component)
    from gbei.rings import mono_lcm

    def initial(I):
        return I.initial_ideal(TermOrder.lex_row_major(I.ring))

    for m, parts in MEET_SPECS + LARGE_SPECS:
        name = f"{m},({','.join(map(str, parts))})"
        spec = PartiteSpec(m, parts)
        G = complete_multipartite(spec)
        yield f"{name} in(J)", initial(generalized_bei(m, G, PRIME))
        if (m, parts) in LARGE_SPECS:
            continue
        P, *variable = [prime_component(m, G, T, PRIME)
                        for T in predict(spec).cut_sets]
        monos = [next(iter(g.terms)) for g in variable[0].gens]
        for A in variable[1:]:
            monos = MonomialIdeal(P.ring.nvars, [
                mono_lcm(a, next(iter(g.terms))) for a in monos
                for g in A.gens]).gens
        M = MonomialIdeal(P.ring.nvars, monos)
        yield f"{name} in(P_0)", initial(P)
        yield f"{name} M", M
        yield f"{name} in(P_0 + M)", initial(
            Ideal(P.ring, P.gens + tuple(Poly(P.ring, {g: 1}) for g in M.gens)))


def _measure(name, ideal):
    import gbei.hilbert as hilbert

    runs = []
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        series = hilbert.hilbert_series(ideal)
        runs.append(round(time.perf_counter() - t0, 6))

    kpoly = hilbert._kpoly
    nodes = []

    def counted(gens, run):
        nodes.append(gens)
        return kpoly(gens, run)

    hilbert._kpoly = counted
    try:
        hilbert.hilbert_series(ideal)
    finally:
        hilbert._kpoly = kpoly
    return {"ideal": name, "nvars": ideal.nvars, "gens": len(ideal.gens),
            "series": series.text(), "nodes": len(nodes),
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

    sys.path.insert(0, os.path.abspath(args.src))
    ideals = list(_ideals())
    rows = []
    for name, ideal in ideals:
        rows.append(_measure(name, ideal))
        print(json.dumps({k: rows[-1][k] for k in ("ideal", "nodes", "best_s")}),
              file=sys.stderr)
    side = {"repeat": REPEAT,
            "host": {"python": platform.python_version(),
                     "machine": platform.machine(), "cpus": os.cpu_count()},
            "total_best_s": round(sum(row["best_s"] for row in rows), 6),
            "ideals": rows}

    record = {"sides": {}}
    if args.output.exists():
        record = json.loads(args.output.read_text())
    record["sides"][args.label] = side
    args.output.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
