"""Command-line front end: predict, verify, sweep, cutsets, hilbert.

Every subcommand prints one JSON document on stdout (or to --output);
warnings and diagnostics go to stderr only.  Exit codes: 0 on success,
1 when the oracle contradicts a prediction, 2 on usage errors, 3 on
internal failures.  --prime sets the coefficient prime (default 32003).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import CapExceededError
from .formulas import predict, predicted_cut_sets, predicted_hilbert
from .graphs import PartiteSpec, complete_multipartite, cut_sets, load_graph
from .groebner import TermOrder
from .hilbert import hilbert_series
from .hochster import HOCHSTER_CAP
from .rings import DEFAULT_PRIME, TERM_ORDERS, Ring, is_prime
from .verify import GROEBNER_CAP, _floored_basis, enumerate_specs, summarize, sweep, verify


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gbei",
        description=("Predict and independently verify the invariants of "
                     "generalized binomial edge ideals of complete "
                     "multipartite graphs."))
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--prime", type=int, default=DEFAULT_PRIME,
                        help=f"coefficient prime (default {DEFAULT_PRIME})")
    common.add_argument("--output", metavar="FILE",
                        help="write the JSON document here instead of stdout")

    specargs = argparse.ArgumentParser(add_help=False)
    specargs.add_argument("--m", type=int, required=True,
                          help="number of matrix rows (the complete graph K_m)")
    specargs.add_argument("--parts", required=True,
                          help="comma-separated part sizes, e.g. 2,2 or 1,1,2")

    caps = argparse.ArgumentParser(add_help=False)
    caps.add_argument("--order", choices=list(TERM_ORDERS), default="lex-row-major",
                      help="primary term order for the oracle")
    caps.add_argument("--groebner-max-vars", type=int, default=GROEBNER_CAP,
                      help=f"skip Groebner stages above this m*n (default {GROEBNER_CAP})")
    caps.add_argument("--hochster-max-vars", type=int, default=HOCHSTER_CAP,
                      help=f"skip the depth and reg stages above this m*n "
                           f"(default {HOCHSTER_CAP})")

    p = sub.add_parser("predict", parents=[specargs, common],
                       help="print the closed-form Prediction JSON")
    p.add_argument("--char-zero", action="store_true",
                   help="report the characteristic-zero cd interval")

    sub.add_parser("verify", parents=[specargs, caps, common],
                   help="run the full oracle and print the agreement report")

    sw = sub.add_parser("sweep", parents=[caps, common],
                        help="verify every spec up to the given bounds")
    sw.add_argument("--max-m", type=int, required=True)
    sw.add_argument("--max-n", type=int, required=True)

    cs = sub.add_parser("cutsets", parents=[common],
                        help="print the cut sets C(G) of an arbitrary graph")
    cs.add_argument("--graph", required=True,
                    help='JSON file {"n": int, "edges": [[u,v], ...]}')

    sub.add_parser("hilbert", parents=[specargs, caps, common],
                   help="print the predicted vs computed Hilbert series")
    return parser


def _check_prime(prime, parser):
    try:
        if is_prime(prime):
            return
    except ValueError as exc:
        parser.error(str(exc))
    parser.error(f"prime must be a prime number, got {prime}")


def _resolve_spec(args, parser):
    try:
        parts = tuple(int(tok) for tok in args.parts.split(","))
    except ValueError:
        parser.error(f"--parts must be comma-separated integers, got {args.parts!r}")
    ordered = tuple(sorted(parts))
    if ordered != parts:
        print(f"note: parts reordered ascending to {','.join(map(str, ordered))}",
              file=sys.stderr)
    try:
        return PartiteSpec(args.m, ordered)
    except ValueError as exc:
        parser.error(str(exc))


def _emit(doc, args):
    text = json.dumps(doc, indent=2) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_predict(args, parser):
    spec = _resolve_spec(args, parser)
    _emit(predict(spec, char_zero=args.char_zero).to_json(), args)
    return 0


def _cmd_verify(args, parser):
    spec = _resolve_spec(args, parser)
    report = verify(spec, prime=args.prime, order=args.order,
                    groebner_cap=args.groebner_max_vars,
                    hochster_cap=args.hochster_max_vars)
    _emit(report.to_json(), args)
    return 1 if report.has_mismatch else 0


def _cmd_sweep(args, parser):
    if args.max_m < 2 or args.max_n < 2:
        parser.error("--max-m and --max-n must be at least 2")
    reports = sweep(enumerate_specs(args.max_m, args.max_n),
                    prime=args.prime, order=args.order,
                    groebner_cap=args.groebner_max_vars,
                    hochster_cap=args.hochster_max_vars)
    doc = {"reports": [r.to_json() for r in reports],
           "summary": summarize(reports)}
    _emit(doc, args)
    return 1 if any(r.has_mismatch for r in reports) else 0


def _cmd_cutsets(args, parser):
    try:
        G = load_graph(args.graph)
    except (OSError, ValueError) as exc:
        parser.error(f"cannot load {args.graph}: {exc}")
    try:
        pairs = cut_sets(G)
    except CapExceededError as exc:
        parser.error(str(exc))
    _emit({"n": G.n_vertices, "cutSets": [sorted(T) for T, _ in pairs]}, args)
    return 0


def _cmd_hilbert(args, parser):
    spec = _resolve_spec(args, parser)
    predicted = predicted_hilbert(spec)
    computed = None
    if spec.m * spec.n <= args.groebner_max_vars:
        *_, ini, found = _floored_basis(
            spec, complete_multipartite(spec), predicted_cut_sets(spec), args.prime,
            TermOrder.by_name(args.order, Ring(spec.m, spec.n, args.prime)), {})
        computed = hilbert_series(ini) if found is None else found
    else:
        print(f"note: m*n = {spec.m * spec.n} exceeds the Groebner cap; "
              "oracle series skipped", file=sys.stderr)
    doc = {
        "spec": {"m": spec.m, "parts": list(spec.parts)},
        "predicted": {**predicted.to_json(), "text": predicted.text()},
        "computed": None if computed is None else
                    {**computed.to_json(), "text": computed.text()},
        "match": None if computed is None else computed == predicted,
    }
    _emit(doc, args)
    return 1 if doc["match"] is False else 0


_COMMANDS = {
    "predict": _cmd_predict,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "cutsets": _cmd_cutsets,
    "hilbert": _cmd_hilbert,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_prime(args.prime, parser)
    for cap in ("groebner_max_vars", "hochster_max_vars"):
        if getattr(args, cap, 0) < 0:
            parser.error(f"--{cap.replace('_', '-')} must be at least 0")
    if args.output:
        # Probed before any stage runs; a file the probe creates is removed
        # again, and an existing device or FIFO is opened by _emit alone.
        created = not os.path.lexists(args.output)
        if created or os.path.isfile(args.output) or os.path.isdir(args.output):
            try:
                open(args.output, "a", encoding="utf-8").close()
            except OSError as exc:
                parser.error(f"cannot write --output {args.output}: {exc.strerror}")
            if created:
                os.remove(args.output)
    try:
        return _COMMANDS[args.command](args, parser)
    except SystemExit:
        raise
    except Exception as exc:  # pragma: no cover - defensive
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
