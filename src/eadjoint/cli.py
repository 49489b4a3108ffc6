"""JSON-in, JSON-out command line front end.

Subcommands: invariants, reconstruct, classify, certify, dims, sample,
verify.  Input comes from a file path argument or standard input; the result
JSON goes to standard output (sorted keys, compact separators, so identical
requests with identical seeds produce byte-identical output).  Domain errors
exit with status 1 and a machine-readable {"error": code, "detail": ...};
malformed input exits with status 2.  Timing and progress diagnostics go to
standard error only.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import EadjointError
from .invariants import MAX_WORD_LEN, Point, evaluate_invariants, word_invariants
from .nullcone import (
    adapted_certificate,
    component_interval,
    nullcone_summary,
    sample_component,
)
from .orbits import reconstruct_fiber_point, reconstruction_input_from_json
from .verify import MAX_TRIALS, SUITE_NAMES, run_suite


def _emit(obj):
    sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _read_input(path):
    if path in (None, "-"):
        raw = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    try:
        return json.loads(raw)
    except RecursionError:
        raise ValueError("JSON input nested too deeply") from None


def _cmd_invariants(args):
    w = Point.from_json_obj(_read_input(args.input))
    if args.words or args.max_len is not None or w.r > 1:
        max_len = args.max_len if args.max_len is not None else 2 * w.n - 1
        _emit(word_invariants(w, max_len).to_json_obj())
    else:
        _emit(evaluate_invariants(w).to_json_obj())
    return 0


def _cmd_reconstruct(args):
    t, gamma = reconstruction_input_from_json(_read_input(args.input))
    w = reconstruct_fiber_point(t, gamma, strict_rank1=args.strict_rank1)
    _emit(w.to_json_obj())
    return 0


def _cmd_classify(args):
    w = Point.from_json_obj(_read_input(args.input))
    _emit(component_interval(w).to_json_obj())
    return 0


def _cmd_certify(args):
    w = Point.from_json_obj(_read_input(args.input))
    _emit(adapted_certificate(w, args.k).to_json_obj())
    return 0


def _cmd_dims(args):
    _emit(nullcone_summary(args.n, args.p, args.q).to_json_obj())
    return 0


def _cmd_sample(args):
    w = sample_component(args.n, args.p, args.q, args.k, args.seed)
    _emit(w.to_json_obj())
    return 0


def _cmd_verify(args):
    names = list(SUITE_NAMES) if args.suite == "all" else [args.suite]
    reports = [
        run_suite(n, seed=args.seed, trials=args.trials, jobs=args.jobs) for n in names
    ]
    # wall time stays off stdout so the output is byte-stable per request
    payload = [r.to_json_obj() for r in reports]
    _emit(payload[0] if len(payload) == 1 else payload)
    ok = True
    for r in reports:
        print(
            f"suite {r.suite}: {r.passes}/{r.cells_run} cells passed "
            f"in {r.wall_time_s:.2f}s",
            file=sys.stderr,
        )
        for f in r.failures:
            print(f"  FAIL {f.label} (seed {f.seed}): {f.detail}", file=sys.stderr)
        ok = ok and r.ok()
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eadjoint",
        description=(
            "Exact computations for the enhanced adjoint action of GL_n: "
            "invariant evaluation, fiber reconstruction, null-cone "
            "classification and certification, and verification suites."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="evaluate the generating invariants")
    p.add_argument("input", nargs="?", default="-", help="point JSON (default stdin)")
    p.add_argument("--words", action="store_true", help="emit word invariants")
    p.add_argument("--max-len", type=int, default=None, dest="max_len",
                   help=f"word length bound, 0..{MAX_WORD_LEN} (default 2n-1)")
    p.set_defaults(fn=_cmd_invariants)

    p = sub.add_parser("reconstruct", help="rebuild a fiber point from (t, gamma)")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--strict-rank1", action="store_true", dest="strict_rank1",
                   help="reject rank-zero summands")
    p.set_defaults(fn=_cmd_reconstruct)

    p = sub.add_parser("classify", help="null-cone component interval of a point")
    p.add_argument("input", nargs="?", default="-")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("certify", help="destabilization certificate for component k")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser("dims", help="component dimension formulas")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(fn=_cmd_dims)

    p = sub.add_parser("sample", help="random point of a null-cone component")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=list(SUITE_NAMES) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=None,
                   help=f"override the per-cell trial count (1..{MAX_TRIALS})")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for independent cells (at least 1; "
                   "capped at the cell and CPU counts)")
    p.set_defaults(fn=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (EadjointError, ValueError, OSError) as exc:
        code = exc.code if isinstance(exc, EadjointError) else "malformed_input"
        _emit({"error": code, "detail": str(exc)})
        return 2 if code == "malformed_input" else 1


def main_entry():
    raise SystemExit(main())
