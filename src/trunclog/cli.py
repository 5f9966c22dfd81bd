"""Command-line surface: show objects, emit root tables, run the verifier.

Thin shell over the library; results go to stdout, diagnostics to stderr.
Exit codes: 0 all requested checks pass, 1 any failure, 2 usage error.
``main`` parses with one parser per process, built by its first call;
``build_parser`` builds a fresh one.
The parameter variable renders as "a" and fractions as "num / den" with a
monic denominator, so textual output is stable across runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .bpoly import CSV_HEADER, b_roots_csv_rows, b_rs
from .fields import _is_prime
from .glog import glog
from .special import finite_polylog, laguerre_pm1
from .verify import (
    check_pair_budget,
    checker_options,
    coerce_theorem,
    verify_all,
    verify_theorem,
)


def _usage_error(parse):
    """parse as an argparse type: its ValueError becomes a usage error with
    the same message, so argparse prints the usage line and exits 2."""

    @functools.wraps(parse)
    def convert(spec: str):
        try:
            return parse(spec)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


@_usage_error
def _parse_primes(spec: str):
    """A single odd prime "p" or an inclusive range "a..b" of odd primes,
    each integer of the range tested by trial division (``fields._is_prime``)."""
    if ".." in spec:
        lo_s, hi_s = spec.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
        if lo < 3 or hi < lo:
            raise ValueError(f"bad prime range {spec!r}")
        primes = [q for q in range(lo, hi + 1) if _is_prime(q)]
        if not primes:
            raise ValueError(f"no odd primes in range {spec!r}")
        return primes
    p = int(spec)
    if p < 3 or not _is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    return [p]


@_usage_error
def _pair_budget(spec: str):
    return check_pair_budget(spec if spec == "exhaustive" else int(spec))


@_usage_error
def _theorem(spec: str):
    """A TheoremId, or "all" (the default, which argparse also converts)."""
    return spec if spec == "all" else coerce_theorem(spec)


@_usage_error
def _polylog_order(spec: str) -> int:
    d = int(spec)
    if d < 0:
        raise ValueError("polylog order must be >= 0")
    return d


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trunclog",
        description="characteristic-p special polynomials and identity checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    show = sub.add_parser("show", help="construct and print an object")
    show.add_argument("target", choices=["glog", "laguerre", "b", "polylog", "all"])
    show.add_argument("--prime", type=_parse_primes, required=True)
    show.add_argument("--format", choices=["text", "json"], default="text")
    show.add_argument("--dlog", type=_polylog_order, default=1, help="polylog order")

    table = sub.add_parser("table", help="emit a CSV table")
    table.add_argument("target", choices=["b-roots"])
    table.add_argument("--prime", type=_parse_primes, required=True)

    verify = sub.add_parser("verify", help="run identity checkers")
    verify.add_argument("--prime", type=_parse_primes, required=True)
    verify.add_argument("--theorem", type=_theorem, default="all")
    verify.add_argument("--format", choices=["text", "json"], default="text")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument(
        "--pairs",
        type=_pair_budget,
        default=None,
        help="pair budget for CCoefficients: an int >= 1 or 'exhaustive'",
    )
    return parser


def _show_payload(p: int, target: str, dlog: int) -> dict:
    payload: dict = {"prime": p}
    if target in ("glog", "all"):
        g = glog(p)
        payload["glog"] = {"text": g.render_text(), **g.to_json()}
    if target in ("laguerre", "all"):
        payload["laguerre"] = str(laguerre_pm1(p))
    if target in ("b", "all"):
        payload["b"] = {
            f"b[1,{s}]": str(b_rs(p, 1, s)) for s in range(1, p - 1)
        }
    if target in ("polylog", "all"):
        payload["polylog"] = {
            "order": dlog,
            "text": str(finite_polylog(p, dlog)),
        }
    return payload


def _print_show_text(payload: dict) -> None:
    print(f"p = {payload['prime']}")
    if "glog" in payload:
        print(f"G(X) = {payload['glog']['text']}")
    if "laguerre" in payload:
        print(f"L(X) = {payload['laguerre']}")
    if "b" in payload:
        for name, text in payload["b"].items():
            print(f"{name}(a) = {text}")
    if "polylog" in payload:
        d = payload["polylog"]["order"]
        print(f"polylog_{d}(X) = {payload['polylog']['text']}")


def _run_show(args) -> int:
    payloads = [_show_payload(p, args.target, args.dlog) for p in args.prime]
    if args.format == "json":
        print(json.dumps(payloads[0] if len(payloads) == 1 else payloads,
                         indent=2, sort_keys=True))
    else:
        for payload in payloads:
            _print_show_text(payload)
    return 0


def _run_table(args) -> int:
    print(CSV_HEADER)
    for p in args.prime:
        for row in b_roots_csv_rows(p):
            print(row)
    return 0


def _run_verify(args) -> int:
    reports = []
    for p in args.prime:
        if args.theorem == "all":
            reports.extend(verify_all(p, c_pairs=args.pairs, seed=args.seed))
        else:
            options = checker_options(args.theorem, args.pairs, args.seed)
            reports.append(verify_theorem(p, args.theorem, **options))
    if args.format == "json":
        objs = [r.to_json_dict() for r in reports]
        print(json.dumps(objs[0] if len(objs) == 1 else objs, indent=2))
    else:
        for r in reports:
            print(r.one_line())
            if r.witness is not None:
                print(f"    witness: {json.dumps(r.witness)}")
            if r.notes:
                print(f"    notes: {r.notes}")
    return 0 if all(r.status != "fail" for r in reports) else 1


_parser = None  # main's parser, built by its first call


def main(argv=None) -> int:
    """Every argument is checked by its argparse type before any
    computation; a bad one is a usage error, exit 2."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    run = {"show": _run_show, "table": _run_table, "verify": _run_verify}
    return run[args.command](args)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
