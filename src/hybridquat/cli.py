"""Command line front end.

Three subcommands:

* ``seq``   tabulates a Horadam sequence, optionally lifted into the hybrid,
  quaternion, or hybrid-quaternion algebra, by recurrence or by Binet form.
* ``audit`` runs identity checks and emits a JSON report.
* ``mul``   multiplies two hybrid quaternions supplied on stdin.

Hybrid-quaternion coefficients always travel in the flat canonical order
(1,1), (1,hi), (1,eps), (1,hh), (i,1), ..., (k,hh): quaternion unit varies
slowest, hybrid unit fastest.  Every number is printed as an exact rational
in lowest terms; the tool never emits floats.
"""

from __future__ import annotations

import argparse
import json
import sys

from .audit import CATALOG, DEFAULT_SPAN, REFUTED, audit_all, reports_to_json
from .errors import HybridQuatError, RationalRoots
from .hybrid_quaternion import COLUMN_NAMES, HybridQuaternion
from .scalars import parse_fraction, parse_scalar, unlimited_digits
from .sequences import LIFTS, REGISTRY, HoradamParams, _layout, binet_data, window

METHODS = ("recurrence", "binet")
FORMATS = ("csv", "json")

_HEADERS = {
    "scalar": ("w",),
    "hybrid": ("a", "b_hi", "c_eps", "d_hh"),
    "quaternion": ("z0", "z1", "z2", "z3"),
    "hybrid-quaternion": COLUMN_NAMES,
}


def _resolve_sequence(name: str | None, params_text: str | None) -> HoradamParams:
    # explicit parameters always win over a named sequence
    if params_text is not None:
        parts = params_text.split(",")
        if len(parts) != 4:
            raise ValueError(f"--params needs w0,w1,p,q (got {len(parts)} fields)")
        try:
            return HoradamParams(*(parse_fraction(part.strip()) for part in parts))
        except ValueError as exc:
            raise ValueError(f"--params: {exc}") from None
    if name is None:
        raise ValueError("seq needs --sequence or --params")
    key = name.strip().lower()
    if key not in REGISTRY:
        known = ", ".join(sorted(REGISTRY))
        raise ValueError(f"unknown sequence {name!r} (known: {known})")
    return REGISTRY[key].params


def _emit_table(terms: list, lo: int, hi: int, lift: str, fmt: str, out) -> None:
    # render each term once and lay out the strings: a term fills up to 16
    # cells, and str of a large Fraction is quadratic in its digits
    cells = [str(t) for t in terms]
    rows = [(n, _layout(cells, lo, lift, n)) for n in range(lo, hi + 1)]
    if fmt == "csv":
        out.write(",".join(("n",) + _HEADERS[lift]) + "\n")
        for n, coeffs in rows:
            out.write(",".join([str(n)] + coeffs) + "\n")
    else:
        payload = [{"n": n, "coeffs": coeffs} for n, coeffs in rows]
        out.write(json.dumps(payload, indent=2) + "\n")


def run_seq(args: argparse.Namespace, out) -> int:
    # the terms w_lo .. w_{hi+width-1} that the lift lays out
    lo, hi = args.lo, args.hi + LIFTS[args.lift][0] - 1
    if args.method == "binet":
        try:
            data = binet_data(args.params)
        except RationalRoots as exc:
            raise ValueError(f"rational roots: {exc}") from None
        terms = data.terms(lo, hi)
    else:
        terms = window(args.params, lo, hi)
    _emit_table(terms, lo, args.hi, args.lift, args.fmt, out)
    return 0


def run_audit(args: argparse.Namespace, out) -> int:
    span = (args.lo, args.hi)
    if args.identity is None:
        reports = audit_all(span)
    else:
        lookup = {key.lower(): runner for key, runner in CATALOG.items()}
        runner = lookup.get(args.identity.lower())
        if runner is None:
            known = ", ".join(CATALOG)
            raise ValueError(f"unknown identity {args.identity!r} (known: {known})")
        reports = runner(span)
    out.write(reports_to_json(reports) + "\n")
    # UNEVALUABLE never fails the run; only an actual refutation does
    return 1 if any(r.status == REFUTED for r in reports) else 0


def _read_operand(line: str, which: str) -> HybridQuaternion:
    fields = line.split(",")
    if len(fields) != 16:
        raise ValueError(f"{which} operand: expected 16 coefficients, got {len(fields)}")
    try:
        # Element stops at the first foreign surd, before the rest are parsed
        return HybridQuaternion(parse_scalar(f.strip()) for f in fields)
    except (ValueError, HybridQuatError) as exc:
        raise ValueError(f"{which} operand: {exc}") from None


def run_mul(args: argparse.Namespace, stdin, out) -> int:
    lines = [line for line in (raw.strip() for raw in stdin) if line]
    if len(lines) != 2:
        raise ValueError(f"mul needs exactly two operand lines, got {len(lines)}")
    left = _read_operand(lines[0], "left")
    right = _read_operand(lines[1], "right")
    coeffs = [str(c) for c in (left * right).coeffs]
    if args.fmt == "csv":
        out.write(",".join(coeffs) + "\n")
    else:
        out.write(json.dumps(coeffs, indent=2) + "\n")
    return 0


_ORDER_NOTE = (
    "hybrid-quaternion coefficient order: "
    + ", ".join(COLUMN_NAMES)
    + " (quaternion unit slowest, hybrid unit fastest)"
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridquat",
        description="exact Horadam hybrid quaternion toolkit",
        epilog=_ORDER_NOTE,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    seq = sub.add_parser(
        "seq",
        help="tabulate a Horadam sequence, optionally lifted",
        epilog=_ORDER_NOTE,
    )
    seq.add_argument("--sequence", help="registry name, e.g. fibonacci or pell-lucas")
    seq.add_argument(
        "--params",
        help="w0,w1,p,q as rationals; overrides --sequence when both are given",
    )
    seq.add_argument("--from", dest="lo", type=int, required=True, metavar="N")
    seq.add_argument("--to", dest="hi", type=int, required=True, metavar="N")
    seq.add_argument("--lift", choices=LIFTS, default="scalar")
    seq.add_argument("--method", choices=METHODS, default="recurrence")
    seq.add_argument("--format", dest="fmt", choices=FORMATS, default="csv")

    audit = sub.add_parser("audit", help="check identities and report as JSON")
    group = audit.add_mutually_exclusive_group()
    group.add_argument("--identity", help="catalog id, e.g. Thm3.1.ii (case-insensitive)")
    group.add_argument("--all", action="store_true", help="run the whole catalog (default)")
    audit.add_argument(
        "--from", dest="lo", type=int, default=DEFAULT_SPAN[0], metavar="N"
    )
    audit.add_argument("--to", dest="hi", type=int, default=DEFAULT_SPAN[1], metavar="N")

    mul = sub.add_parser(
        "mul",
        help="multiply two hybrid quaternions read from stdin",
        description=(
            "Reads two lines, each holding 16 comma-separated exact scalars in "
            "the flat canonical order, and prints their product."
        ),
        epilog=_ORDER_NOTE,
    )
    mul.add_argument("--format", dest="fmt", choices=FORMATS, default="csv")

    return parser


def _config_from_args(args: argparse.Namespace) -> argparse.Namespace:
    # an unknown sequence is reported before an empty range
    if args.command == "seq":
        args.params = _resolve_sequence(args.sequence, args.params)
    if args.command != "mul" and args.lo > args.hi:
        raise ValueError(f"empty range: --from {args.lo} > --to {args.hi}")
    return args


# (builder, parser): one parser per process, built on first use and again
# only if build_parser is rebound (say, wrapped for timing)
_parser = (None, None)


def main(argv: list[str] | None = None) -> int:
    global _parser
    # exact values of any size are parsed and printed in full
    with unlimited_digits():
        if _parser[0] is not build_parser:
            _parser = (build_parser, build_parser())
        try:
            args = _parser[1].parse_args(argv)
        except SystemExit as exc:
            # argparse exits 2 on usage errors and 0 on --help; pass both through
            return int(exc.code or 0)
        try:
            args = _config_from_args(args)
            if args.command == "seq":
                return run_seq(args, sys.stdout)
            if args.command == "audit":
                return run_audit(args, sys.stdout)
            return run_mul(args, sys.stdin, sys.stdout)
        except (HybridQuatError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
