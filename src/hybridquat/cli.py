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
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Sequence

from .audit import CATALOG, DEFAULT_SPAN, REFUTED, audit_all, reports_to_json
from .errors import HybridQuatError, RationalRoots
from .hybrid_quaternion import COLUMN_NAMES, HybridQuaternion
from .scalars import QuadExt, parse_scalar, unlimited_digits
from .sequences import LIFT_TERMS, REGISTRY, BinetData, HoradamParams, Window, binet_data

LIFTS = ("scalar", "hybrid", "quaternion", "hybrid-quaternion")
METHODS = ("recurrence", "binet")
FORMATS = ("csv", "json")

_HEADERS = {
    "scalar": ("w",),
    "hybrid": ("a", "b_hi", "c_eps", "d_hh"),
    "quaternion": ("z0", "z1", "z2", "z3"),
    "hybrid-quaternion": COLUMN_NAMES,
}


@dataclass(frozen=True)
class CliConfig:
    """Resolved invocation: which subcommand, on what, over which range."""

    command: str
    params: HoradamParams | None = None
    lo: int | None = None
    hi: int | None = None
    lift: str = "scalar"
    method: str = "recurrence"
    fmt: str = "csv"
    identity: str | None = None


class UsageError(Exception):
    """Bad invocation: reported on stderr, exit status 2."""


def _parse_params(text: str) -> HoradamParams:
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError(f"--params needs w0,w1,p,q (got {len(parts)} fields)")
    try:
        w0, w1, p, q = (Fraction(part.strip()) for part in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"--params: {exc}") from None
    return HoradamParams(w0, w1, p, q)


def _resolve_sequence(name: str | None, params_text: str | None) -> HoradamParams:
    # explicit parameters always win over a named sequence
    if params_text is not None:
        return _parse_params(params_text)
    if name is None:
        raise UsageError("seq needs --sequence or --params")
    key = name.strip().lower()
    if key not in REGISTRY:
        known = ", ".join(sorted(REGISTRY))
        raise UsageError(f"unknown sequence {name!r} (known: {known})")
    return REGISTRY[key].params


def _rational(value: Fraction | QuadExt) -> Fraction:
    if isinstance(value, QuadExt):
        # Binet values of integer-index terms live in Q; a surviving surd
        # term would mean the evaluator itself is broken.
        if value.surd_part != 0:
            raise RuntimeError(f"surd part failed to cancel: {value}")
        return value.rat_part
    return value


def _binet_row(data: BinetData, lift: str, n: int) -> list[Fraction]:
    if lift == "scalar":
        return [_rational(data.scalar(n))]
    # the evaluators of BinetData are named after the lifts
    value = getattr(data, lift.replace("-", "_"))(n)
    return [_rational(c) for c in value.components()]


def _recurrence_rows(
    params: HoradamParams, lift: str, lo: int, hi: int
) -> list[list[Fraction]]:
    w = Window(params, lo, hi + LIFT_TERMS[lift] - 1)
    return [w.coeffs(lift, n) for n in range(lo, hi + 1)]


def _emit_table(
    rows: list[tuple[int, list[Fraction]]], header: tuple[str, ...], fmt: str, out: IO[str]
) -> None:
    if fmt == "csv":
        out.write(",".join(("n",) + header) + "\n")
        for n, coeffs in rows:
            out.write(",".join([str(n)] + [str(c) for c in coeffs]) + "\n")
    else:
        payload = [{"n": n, "coeffs": [str(c) for c in coeffs]} for n, coeffs in rows]
        out.write(json.dumps(payload, indent=2) + "\n")


def run_seq(config: CliConfig, out: IO[str]) -> int:
    if config.lo > config.hi:
        raise UsageError(f"empty range: --from {config.lo} > --to {config.hi}")
    params = config.params
    if config.method == "binet":
        try:
            data = binet_data(params)
        except RationalRoots as exc:
            raise UsageError(f"rational roots: {exc}") from None
        body = [(n, _binet_row(data, config.lift, n)) for n in range(config.lo, config.hi + 1)]
    else:
        values = _recurrence_rows(params, config.lift, config.lo, config.hi)
        body = list(zip(range(config.lo, config.hi + 1), values))
    _emit_table(body, _HEADERS[config.lift], config.fmt, out)
    return 0


def run_audit(config: CliConfig, out: IO[str]) -> int:
    span = (config.lo, config.hi)
    if config.lo > config.hi:
        raise UsageError(f"empty range: --from {config.lo} > --to {config.hi}")
    if config.identity is None:
        reports = audit_all(span)
    else:
        lookup = {key.lower(): runner for key, runner in CATALOG.items()}
        runner = lookup.get(config.identity.lower())
        if runner is None:
            known = ", ".join(CATALOG)
            raise UsageError(f"unknown identity {config.identity!r} (known: {known})")
        reports = runner(span)
    out.write(reports_to_json(reports) + "\n")
    # UNEVALUABLE never fails the run; only an actual refutation does
    return 1 if any(r.status == REFUTED for r in reports) else 0


def _read_operand(line: str, which: str) -> HybridQuaternion:
    fields = line.split(",")
    if len(fields) != 16:
        raise UsageError(f"{which} operand: expected 16 coefficients, got {len(fields)}")
    try:
        coeffs = tuple(parse_scalar(field.strip()) for field in fields)
        return HybridQuaternion(coeffs)
    except (ValueError, HybridQuatError) as exc:
        raise UsageError(f"{which} operand: {exc}") from None


def run_mul(config: CliConfig, stdin: IO[str], out: IO[str]) -> int:
    lines = [line for line in (raw.strip() for raw in stdin) if line]
    if len(lines) != 2:
        raise UsageError(f"mul needs exactly two operand lines, got {len(lines)}")
    left = _read_operand(lines[0], "left")
    right = _read_operand(lines[1], "right")
    coeffs = [str(c) for c in (left * right).coeffs]
    if config.fmt == "csv":
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


def _config_from_args(args: argparse.Namespace) -> CliConfig:
    if args.command == "seq":
        return CliConfig(
            command="seq",
            params=_resolve_sequence(args.sequence, args.params),
            lo=args.lo,
            hi=args.hi,
            lift=args.lift,
            method=args.method,
            fmt=args.fmt,
        )
    if args.command == "audit":
        return CliConfig(command="audit", lo=args.lo, hi=args.hi, identity=args.identity)
    return CliConfig(command="mul", fmt=args.fmt)


def main(argv: Sequence[str] | None = None) -> int:
    # exact values of any size are parsed and printed in full
    with unlimited_digits():
        return _main(argv)


def _main(argv: Sequence[str] | None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through
        return int(exc.code or 0)
    try:
        config = _config_from_args(args)
        if config.command == "seq":
            return run_seq(config, sys.stdout)
        if config.command == "audit":
            return run_audit(config, sys.stdout)
        return run_mul(config, sys.stdin, sys.stdout)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (HybridQuatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
