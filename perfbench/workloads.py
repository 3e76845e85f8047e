"""The four workloads as seeded rounds of operations, each with its check.

A round is a list of ``Op``s with a fixed count per op class; the seed picks
the inputs inside each class and the order.  Fixed class counts keep the
mix, and so the medians, the same from seed to seed; the inputs still
differ.  ``Op.call`` goes through hybridquat's public surface, looked up at
call time so that the tracer's wrappers see it.  ``Op.check`` compares the
result with ``reference`` or with stdout recorded in ``goldens.json`` and
returns a description of the mismatch, or None.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import hybridquat
import hybridquat.cli

import reference as ref

GOLDENS = Path(__file__).with_name("goldens.json")

# (w0, w1, p, q) written out here, not read from the library
NAMED = {
    "fibonacci": (0, 1, 1, -1),
    "lucas": (2, 1, 1, -1),
    "pell": (0, 1, 2, -1),
    "pell-lucas": (2, 2, 2, -1),
    "jacobsthal": (0, 1, 1, -2),
    "jacobsthal-lucas": (2, 1, 1, -2),
    "mersenne": (0, 1, 3, 2),
    "fermat": (1, 3, 3, -2),
}
NAMES = tuple(NAMED)
# x^2 - p*x + q splits over Q for mersenne and both jacobsthals, so Binet
# forms raise RationalRoots there; Binet ops draw from the other five
BINET_NAMES = ("fibonacci", "lucas", "pell", "pell-lucas", "fermat")
RATIONAL = (0, 1, Fraction(1, 2), -1)  # generalized_fibonacci(1/2, -1)


class Op:
    __slots__ = ("cls", "label", "call", "check")

    def __init__(self, cls, label, call, check):
        self.cls = cls
        self.label = label
        self.call = call
        self.check = check


def _expect(got, want, label="coefficients"):
    got, want = list(got), list(want)
    if got == want:
        return None
    bad = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w) if len(got) == len(want) else -1
    return f"{label} differ at {bad}: got {len(got)} values, expected {len(want)}"


def _rational_parts(values):
    """Surd-free values as Fractions; a surviving surd is reported."""
    out = []
    for v in values:
        if hasattr(v, "surd_part"):
            if v.surd_part != 0:
                return None
            v = v.rat_part
        out.append(v)
    return out


def _jitter(rng, level, spread=0.03):
    return round(level * rng.uniform(1 - spread, 1 + spread))


# -- products ------------------------------------------------------------------


def _frac(rng):
    return Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 100))


def _hq_op(cls, x, y, want):
    X = hybridquat.HybridQuaternion(tuple(x))
    Y = hybridquat.HybridQuaternion(tuple(y))
    return Op(cls, cls, lambda: X * Y, lambda r: _expect(r.coeffs, want))


def _surd_op(rng):
    d = 5
    x = [(Fraction(rng.randint(-1000, 1000), 2), Fraction(rng.randint(-1000, 1000), 2)) for _ in range(16)]
    y = [(Fraction(rng.randint(-1000, 1000), 2), Fraction(rng.randint(-1000, 1000), 2)) for _ in range(16)]
    X = hybridquat.HybridQuaternion(tuple(hybridquat.QuadExt(a, b, d) for a, b in x))
    Y = hybridquat.HybridQuaternion(tuple(hybridquat.QuadExt(a, b, d) for a, b in y))
    want = ref.surd_product(ref.HQ_ENTRIES, x, y, d)

    def check(r):
        got = []
        for c in r.coeffs:
            if hasattr(c, "discriminant"):
                if c.discriminant != d:
                    return f"discriminant {c.discriminant}, expected {d}"
                got.append((c.rat_part, c.surd_part))
            else:
                got.append((c, 0))
        return _expect(got, want)

    return Op("quad16", "quad16", lambda: X * Y, check)


def _pow_op(rng):
    x = [rng.randint(-1000, 1000) for _ in range(16)]
    # exponent 128 + three of the seven low bits: 8 squarings, 4 multiplies
    e = 128 + sum(1 << b for b in rng.sample(range(7), 3))
    X = hybridquat.HybridQuaternion(tuple(x))
    want = ref.int_power(ref.HQ_ENTRIES, x, e)
    return Op("pow", f"pow e={e}", lambda: X ** e, lambda r: _expect(r.coeffs, want))


def _four_dim_op(rng, cls, kind, entries):
    x = [_frac(rng) for _ in range(4)]
    y = [_frac(rng) for _ in range(4)]
    X, Y = kind(*x), kind(*y)
    want = ref.rational_product(entries, x, y)
    return Op(cls, cls, lambda: X * Y, lambda r: _expect(r.components(), want))


class Products:
    """One op is one product of two seeded operands."""

    counts = {"hybrid4": 20, "quaternion4": 20, "int16": 25, "frac16": 25, "quad16": 12, "pow": 4}

    def round(self, rng):
        ops = []
        for _ in range(self.counts["hybrid4"]):
            ops.append(_four_dim_op(rng, "hybrid4", hybridquat.Hybrid, ref.HYBRID_ENTRIES))
        for _ in range(self.counts["quaternion4"]):
            ops.append(_four_dim_op(rng, "quaternion4", hybridquat.Quaternion, ref.QUAT_ENTRIES))
        for _ in range(self.counts["int16"]):
            x = [rng.randint(-1000, 1000) for _ in range(16)]
            y = [rng.randint(-1000, 1000) for _ in range(16)]
            ops.append(_hq_op("int16", x, y, ref.int_product(ref.HQ_ENTRIES, x, y)))
        for _ in range(self.counts["frac16"]):
            x = [_frac(rng) for _ in range(16)]
            y = [_frac(rng) for _ in range(16)]
            ops.append(_hq_op("frac16", x, y, ref.rational_product(ref.HQ_ENTRIES, x, y)))
        ops += [_surd_op(rng) for _ in range(self.counts["quad16"])]
        ops += [_pow_op(rng) for _ in range(self.counts["pow"])]
        rng.shuffle(ops)
        return ops


# -- lifts ---------------------------------------------------------------------

# function name -> (lift layout, whether the values come back over Q(sqrt D))
POINT_FUNCTIONS = {
    "horadam": ("scalar", False),
    "lift_hybrid": ("hybrid", False),
    "lift_quaternion": ("quaternion", False),
    "lift_hybrid_quaternion": ("hybrid-quaternion", False),
    "binet_scalar": ("scalar", True),
    "binet_hybrid_quaternion": ("hybrid-quaternion", True),
}
WINDOW_FUNCTIONS = tuple(f for f, (_, surd) in POINT_FUNCTIONS.items() if not surd)
BINET_FUNCTIONS = tuple(f for f, (_, surd) in POINT_FUNCTIONS.items() if surd)
NAMED_LEVELS = (1000, 3000, 8000, 20000)
NEGATIVE_LEVEL = 2000
RATIONAL_LEVELS = (1000, -1000)
LARGE_D_LEVEL = 1100
# D = p^2 + 4 = 900060005 is squarefree, so split_square's trial division runs
# all the way to sqrt(D).  p is fixed: the cost of an op swings 3x with the
# square factors of D (an even p makes D = 4 * d), which would make the
# medians depend on the seed
LARGE_D_P = 30001


def _coefficients(value):
    if hasattr(value, "coeffs"):
        return value.coeffs
    if hasattr(value, "components"):
        return value.components()
    return (value,)


def _point_op(cls, fname, seq, params, n):
    layout, over_surd = POINT_FUNCTIONS[fname]

    def check(result):
        got = _coefficients(result)
        if over_surd:
            got = _rational_parts(got)
            if got is None:
                return "surd part did not cancel"
        return _expect(got, ref.lift_values(params, layout, n))

    label = f"{fname}({getattr(seq, 'name', params)}, {n})"
    return Op(cls, label, lambda: getattr(hybridquat, fname)(seq, n), check)


def _named_op(cls, fname, name, n):
    return _point_op(cls, fname, hybridquat.REGISTRY[name], NAMED[name], n)


class Lifts:
    """One op is one library point evaluation at a seeded index.

    Every name appears once per level, and the Binet function for a name is
    fixed by its place in BINET_NAMES, because terms grow 0.7 to 1.8 bits per
    index by sequence and the backward recurrence of a sequence with q = +-2
    makes fractions: so the cost of a round, and which ops sit at the median
    and the tail of the latencies, do not change with the seed.
    """

    def _named_ops(self, rng, cls, level, turn):
        names = list(NAMES)
        rng.shuffle(names)
        ops = [
            _named_op(cls, WINDOW_FUNCTIONS[k % len(WINDOW_FUNCTIONS)], name, _jitter(rng, level))
            for k, name in enumerate(names)
        ]
        for k, name in enumerate(BINET_NAMES):
            fname = BINET_FUNCTIONS[(k + turn) % len(BINET_FUNCTIONS)]
            ops.append(_named_op(cls, fname, name, _jitter(rng, level)))
        return ops

    def round(self, rng):
        ops = []
        for turn, level in enumerate(NAMED_LEVELS):
            ops += self._named_ops(rng, "named", level, turn)
        ops += self._named_ops(rng, "negative_rational", -NEGATIVE_LEVEL, 0)
        rational = hybridquat.generalized_fibonacci(RATIONAL[2], RATIONAL[3])
        for fname in POINT_FUNCTIONS:
            for level in RATIONAL_LEVELS:
                ops.append(_point_op("negative_rational", fname, rational, RATIONAL, _jitter(rng, level)))
        params = (0, 1, LARGE_D_P, -1)
        seq = hybridquat.HoradamParams(*params)
        for fname in BINET_FUNCTIONS:
            ops.append(_point_op("large_d", fname, seq, params, _jitter(rng, LARGE_D_LEVEL)))
        rng.shuffle(ops)
        return ops


# -- audit and cli ---------------------------------------------------------------


def load_goldens() -> dict:
    with open(GOLDENS) as f:
        return json.load(f)


def run_cli_inprocess(argv, stdin_text=""):
    """hybridquat.cli.main in this process; returns (exit code, stdout)."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = hybridquat.cli.main(list(argv))
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def _check_cli(want_code, want_out):
    def check(result):
        code, out = result
        if code != want_code:
            return f"exit code {code}, expected {want_code}"
        if out != want_out:
            return f"stdout differs ({len(out)} chars, expected {len(want_out)})"
        return None

    return check


class Audit:
    """One op is ``audit --identity <id>`` through cli.main, in process."""

    def __init__(self):
        self.goldens = load_goldens()["audit"]

    def round(self, rng):
        ids = list(self.goldens)
        rng.shuffle(ids)
        ops = []
        for ident in ids:
            argv = ("audit", "--identity", ident)
            code, out = self.goldens[ident]
            ops.append(Op("identity", ident, lambda a=argv: run_cli_inprocess(a), _check_cli(code, out)))
        return ops


LIFTS = tuple(ref.LIFT_OFFSETS)
FORMATS = ("csv", "json")
SHORT_WIDTH = 30
BINET_WIDTH = 8
WIDE_WIDTH = 2000
MUL_OPS = 3
CHEAP_AUDIT_IDS = ("Thm3.1.iii", "Thm3.3.iii-hat", "Thm3.3.iii-breve")
USAGE_OPS = 3
USAGE_ERRORS = (
    ("seq", "--sequence", "no-such-sequence", "--from", "0", "--to", "3"),
    ("seq", "--sequence", "fibonacci", "--from", "9", "--to", "1"),
    ("seq", "--params", "0,1,1", "--from", "0", "--to", "3"),
    ("seq", "--sequence", "fibonacci", "--from", "0", "--to", "3", "--lift", "octonion"),
    ("audit", "--identity", "Thm9.9"),
    ("mul",),
)


class Cli:
    """One op is one ``python -m hybridquat`` child, start to exit.

    With ``subprocess=False`` the same argvs run through cli.main in this
    process; the traced run uses that, since wrappers cannot reach a child.
    """

    def __init__(self, root: Path, subprocess: bool = True):
        self.goldens = load_goldens()["audit"]
        self.subprocess = subprocess
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.cwd = root
        self.child_rss_kb = 0

    def _run(self, argv, stdin_text=""):
        if not self.subprocess:
            return run_cli_inprocess(argv, stdin_text)
        proc = subprocess.Popen(
            [sys.executable, "-m", "hybridquat", *argv],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=self.env,
            cwd=self.cwd,
        )
        with proc.stdin:
            proc.stdin.write(stdin_text.encode())
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        return proc.returncode, out.decode()

    def _op(self, cls, argv, want_code, want_out, stdin_text=""):
        argv = tuple(argv)
        return Op(cls, " ".join(argv), lambda: self._run(argv, stdin_text), _check_cli(want_code, want_out))

    def _seq(self, cls, rng, lift, fmt, method, lo, hi, name):
        params = NAMED[name]
        if rng.random() < 0.5:
            source = ("--sequence", name)
        else:
            source = ("--params", ",".join(str(v) for v in params))
        argv = ("seq", *source, "--from", str(lo), "--to", str(hi),
                "--lift", lift, "--method", method, "--format", fmt)
        return self._op(cls, argv, 0, ref.render_seq(params, lift, lo, hi, fmt))

    def round(self, rng):
        ops = []
        for lift in LIFTS:
            for fmt in FORMATS:
                lo = rng.randint(-20, 40)
                ops.append(self._seq("seq", rng, lift, fmt, "recurrence", lo, lo + SHORT_WIDTH, rng.choice(NAMES)))
            lo = rng.randint(-10, 30)
            ops.append(self._seq("seq", rng, lift, rng.choice(FORMATS), "binet", lo, lo + BINET_WIDTH, rng.choice(BINET_NAMES)))
        for fmt in FORMATS * 2:
            lo = rng.randint(-20, 20)
            name = rng.choice(("fibonacci", "lucas"))
            ops.append(self._seq("seq_wide", rng, "hybrid-quaternion", fmt, "recurrence", lo, lo + WIDE_WIDTH, name))
        for _ in range(MUL_OPS):
            x = [_frac(rng) for _ in range(16)]
            y = [_frac(rng) for _ in range(16)]
            fmt = rng.choice(FORMATS)
            text = ",".join(map(str, x)) + "\n" + ",".join(map(str, y)) + "\n"
            ops.append(self._op("mul", ("mul", "--format", fmt), 0, ref.render_mul(x, y, fmt), text))
        for ident in CHEAP_AUDIT_IDS:
            code, out = self.goldens[ident]
            ops.append(self._op("audit", ("audit", "--identity", ident), code, out))
        for argv in rng.sample(USAGE_ERRORS, USAGE_OPS):
            ops.append(self._op("usage", argv, 2, ""))
        rng.shuffle(ops)
        return ops


def make(name: str, root: Path, subprocess: bool = True):
    if name == "cli":
        return Cli(root, subprocess)
    return {"products": Products, "audit": Audit, "lifts": Lifts}[name]()
