"""The command line as a process: the checks CI runs on the installed package.

Each child is ``python -m hybridquat`` under this interpreter, with the
caller's environment and a fresh ``tmp_path`` as its working directory. Under
tier-1 (``PYTHONPATH=src``) that is the package in ``src/``; the smoke job in
``.github/workflows/tests.yml`` runs this file from outside the checkout, so
there it is the installed package. The module therefore needs pytest alone,
reads the benchmark's goldens and reference by path from this file, never
puts ``src/`` on ``sys.path``, and writes nothing outside ``tmp_path``.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from hybridquat import sequences as s
from hybridquat.scalars import QuadExt, parse_scalar

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# the caller's environment; a relative PYTHONPATH entry (tier-1's "src") is
# read where the caller stands, since a child starts in its own directory
ENV = dict(os.environ)
if ENV.get("PYTHONPATH"):
    ENV["PYTHONPATH"] = os.pathsep.join(
        os.path.abspath(entry) for entry in ENV["PYTHONPATH"].split(os.pathsep)
    )

FIB_CSV = "n,w\n0,0\n1,1\n2,1\n3,2\n4,3\n5,5\n6,8\n7,13\n"


def _child(cwd, *args, stdin=b""):
    return subprocess.run(
        [sys.executable, *args], input=stdin, capture_output=True, cwd=cwd, env=ENV, timeout=120
    )


def hybridquat(cwd, *argv, stdin=b""):
    return _child(cwd, "-m", "hybridquat", *argv, stdin=stdin)


def test_module_is_runnable(tmp_path):
    proc = hybridquat(tmp_path, "seq", "--sequence", "fibonacci", "--from", "0", "--to", "7")
    assert proc.returncode == 0
    assert proc.stdout.decode() == FIB_CSV


def test_module_exits_1_on_a_refuted_identity(tmp_path):
    assert hybridquat(tmp_path, "audit", "--identity", "Thm3.1.iii").returncode == 1


def test_binet_and_recurrence_tables_agree(tmp_path):
    for lift in ("scalar", "hybrid", "quaternion", "hybrid-quaternion"):
        for seq, hi in ((["--sequence", "pell"], "60"), (["--params", "0,1,1/2,-1"], "40")):
            tables = []
            for method in ("binet", "recurrence"):
                run = hybridquat(tmp_path, "seq", *seq, "--from", "-7", "--to", hi,
                                 "--lift", lift, "--method", method)
                assert run.returncode == 0, (lift, seq, method, run.stderr)
                tables.append(run.stdout)
            assert tables[0] == tables[1], (lift, seq)


def test_recurrence_and_binet_points_agree_through_the_one_lift_builder():
    pairs = ((s.horadam, s.binet_scalar), (s.lift_hybrid, s.binet_hybrid),
             (s.lift_quaternion, s.binet_quaternion),
             (s.lift_hybrid_quaternion, s.binet_hybrid_quaternion))
    checked = 0
    for seq in (s.PELL, s.generalized_lucas(3, -1), s.generalized_fibonacci(Fraction(1, 2), -1),
                s.FERMAT, s.generalized_fibonacci(Fraction(1, 3), -1),
                s.HoradamParams(0, 1, 30001, -1),
                s.HoradamParams(Fraction(1, 3), 2, -6, Fraction(-3, 2))):
        for n in (-2049, -25, 0, 40, 4096, 20000):
            for point, closed in pairs:
                assert point(seq, n) == closed(seq, n), (seq, n, point.__name__)
                checked += 1
    assert checked == 168


def test_a_wide_hybrid_quaternion_table_carries_the_same_cells_as_csv_and_json(tmp_path):
    args = ["seq", "--sequence", "lucas", "--from", "0", "--to", "2000", "--lift", "hybrid-quaternion"]
    csv, js = hybridquat(tmp_path, *args), hybridquat(tmp_path, *args, "--format", "json")
    assert (csv.returncode, js.returncode) == (0, 0), (csv.stderr, js.stderr)
    rows = [line.split(",") for line in csv.stdout.decode().splitlines()[1:]]
    table = json.loads(js.stdout)
    assert len(rows) == len(table) == 2001
    assert [[str(r["n"])] + r["coeffs"] for r in table] == rows


def test_every_audit_golden_matches_in_exit_code_and_stdout_byte_for_byte(tmp_path):
    goldens = json.loads((PERFBENCH / "goldens.json").read_text())["audit"]
    assert len(goldens) == 16
    for ident, (code, out) in goldens.items():
        run = hybridquat(tmp_path, "audit", "--identity", ident)
        assert (run.returncode, run.stdout) == (code, out.encode()), ident


# run in a fresh interpreter: pytest has loaded modules of its own
IMPORT_PROBE = """
import sys, hybridquat.cli
loaded = {'dataclasses', 'inspect'} & set(sys.modules)
assert not loaded, loaded
import hybridquat
star = {}
exec("from hybridquat import *", star)
del star["__builtins__"]
assert set(star) == set(hybridquat.__all__), set(star) ^ set(hybridquat.__all__)
modules = [name for name in hybridquat.__all__ if type(star[name]) is type(sys)]
assert not modules, modules
print(len(star), "public names, none a module")
"""


def test_cli_import_leaves_dataclasses_and_inspect_unloaded_and_star_import_binds_all(tmp_path):
    probe = _child(tmp_path, "-c", IMPORT_PROBE)
    assert probe.returncode == 0, probe.stderr.decode()


def test_mul_over_sqrt5_and_over_ints_prints_the_reference_product_cell_by_cell(tmp_path):
    spec = importlib.util.spec_from_file_location("reference", PERFBENCH / "reference.py")
    ref = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ref)
    # (rational, surd) pairs; every dense coefficient has a surd part
    dense_x = [(Fraction(k - 7, 2), Fraction(k % 5 + 1)) for k in range(16)]
    dense_y = [(Fraction(2 * k + 1), Fraction(k - 19, 3)) for k in range(16)]
    unit_eps = [(Fraction(int(k == 2)), Fraction(0)) for k in range(16)]

    # int coefficients, surd parts 0: a unit and a 2-nonzero value times a
    # dense one take the table loop, dense times dense the product in M2(H)
    def ints(values):
        return [(Fraction(v), Fraction(0)) for v in values]

    unit_k_hh = ints(int(k == 15) for k in range(16))
    two = ints(3 if k in (1, 9) else 0 for k in range(16))
    dense_a, dense_b = ints(k * k - 7 for k in range(16)), ints(5 - 3 * k for k in range(16))
    # the same int route with 40-digit ints of both signs, and with rationals
    # whose 16 denominators all differ (2..17 and 3..33)
    big_a = ints((-1) ** k * (10 ** 39 + 7919 * k * k + 1) for k in range(16))
    big_b = ints((-1) ** (k // 2) * (3 * 10 ** 39 - 104729 * k - 1) for k in range(16))
    frac_a = [(Fraction(2 * k - 15, k + 2), Fraction(0)) for k in range(16)]
    frac_b = [(Fraction(3 * k - 22, 2 * k + 3), Fraction(0)) for k in range(16)]
    operands = ((dense_x, dense_y), (unit_eps, dense_y),
                (unit_k_hh, dense_a), (two, dense_a), (dense_a, dense_b),
                (big_a, big_b), (frac_a, frac_b))

    def line(pairs):
        return ",".join(f"{a} + {b}*sqrt(5)" if b else str(a) for a, b in pairs)

    for x, y in operands:
        run = hybridquat(tmp_path, "mul", "--format", "json",
                         stdin=(line(x) + "\n" + line(y) + "\n").encode())
        assert run.returncode == 0, run.stderr
        cells = [parse_scalar(c) for c in json.loads(run.stdout)]
        got = [(c.rat_part, c.surd_part) if isinstance(c, QuadExt) else (c, 0) for c in cells]
        assert got == ref.surd_product(ref.HQ_ENTRIES, x, y, 5), (x, y, run.stdout)


def test_mul_reads_every_number_by_one_grammar_and_a_field_outside_it_exits_2_naming_the_fault(
    tmp_path,
):
    one = "1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n"
    refused = [
        ("sqrt(2),sqrt(3),0,0,0,0,0,0,0,0,0,0,0,0,0,0",
         "sqrt(2) and sqrt(3) do not live in a common quadratic field"),
        # Fraction takes "1 / 2" from Python 3.12 on; the parser refuses it on every version
        ("1 / 2,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0", "Invalid literal for Fraction: '1 / 2'"),
        # a radicand is an integer written in the same grammar as a coefficient
        ("sqrt(1_0),0,0,0,0,0,0,0,0,0,0,0,0,0,0,0", "malformed surd term 'sqrt(1_0)'"),
        # an exponent past int's 4300-digit text limit is refused before the number is built
        ("1e400000,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0", "exponent too large in '1e400000'"),
    ]
    for left, fault in refused:
        run = hybridquat(tmp_path, "mul", stdin=(left + "\n" + one).encode())
        assert run.returncode == 2, left
        assert run.stderr == f"error: left operand: {fault}\n".encode()
    # an exponent's sign stays inside its number
    run = hybridquat(tmp_path, "mul", stdin=("1e-2,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n" + one).encode())
    assert run.returncode == 0, run.stderr
    assert [row.split(",")[0] for row in run.stdout.decode().splitlines()] == ["1/100"]
