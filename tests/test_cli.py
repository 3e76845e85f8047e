"""End-to-end checks of the command line interface.

Everything runs in-process through ``main(argv)`` so exit codes and output
bytes are observable directly; one subprocess test confirms the module is
runnable as ``python -m hybridquat``.
"""

from __future__ import annotations

import decimal
import io
import json
import subprocess
import sys

import pytest

from hybridquat.cli import main

FIB_CSV = "n,w\n0,0\n1,1\n2,1\n3,2\n4,3\n5,5\n6,8\n7,13\n"

IDENTITY_ROW = "1" + ",0" * 15
I_HI_ROW = ",".join("1" if i == 5 else "0" for i in range(16))
EPS_ROW = ",".join("1" if i == 2 else "0" for i in range(16))


@pytest.fixture()
def cli(capsys, monkeypatch):
    def run(argv, stdin_text=None):
        if stdin_text is not None:
            monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


def test_seq_fibonacci_csv_golden(cli):
    code, out, err = cli(["seq", "--sequence", "fibonacci", "--from", "0", "--to", "7"])
    assert code == 0
    assert out == FIB_CSV
    assert err == ""


def test_seq_hybrid_lift_json(cli):
    code, out, _ = cli(
        ["seq", "--sequence", "lucas", "--from", "0", "--to", "2",
         "--lift", "hybrid", "--format", "json"]
    )
    assert code == 0
    assert json.loads(out) == [
        {"n": 0, "coeffs": ["2", "1", "3", "4"]},
        {"n": 1, "coeffs": ["1", "3", "4", "7"]},
        {"n": 2, "coeffs": ["3", "4", "7", "11"]},
    ]


def test_seq_hybrid_quaternion_header(cli):
    code, out, _ = cli(
        ["seq", "--sequence", "pell", "--from", "0", "--to", "0",
         "--lift", "hybrid-quaternion"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("n,c_1_1,c_1_hi,c_1_eps,c_1_hh,c_i_1")
    assert lines[0].endswith("c_k_1,c_k_hi,c_k_eps,c_k_hh")
    # row 0 of Pell lifted: w[s+t] over w(0..6) = 0,1,2,5,12,29,70
    assert lines[1] == "0,0,1,2,5,1,2,5,12,2,5,12,29,5,12,29,70"


def test_seq_fractional_params(cli):
    # w_n = p*w_{n-1} - q*w_{n-2}, so q = -1 adds the previous term
    code, out, _ = cli(["seq", "--params", "1/2,1/3,1,-1", "--from", "0", "--to", "3"])
    assert code == 0
    assert out == "n,w\n0,1/2\n1,1/3\n2,5/6\n3,7/6\n"


def test_params_override_sequence_name(cli):
    code, out, _ = cli(
        ["seq", "--sequence", "fibonacci", "--params", "2,1,1,-1",
         "--from", "0", "--to", "4"]
    )
    assert code == 0
    assert out == "n,w\n0,2\n1,1\n2,3\n3,4\n4,7\n"


def test_binet_matches_recurrence(cli):
    args = ["seq", "--sequence", "pell", "--from", "-4", "--to", "12", "--lift", "quaternion"]
    _, by_recurrence, _ = cli(args + ["--method", "recurrence"])
    _, by_binet, _ = cli(args + ["--method", "binet"])
    assert by_binet == by_recurrence


def test_csv_and_json_carry_same_numbers(cli):
    args = ["seq", "--sequence", "jacobsthal", "--from", "0", "--to", "6", "--lift", "hybrid"]
    _, csv_out, _ = cli(args)
    _, json_out, _ = cli(args + ["--format", "json"])
    rows = [line.split(",") for line in csv_out.splitlines()[1:]]
    from_csv = [{"n": int(r[0]), "coeffs": r[1:]} for r in rows]
    assert json.loads(json_out) == from_csv


def test_output_is_deterministic(cli):
    args = ["seq", "--sequence", "fermat", "--from", "-5", "--to", "20",
            "--lift", "hybrid-quaternion", "--format", "json"]
    _, first, _ = cli(args)
    _, second, _ = cli(args)
    assert first == second


def test_binet_rejects_rational_roots(cli):
    code, out, err = cli(
        ["seq", "--sequence", "mersenne", "--from", "0", "--to", "5", "--method", "binet"]
    )
    assert code == 2
    assert out == ""
    assert "rational roots" in err


def test_negative_range_needs_invertible_q(cli):
    code, _, err = cli(["seq", "--params", "0,1,1,0", "--from", "-5", "--to", "5"])
    assert code == 2
    assert "q = 0" in err


def test_seq_requires_a_sequence(cli):
    code, _, err = cli(["seq", "--from", "0", "--to", "5"])
    assert code == 2
    assert "--sequence or --params" in err


def test_seq_empty_range(cli):
    code, _, err = cli(["seq", "--sequence", "fibonacci", "--from", "5", "--to", "4"])
    assert code == 2
    assert "empty range" in err


def test_unknown_sequence(cli):
    code, _, err = cli(["seq", "--sequence", "tribonacci", "--from", "0", "--to", "1"])
    assert code == 2
    assert "unknown sequence" in err


def test_missing_range_is_usage_error(cli):
    code, _, _ = cli(["seq", "--sequence", "fibonacci"])
    assert code == 2


def test_audit_single_identity_verified(cli):
    code, out, _ = cli(["audit", "--identity", "thm3.1.ii"])  # lookup ignores case
    assert code == 0
    (report,) = json.loads(out)
    assert report["identity"] == "Thm3.1.ii"
    assert report["status"] == "VERIFIED"
    assert report["range"] == [-10, 30]


def test_audit_refuted_identity_exits_one(cli):
    code, out, _ = cli(["audit", "--identity", "Thm3.1.iii", "--from", "0", "--to", "5"])
    assert code == 1
    (report,) = json.loads(out)
    assert report["status"] == "REFUTED"
    assert report["first_failure"]["n"] == 0


def test_audit_unevaluable_does_not_fail(cli):
    # Thm2.1 spans ten sequences; three are UNEVALUABLE yet none is REFUTED
    code, out, _ = cli(["audit", "--identity", "thm2.1"])
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 10
    statuses = {r["status"] for r in reports}
    assert "UNEVALUABLE(RationalRoots)" in statuses
    assert "REFUTED" not in statuses


def test_audit_all_finds_the_refuted_identities(cli):
    code, out, _ = cli(["audit", "--all", "--from", "-2", "--to", "8"])
    assert code == 1
    reports = json.loads(out)
    assert len(reports) == 25
    refuted = [r["identity"] for r in reports if r["status"] == "REFUTED"]
    assert refuted == [
        "Thm3.1.iii",
        "Thm3.3.iii-hat",
        "Thm3.3.iii-breve",
        "C2@x^2-x-1",
        "C1@x^2-2x-1",
    ]


def test_audit_defaults_to_full_catalog(cli):
    code, out, _ = cli(["audit"])
    assert code == 1
    assert len(json.loads(out)) == 25


def test_audit_empty_range(cli):
    code, _, err = cli(["audit", "--from", "5", "--to", "4"])
    assert code == 2
    assert "empty range" in err


def test_audit_unknown_identity(cli):
    code, _, err = cli(["audit", "--identity", "Thm9.9"])
    assert code == 2
    assert "unknown identity" in err


def test_values_past_the_int_digit_limit_render_in_full(cli):
    # F_25000 has 5225 digits, past CPython's default 4300-digit limit
    a, b = 0, 1
    for _ in range(25000):
        a, b = b, a + b
    code, out, err = cli(["seq", "--sequence", "fibonacci", "--from", "25000", "--to", "25000"])
    assert (code, err) == (0, "")
    assert out == f"n,w\n25000,{decimal.Decimal(a)}\n"

    code, out, _ = cli(["audit", "--identity", "Thm3.1.iii", "--from", "100000", "--to", "100001"])
    assert code == 1
    (report,) = json.loads(out)
    assert report["first_failure"]["n"] == 100000


def test_main_restores_the_int_digit_limit(cli):
    limit = getattr(sys, "get_int_max_str_digits", None)
    if limit is None:
        pytest.skip("this Python has no int digit limit")
    before = limit()
    assert cli(["seq", "--sequence", "fibonacci", "--from", "0", "--to", "1"])[0] == 0
    assert cli(["audit", "--identity", "nope"])[0] == 2
    assert limit() == before
    probe = "import sys; limit = sys.get_int_max_str_digits(); import hybridquat.cli; "
    probe += "print(sys.get_int_max_str_digits() == limit)"
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60
    )
    assert result.stdout == "True\n", result.stderr


def test_mul_identity_element(cli):
    code, out, _ = cli(["mul"], stdin_text=IDENTITY_ROW + "\n" + I_HI_ROW + "\n")
    assert code == 0
    assert out == I_HI_ROW + "\n"


def test_mul_i_hi_squares_to_one(cli):
    code, out, _ = cli(["mul"], stdin_text=I_HI_ROW + "\n" + I_HI_ROW + "\n")
    assert code == 0
    assert out == IDENTITY_ROW + "\n"


def test_mul_eps_squares_to_zero(cli):
    code, out, _ = cli(["mul"], stdin_text=EPS_ROW + "\n" + EPS_ROW + "\n")
    assert code == 0
    assert out == "0" + ",0" * 15 + "\n"


def test_mul_fractions_json(cli):
    row = "1/2" + ",0" * 15
    code, out, _ = cli(["mul", "--format", "json"], stdin_text=row + "\n" + row + "\n")
    assert code == 0
    assert json.loads(out) == ["1/4"] + ["0"] * 15


def test_mul_rejects_short_row(cli):
    code, _, err = cli(["mul"], stdin_text="1,2,3\n" + IDENTITY_ROW + "\n")
    assert code == 2
    assert "expected 16 coefficients" in err


def test_mul_rejects_garbage_field(cli):
    bad = IDENTITY_ROW.replace("1", "wat", 1)
    code, _, err = cli(["mul"], stdin_text=bad + "\n" + IDENTITY_ROW + "\n")
    assert code == 2
    assert "left operand" in err


@pytest.mark.parametrize("field", ["1/0", "1/0*sqrt(5)"])
def test_mul_rejects_a_zero_denominator(cli, field):
    row = field + ",0" * 15
    code, _, err = cli(["mul"], stdin_text=row + "\n" + IDENTITY_ROW + "\n")
    assert code == 2
    assert err.startswith("error: left operand: ") and "zero denominator" in err


def test_mul_needs_two_lines(cli):
    code, _, err = cli(["mul"], stdin_text=IDENTITY_ROW + "\n")
    assert code == 2
    assert "two operand lines" in err


def test_module_is_runnable():
    proc = subprocess.run(
        [sys.executable, "-m", "hybridquat",
         "seq", "--sequence", "fibonacci", "--from", "0", "--to", "7"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == FIB_CSV
