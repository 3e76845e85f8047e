"""End-to-end checks of the command line interface.

Everything runs in-process through ``main(argv)`` so exit codes and output
bytes are observable directly. A few tests compare a call with a fresh
process over ``src/``; the CLI run as a process, the way CI runs the installed
package, is checked in ``test_entry_points.py``.
"""

from __future__ import annotations

import decimal
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hybridquat.cli
from hybridquat.cli import _HEADERS, main
from hybridquat.sequences import LIFTS, _layout

SRC = str(Path(__file__).resolve().parents[1] / "src")

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


def test_binet_matches_recurrence_at_a_large_discriminant(cli):
    # D = 10000001**2 + 4 is about 10**14 and squarefree
    args = ["seq", "--params", "0,1,10000001,-1", "--from", "0", "--to", "3"]
    _, by_recurrence, _ = cli(args + ["--method", "recurrence"])
    _, by_binet, _ = cli(args + ["--method", "binet"])
    assert by_binet == by_recurrence == "n,w\n0,0\n1,1\n2,10000001\n3,100000020000002\n"


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


LIFT_OFFSETS = {
    "scalar": [0],
    "hybrid": [0, 1, 2, 3],
    "quaternion": [0, 1, 2, 3],
    # coefficient 4s+t of the hybrid quaternion lift is w_{n+s+t}
    "hybrid-quaternion": [s + t for s in range(4) for t in range(4)],
}


def _render_seq(params, lo, hi, lift, fmt):
    """The seq table, rendered from window values without the cli's code."""
    from hybridquat.cli import _HEADERS
    from hybridquat.sequences import window

    offsets = LIFT_OFFSETS[lift]
    terms = window(params, lo, hi + max(offsets))
    rows = [(n, [str(terms[n - lo + k]) for k in offsets]) for n in range(lo, hi + 1)]
    if fmt == "json":
        return json.dumps([{"n": n, "coeffs": c} for n, c in rows], indent=2) + "\n"
    lines = [",".join(("n",) + _HEADERS[lift])]
    lines += [",".join([str(n)] + c) for n, c in rows]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("method", ["recurrence", "binet"])
@pytest.mark.parametrize("lift", list(LIFT_OFFSETS))
@pytest.mark.parametrize(
    "name, params_text",
    [("fibonacci", None), ("pell-lucas", None), (None, "1/3,2/5,3/7,-5/11")],
)
def test_seq_prints_the_window_values_at_the_lift_offsets(
    cli, name, params_text, lift, method, fmt
):
    from hybridquat.cli import _resolve_sequence

    params = _resolve_sequence(name, params_text)
    source = ["--sequence", name] if name else ["--params", params_text]
    argv = ["seq", *source, "--from", "-12", "--to", "30",
            "--lift", lift, "--method", method, "--format", fmt]
    code, out, err = cli(argv)
    assert (code, err) == (0, "")
    assert out == _render_seq(params, -12, 30, lift, fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("method", ["recurrence", "binet"])
@pytest.mark.parametrize("lift", list(LIFT_OFFSETS))
def test_seq_renders_each_term_once(cli, monkeypatch, lift, method, fmt):
    # a hybrid quaternion row holds 7 terms in 16 cells, and a term sits in
    # up to 7 rows; each of the hi - lo + width terms is rendered at most once
    from fractions import Fraction

    calls = []
    render = Fraction.__str__

    def counting(self):
        calls.append(self)
        return render(self)

    monkeypatch.setattr(Fraction, "__str__", counting)
    lo, hi = -20, 40
    argv = ["seq", "--sequence", "lucas", "--from", str(lo), "--to", str(hi),
            "--lift", lift, "--method", method, "--format", fmt]
    code, out, _ = cli(argv)
    assert code == 0 and out.count("\n") > hi - lo
    assert 0 < len(calls) <= hi - lo + len(LIFT_OFFSETS[lift])


def test_binet_rejects_rational_roots(cli):
    code, out, err = cli(
        ["seq", "--sequence", "mersenne", "--from", "0", "--to", "5", "--method", "binet"]
    )
    assert code == 2
    assert out == ""
    assert "rational roots" in err
    code, out, err = cli(
        ["seq", "--params", "0,1,3,2", "--from", "0", "--to", "2", "--method", "binet"]
    )
    assert (code, out) == (2, "")
    assert err == "error: rational roots: x^2 - 3x + 2 splits over the rationals\n"


@pytest.mark.parametrize(
    "source, err",
    [
        (["--sequence", "jacobsthal"],
         "error: rational roots: x^2 - 1x - 2 splits over the rationals\n"),
        (["--params", "0,1,-2,1"], "error: x^2 + 2x + 1 has a double root\n"),
        # a zero term is left out
        (["--params", "0,1,0,0"], "error: x^2 has a double root\n"),
        (["--params", "0,1,2,0"],
         "error: rational roots: x^2 - 2x splits over the rationals\n"),
        (["--params", "0,1,0,-1"],
         "error: rational roots: x^2 - 1 splits over the rationals\n"),
    ],
)
def test_root_polynomial_messages_write_each_sign_once(cli, source, err):
    code, out, got = cli(["seq", *source, "--from", "0", "--to", "2", "--method", "binet"])
    assert (code, out, got) == (2, "", err)


def test_params_zero_denominator(cli):
    code, out, err = cli(["seq", "--params", "0,1/0,1,-1", "--from", "0", "--to", "2"])
    assert (code, out) == (2, "")
    assert err == "error: --params: zero denominator in '1/0'\n"


def test_negative_range_needs_invertible_q(cli):
    code, _, err = cli(["seq", "--params", "0,1,1,0", "--from", "-5", "--to", "5"])
    assert code == 2
    assert "q = 0" in err


def test_params_refuse_digit_underscores(cli):
    # Fraction takes "1_0" from Python 3.11 on; the parser refuses it on every version
    code, out, err = cli(["seq", "--params", "1_0,1,1,-1", "--from", "0", "--to", "2"])
    assert (code, out, err) == (2, "", "error: --params: Invalid literal for Fraction: '1_0'\n")


def test_params_refuse_an_exponent_past_the_digit_limit(cli):
    # 1e400000 would be a 400,001-digit number: refused before it is built
    code, out, err = cli(["seq", "--params", "1e400000,1,1,-1", "--from", "0", "--to", "2"])
    assert (code, out, err) == (2, "", "error: --params: exponent too large in '1e400000'\n")


def test_params_needs_four_fields(cli):
    code, out, err = cli(["seq", "--params", "0,1,1", "--from", "0", "--to", "1"])
    assert (code, out, err) == (2, "", "error: --params needs w0,w1,p,q (got 3 fields)\n")


SEQ_USAGE = """\
usage: hybridquat seq [-h] [--sequence SEQUENCE] [--params PARAMS] --from N
                      --to N
                      [--lift {scalar,hybrid,quaternion,hybrid-quaternion}]
                      [--method {recurrence,binet}] [--format {csv,json}]
"""

SEQ_HELP = SEQ_USAGE + """
options:
  -h, --help            show this help message and exit
  --sequence SEQUENCE   registry name, e.g. fibonacci or pell-lucas
  --params PARAMS       w0,w1,p,q as rationals; overrides --sequence when both
                        are given
  --from N
  --to N
  --lift {scalar,hybrid,quaternion,hybrid-quaternion}
  --method {recurrence,binet}
  --format {csv,json}

hybrid-quaternion coefficient order: c_1_1, c_1_hi, c_1_eps, c_1_hh, c_i_1,
c_i_hi, c_i_eps, c_i_hh, c_j_1, c_j_hi, c_j_eps, c_j_hh, c_k_1, c_k_hi,
c_k_eps, c_k_hh (quaternion unit slowest, hybrid unit fastest)
"""


def test_each_lift_has_one_header_per_cell():
    # the headers are display names; the lifts themselves live in sequences.LIFTS
    assert list(_HEADERS) == list(LIFTS)
    for lift, header in _HEADERS.items():
        assert len(header) == len(_layout(range(7), 0, lift, 0)), lift


def test_seq_help_lists_the_lifts_in_their_order(cli, monkeypatch):
    # the --lift choices are the keys of sequences.LIFTS
    monkeypatch.setenv("COLUMNS", "80")
    assert cli(["seq", "--help"]) == (0, SEQ_HELP, "")
    code, out, err = cli(["seq", "--from", "0", "--to", "1", "--lift", "octonion"])
    assert (code, out) == (2, "")
    assert err == SEQ_USAGE + (
        "hybridquat seq: error: argument --lift: invalid choice: 'octonion' "
        "(choose from 'scalar', 'hybrid', 'quaternion', 'hybrid-quaternion')\n"
    )


def test_seq_requires_a_sequence(cli):
    code, out, err = cli(["seq", "--from", "0", "--to", "5"])
    assert (code, out, err) == (2, "", "error: seq needs --sequence or --params\n")


def test_seq_empty_range(cli):
    code, out, err = cli(["seq", "--sequence", "fibonacci", "--from", "5", "--to", "4"])
    assert (code, out, err) == (2, "", "error: empty range: --from 5 > --to 4\n")


def test_unknown_sequence(cli):
    code, out, err = cli(["seq", "--sequence", "tribonacci", "--from", "0", "--to", "1"])
    assert (code, out) == (2, "")
    assert err == (
        "error: unknown sequence 'tribonacci' (known: fermat, fibonacci, jacobsthal, "
        "jacobsthal-lucas, lucas, mersenne, pell, pell-lucas)\n"
    )
    # an unknown sequence is reported before an empty range
    code, _, err = cli(["seq", "--sequence", "nosuch", "--from", "5", "--to", "1"])
    assert code == 2
    assert err.startswith("error: unknown sequence 'nosuch'")


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


# exit code and stdout of ``audit --identity <id>`` at the default span for
# every catalog id, as recorded for the benchmark's byte-for-byte oracle
AUDIT_GOLDENS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "goldens.json").read_text()
)["audit"]


@pytest.mark.parametrize("identity", list(AUDIT_GOLDENS))
def test_audit_output_matches_the_recorded_golden_byte_for_byte(cli, identity):
    code, out, _ = cli(["audit", "--identity", identity])
    assert [code, out] == AUDIT_GOLDENS[identity]


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
    # an empty range is reported before an unknown identity
    code, _, err = cli(["audit", "--identity", "nope", "--from", "5", "--to", "1"])
    assert code == 2
    assert err == "error: empty range: --from 5 > --to 1\n"


def test_audit_unknown_identity(cli):
    code, out, err = cli(["audit", "--identity", "Thm9.9"])
    assert (code, out) == (2, "")
    assert err == (
        "error: unknown identity 'Thm9.9' (known: Thm2.1, Thm3.1.i, Thm3.1.ii, "
        "Thm3.1.iii, Thm3.2.i, Thm3.2.ii, Thm3.3.i, Thm3.3.ii, Thm3.3.iii-hat, "
        "Thm3.3.iii-breve, Thm3.4.i, Thm3.4.ii, C1@x^2-x-1, C2@x^2-x-1, "
        "C1@x^2-2x-1, C2@x^2-2x-1)\n"
    )


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
    code, out, err = cli(["mul"], stdin_text="1,2,3\n" + IDENTITY_ROW + "\n")
    assert (code, out, err) == (2, "", "error: left operand: expected 16 coefficients, got 3\n")
    code, out, err = cli(["mul"], stdin_text=IDENTITY_ROW + "\n1,2\n")
    assert (code, out, err) == (2, "", "error: right operand: expected 16 coefficients, got 2\n")


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


def test_mul_reads_any_spelling_of_a_field(cli):
    row = "sqrt(8)+sqrt(2)" + ",0" * 15
    code, out, err = cli(["mul"], stdin_text=row + "\n" + IDENTITY_ROW + "\n")
    assert (code, err) == (0, "")
    assert out == "3*sqrt(2)" + ",0" * 15 + "\n"


def test_mul_reads_an_exponent_as_its_number(cli):
    # the exponent's sign belongs to the number, not to the expression
    want = cli(["mul"], stdin_text="1/100" + ",0" * 15 + "\n" + I_HI_ROW + "\n")
    assert want[0] == 0 and want[1].split(",")[5] == "1/100"
    for field in ("1e-2", "1E-2", "10e-3"):
        row = field + ",0" * 15
        assert cli(["mul"], stdin_text=row + "\n" + I_HI_ROW + "\n") == want, field


def test_mul_refuses_an_exponent_past_the_digit_limit(cli):
    row = "1e400000" + ",0" * 15
    code, out, err = cli(["mul"], stdin_text=row + "\n" + IDENTITY_ROW + "\n")
    assert (code, out, err) == (2, "", "error: left operand: exponent too large in '1e400000'\n")


def test_mul_refuses_a_radicand_outside_the_number_grammar(cli):
    row = "sqrt(1_0)" + ",0" * 15
    code, out, err = cli(["mul"], stdin_text=row + "\n" + IDENTITY_ROW + "\n")
    assert (code, out, err) == (2, "", "error: left operand: malformed surd term 'sqrt(1_0)'\n")


def test_mul_rejects_mixed_fields(cli):
    row = "sqrt(5),sqrt(2)" + ",0" * 14
    code, out, err = cli(["mul"], stdin_text=row + "\n" + IDENTITY_ROW + "\n")
    assert (code, out) == (2, "")
    assert err == (
        "error: left operand: sqrt(5) and sqrt(2) do not live in a common quadratic field\n"
    )


def test_mul_stops_at_the_first_field_outside_the_first_surds_field(cli):
    # each surd factors its D (0.1 s near 10**18); a line of 16 distinct
    # primes is rejected after the second, without parsing the other 14
    from hybridquat.scalars import split_square

    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
    row = ",".join(f"sqrt({d})" for d in primes)
    split_square.cache_clear()
    code, out, err = cli(["mul"], stdin_text="1" + ",7" * 15 + "\n" + row + "\n")
    assert (code, out) == (2, "")
    assert err == (
        "error: right operand: sqrt(2) and sqrt(3) do not live in a common quadratic field\n"
    )
    assert split_square.cache_info().misses == 2
    # rationals and the first surd's own field pass; a fault ends the line
    # at the first field that has one
    row = "1/2,sqrt(8),2 - sqrt(2),sqrt(3),1/0" + ",0" * 11
    code, _, err = cli(["mul"], stdin_text=row + "\n" + IDENTITY_ROW + "\n")
    assert (code, err) == (
        2, "error: left operand: sqrt(2) and sqrt(3) do not live in a common quadratic field\n"
    )


def test_mul_over_a_large_discriminant_factors_it_once(cli):
    # D < 10**18 is prime: every field would repeat the trial division
    from hybridquat.scalars import split_square

    row = ",".join(f"{k} + sqrt(999999999999999989)" for k in range(16))
    split_square.cache_clear()
    code, out, _ = cli(["mul"], stdin_text=row + "\n" + row + "\n")
    assert code == 0 and out.count("sqrt(999999999999999989)") == 16
    assert split_square.cache_info().misses == 1


def test_mul_over_sixteen_spellings_of_one_field_factors_once(cli, monkeypatch):
    # sqrt(k*k*D) = k*sqrt(D): after the first spelling is divided, each
    # later one lies in its field and is split by one isqrt.  Every trial
    # division that ends in a part in (10**6, 10**18] records it, so one
    # record is one division
    from collections import deque

    from hybridquat import scalars

    big = 999999999999999989
    monkeypatch.setattr(scalars, "_LARGE_PARTS", deque(maxlen=16))
    scalars.split_square.cache_clear()
    row = ",".join(f"sqrt({k * k * big})" for k in range(1, 17))
    code, out, err = cli(["mul"], stdin_text=row + "\n" + row + "\n")
    assert (code, err) == (0, "")
    assert list(scalars._LARGE_PARTS) == [big]
    assert scalars.split_square.cache_info().misses == 16
    # the product of the same line written over the one D
    row = ",".join(f"{k}*sqrt({big})" for k in range(1, 17))
    assert cli(["mul"], stdin_text=row + "\n" + row + "\n") == (0, out, "")


def test_mul_needs_two_lines(cli):
    code, out, err = cli(["mul"], stdin_text=IDENTITY_ROW + "\n")
    assert (code, out, err) == (2, "", "error: mul needs exactly two operand lines, got 1\n")


def _fresh_process(args, stdin_text=""):
    return subprocess.run(
        [sys.executable, *args],
        input=stdin_text,
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=SRC),
    )


def test_one_parser_serves_every_call_in_a_process(cli, monkeypatch):
    # the parser is built on the first call and reused; reuse leaks
    # nothing from one call into the next
    built = []
    build = hybridquat.cli.build_parser

    def counting():
        built.append(build())
        return built[-1]

    monkeypatch.setattr(hybridquat.cli, "build_parser", counting)
    calls = [
        (2, ["seq", "--sequence", "fibonacci", "--from", "0", "--to", "3",
             "--lift", "octonion"], ""),
        (0, ["seq", "--params", "2,1,1,-1", "--from", "-2", "--to", "2", "--lift", "hybrid"], ""),
        (1, ["audit", "--identity", "Thm3.1.iii"], ""),
        (0, ["mul", "--format", "json"], I_HI_ROW + "\n" + EPS_ROW + "\n"),
    ]
    for want, argv, stdin_text in calls:
        code, out, err = cli(argv, stdin_text=stdin_text)
        fresh = _fresh_process(["-m", "hybridquat", *argv], stdin_text)
        assert code == want
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert len(built) == 1


def test_import_leaves_dataclasses_inspect_and_typing_unloaded():
    # -S: a site hook may load typing before the package is imported
    probe = (
        "import sys, hybridquat.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    done = _fresh_process(["-S", "-c", probe])
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


@pytest.mark.parametrize("lift", ["scalar", "hybrid", "quaternion", "hybrid-quaternion"])
def test_binet_table_powers_do_not_grow_with_its_rows(cli, monkeypatch, lift):
    # each row steps alpha^n by one multiply; no row raises a power of its own
    import hybridquat.hybrid_quaternion as hybrid_quaternion
    import hybridquat.scalars as scalars

    calls = []
    power = scalars.power

    def counting(base, exponent, one):
        calls.append(exponent)
        return power(base, exponent, one)

    monkeypatch.setattr(scalars, "power", counting)
    monkeypatch.setattr(hybrid_quaternion, "power", counting)
    counts = []
    for hi in ("4", "994"):  # 10 rows, then 1000
        calls.clear()
        argv = ["seq", "--sequence", "fibonacci", "--from", "-5", "--to", hi]
        code, out, err = cli(argv + ["--lift", lift, "--method", "binet"])
        assert code == 0 and out.count("\n") == 1 + int(hi) + 6
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 2
