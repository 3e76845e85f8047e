"""Identity auditor: golden verdicts, witnesses, report plumbing.

The expected statuses below were fixed by hand-expanding each identity
at small indices with the unit tables before the auditor existed; the
auditor must reproduce them exactly.
"""

import json

import hypothesis
import hypothesis.strategies as st
import pytest

import hybridquat.audit
import hybridquat.sequences
from hybridquat.audit import (
    AUDIT_SEQUENCES,
    CATALOG,
    DEFAULT_SPAN,
    IdentityReport,
    _Identity,
    _Scans,
    audit_all,
    check_binet,
    check_cassini,
    check_conjugate_relations,
    check_fibonacci_relations,
    check_lucas_relations,
    reports_to_json,
)
from hybridquat.errors import MixedDiscriminant, RationalRoots, RepeatedRoot
from hybridquat.hybrid_quaternion import HybridQuaternion
from hybridquat.sequences import FIBONACCI, JACOBSTHAL, LUCAS, MERSENNE, horadam

SPAN = (-10, 30)

# identity id -> status expected over SPAN; Thm2.1 is per sequence
GOLDEN_STATUSES = {
    "Thm3.1.i": "VERIFIED",
    "Thm3.1.ii": "VERIFIED",
    "Thm3.1.iii": "REFUTED",
    "Thm3.2.i": "VERIFIED",
    "Thm3.2.ii": "VERIFIED",
    "Thm3.3.i": "VERIFIED",
    "Thm3.3.ii": "VERIFIED",
    "Thm3.3.iii-hat": "REFUTED",
    "Thm3.3.iii-breve": "REFUTED",
    "Thm3.4.i": "VERIFIED",
    "Thm3.4.ii": "VERIFIED",
    "C1@x^2-x-1": "VERIFIED",
    "C2@x^2-x-1": "REFUTED",
    "C1@x^2-2x-1": "REFUTED",
    "C2@x^2-2x-1": "UNEVALUABLE(MixedDiscriminant)",
}

GOLDEN_BINET = {
    "GeneralizedFibonacci(3,-1)": "VERIFIED",
    "GeneralizedLucas(3,-1)": "VERIFIED",
    "Fibonacci": "VERIFIED",
    "Lucas": "VERIFIED",
    "Pell": "VERIFIED",
    "PellLucas": "VERIFIED",
    "Jacobsthal": "UNEVALUABLE(RationalRoots)",
    "JacobsthalLucas": "UNEVALUABLE(RationalRoots)",
    "Mersenne": "UNEVALUABLE(RationalRoots)",
    "Fermat": "VERIFIED",
}


@pytest.fixture(scope="module")
def full_audit():
    return audit_all(SPAN)


def test_audit_all_cardinality_and_order(full_audit):
    assert len(full_audit) == 25
    ids = [r.identity_id for r in full_audit]
    assert ids[:10] == ["Thm2.1"] * 10
    assert ids[10:] == [
        "Thm3.1.i",
        "Thm3.1.ii",
        "Thm3.1.iii",
        "Thm3.2.i",
        "Thm3.2.ii",
        "Thm3.3.i",
        "Thm3.3.ii",
        "Thm3.3.iii-hat",
        "Thm3.3.iii-breve",
        "Thm3.4.i",
        "Thm3.4.ii",
        "C1@x^2-x-1",
        "C2@x^2-x-1",
        "C1@x^2-2x-1",
        "C2@x^2-2x-1",
    ]


def test_golden_statuses(full_audit):
    for report in full_audit[10:]:
        assert report.status_label() == GOLDEN_STATUSES[report.identity_id], (
            report.identity_id
        )


def test_golden_binet_statuses(full_audit):
    for report in full_audit[:10]:
        expected = GOLDEN_BINET[report.sequence.label()]
        assert report.status_label() == expected, report.sequence.label()


def test_verified_reports_carry_no_witness(full_audit):
    for report in full_audit:
        if report.status == "VERIFIED":
            assert report.first_failure is None
        elif report.status == "REFUTED":
            assert report.first_failure is not None


def test_thm31iii_witness():
    report = check_fibonacci_relations((0, 50))[2]
    assert report.status == "REFUTED"
    failure = report.first_failure
    assert failure.n == 0
    # hand expansion at n = 0: lhs is the pure quaternion (-11,-16,-27,-43),
    # the claimed rhs is (3,6,9,15), so the residual is (-14,-22,-36,-58)
    assert failure.lhs == "-11*1*1 - 16*i*1 - 27*j*1 - 43*k*1"
    assert failure.rhs == "3*1*1 + 6*i*1 + 9*j*1 + 15*k*1"
    assert failure.residual == "-14*1*1 - 22*i*1 - 36*j*1 - 58*k*1"


def test_refuted_first_failure_is_span_start(full_audit):
    # every refuted identity here fails at every index, so the witness
    # must sit at the very start of the span
    for report in full_audit:
        if report.status == "REFUTED":
            assert report.first_failure.n == SPAN[0], report.identity_id


def test_witness_past_the_int_digit_limit():
    # hat(F)_100000 has 20899-digit coefficients, past CPython's default
    # 4300-digit str conversion limit
    report = check_fibonacci_relations((100000, 100001))[2]
    assert report.first_failure.n == 100000
    assert len(report.first_failure.lhs) > 20000


def test_cassini_c2_witness_sign_alternates():
    reports = {r.identity_id: r for r in check_cassini((0, 10))}
    r = reports["C2@x^2-x-1"]
    assert r.status == "REFUTED"
    assert r.first_failure.n == 0
    # residual coefficient of 1*hi at n = 0 is -40; parity flips the
    # whole residual, so at an odd start the witness leads with +40
    assert r.first_failure.residual.startswith("-40*1*hi")
    shifted = {r.identity_id: r for r in check_cassini((1, 10))}
    assert shifted["C2@x^2-x-1"].first_failure.residual.startswith("40*1*hi")


def test_scalar_cassini_sanity():
    # F_{n+1} F_{n-1} - F_n^2 = (-1)^n, brute force
    for n in range(1, 101):
        lhs = horadam(FIBONACCI, n + 1) * horadam(FIBONACCI, n - 1) - horadam(
            FIBONACCI, n
        ) ** 2
        assert lhs == (1 if n % 2 == 0 else -1)


def test_check_binet_single_sequence():
    assert check_binet(FIBONACCI, (-10, 40)).status == "VERIFIED"
    report = check_binet(MERSENNE, (0, 5))
    assert report.status == "UNEVALUABLE"
    assert report.error == "RationalRoots"
    assert report.first_failure is None
    assert check_binet(JACOBSTHAL, (0, 5)).status_label() == "UNEVALUABLE(RationalRoots)"


def test_single_point_span():
    reports = check_lucas_relations((0, 0))
    assert [r.status for r in reports] == ["VERIFIED", "VERIFIED"]
    assert reports[0].span == (0, 0)


def test_empty_span_rejected():
    with pytest.raises(ValueError):
        audit_all((1, 0))
    with pytest.raises(ValueError):
        check_fibonacci_relations((5, -5))


def test_determinism(full_audit):
    again = audit_all(SPAN)
    assert again == full_audit
    assert reports_to_json(again) == reports_to_json(full_audit)


def test_report_json_schema(full_audit):
    parsed = json.loads(reports_to_json(full_audit))
    assert len(parsed) == 25
    for record in parsed:
        assert set(record) == {"identity", "sequence", "range", "status", "first_failure"}
        assert record["range"] == [-10, 30]
        if record["first_failure"] is not None:
            assert set(record["first_failure"]) == {"n", "lhs", "rhs", "residual"}
            assert isinstance(record["first_failure"]["n"], int)


def test_sequence_labels_in_reports(full_audit):
    labels = [r.sequence.label() for r in full_audit[:10]]
    assert labels == [s.label() for s in AUDIT_SEQUENCES]
    assert labels[0] == "GeneralizedFibonacci(3,-1)"


def test_catalog_covers_every_identity(full_audit):
    # each runner returns exactly audit_all's reports for its id, witnesses
    # included; at (1, 10) the Cassini witnesses sit at an odd index, so
    # their sign flips
    assert len(CATALOG) == 16
    for span, everything in ((SPAN, full_audit), ((1, 10), audit_all((1, 10)))):
        from_catalog = []
        for key, run in CATALOG.items():
            reports = run(span)
            assert reports, key
            assert reports == [r for r in everything if r.identity_id == key], (key, span)
            from_catalog.extend(reports)
        assert from_catalog == everything


def _count_calls(monkeypatch, module, name, log):
    real = getattr(module, name)

    def counted(seq, *args):
        log.append(seq)
        return real(seq, *args)

    monkeypatch.setattr(module, name, counted)


def test_one_window_per_sequence_and_one_binet_build_per_call(monkeypatch):
    windows, builds = [], []
    _count_calls(monkeypatch, hybridquat.sequences, "window", windows)
    for module in (hybridquat.sequences, hybridquat.audit):
        _count_calls(monkeypatch, module, "binet_data", builds)

    families = [
        (check_fibonacci_relations, [FIBONACCI, LUCAS]),
        (check_lucas_relations, [FIBONACCI, LUCAS]),
        (check_conjugate_relations, [FIBONACCI]),
        (check_cassini, [FIBONACCI, LUCAS]),
    ]
    for check, sequences in families:
        windows.clear()
        check(SPAN)
        assert sorted(windows, key=str) == sorted(sequences, key=str), check.__name__

    windows.clear()
    builds.clear()
    assert check_binet(FIBONACCI, SPAN).status == "VERIFIED"
    assert windows == [FIBONACCI]
    assert builds == [FIBONACCI]


# -- the order certificate ------------------------------------------------------

ORDERS = {key: ident.order for key, ident in CATALOG.items()}


def _full_scan(mp):
    """Make every scan (and its windows) run across the whole span."""
    for ident in CATALOG.values():
        mp.setattr(ident, "order", 10**9)


def _rank(rows) -> int:
    """Rank of a matrix over Fraction/QuadExt by exact Gaussian elimination."""
    rows = [list(row) for row in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        head = rows[rank]
        for row in rows[rank + 1 :]:
            if row[col]:
                factor = row[col] / head[col]
                row[:] = [a - factor * b for a, b in zip(row, head)]
        rank += 1
    return rank


@pytest.mark.parametrize("key", list(CATALOG))
def test_declared_order_bounds_every_side(key, monkeypatch):
    """The premise of the certificate: for each check of the id, the 16
    coefficient sequences of all its sides satisfy one common linear
    recurrence of order at most the declared r, i.e. the rows
    (s_n, ..., s_{n+r}) over n = lo .. lo + r + 1 have rank at most r.

    Lowering any linear id's r to 1 makes this fail: no common ratio
    serves all coefficients.  The Cassini sides pass even at r = 1, because
    their alpha^2n and beta^2n parts cancel; 3 is the bound the argument
    gives without relying on that cancellation.
    """
    r = ORDERS[key]
    lo = DEFAULT_SPAN[0]
    _full_scan(monkeypatch)
    scans = _Scans((lo, lo + 2 * r + 1))
    checked = 0
    for _, prepare in CATALOG[key].checks:
        try:
            values = prepare(scans)
        except (RationalRoots, RepeatedRoot, MixedDiscriminant):
            continue  # UNEVALUABLE: there is nothing to certify
        sides = list(zip(*(values(n) for n in range(lo, lo + 2 * r + 2))))
        rows = [
            [side[n + k].coeffs[c] for k in range(r + 1)]
            for side in sides
            for c in range(16)
            for n in range(r + 2)
        ]
        assert _rank(rows) <= r, key
        checked += 1
    assert checked or key == "C2@x^2-2x-1"


@hypothesis.settings(deadline=None, max_examples=15)
@hypothesis.given(st.integers(-40, 40), st.integers(0, 12))
def test_certified_reports_equal_a_full_scan(lo, length):
    span = (lo, lo + length)
    certified = audit_all(span)
    with pytest.MonkeyPatch.context() as mp:
        _full_scan(mp)
        assert audit_all(span) == certified


@pytest.mark.parametrize(
    "key, shift",
    [("Thm3.1.i", lambda m: m), ("C1@x^2-x-1", lambda m: m * (m - 1))],
)
def test_a_shift_vanishing_before_the_last_certified_index_is_refuted(key, shift, monkeypatch):
    """Move the right side of a verified check by delta * shift(n - lo),
    which vanishes at lo .. lo + r - 2 and not at lo + r - 1: the scan
    must reach that index, and its witness is the full scan's."""
    lo = DEFAULT_SPAN[0]
    ((seq, prepare),) = CATALOG[key].checks
    delta = HybridQuaternion.unit("j", "eps")

    def shifted(scans):
        values = prepare(scans)

        def moved(n):
            *sides, right = values(n)
            return [*sides, right + shift(n - lo) * delta]

        return moved

    ident = _Identity(key, ORDERS[key], (seq, shifted))
    (report,) = ident(DEFAULT_SPAN)
    assert report.status == "REFUTED"
    assert report.first_failure.n == lo + ORDERS[key] - 1
    _full_scan(monkeypatch)
    monkeypatch.setattr(ident, "order", 10**9)
    assert ident(DEFAULT_SPAN) == [report]


def test_audit_cost_does_not_grow_with_the_span(monkeypatch, full_audit):
    longest = max(ORDERS.values()) + 14
    real = hybridquat.sequences.window

    def bounded(seq, lo, hi):
        if hi - lo + 1 > longest:
            raise AssertionError(f"window of {hi - lo + 1} terms for {seq}")
        return real(seq, lo, hi)

    monkeypatch.setattr(hybridquat.sequences, "window", bounded)
    span = (-(10**4), 10**4)
    reports = audit_all(span)
    assert [r.status_label() for r in reports] == [r.status_label() for r in full_audit]
    for report in reports:
        if report.status == "REFUTED":
            assert report.first_failure.n == span[0], report.identity_id


def test_default_span():
    assert DEFAULT_SPAN == (-10, 30)


def test_report_is_frozen(full_audit):
    with pytest.raises(AttributeError):
        full_audit[0].status = "REFUTED"
