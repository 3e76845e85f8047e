"""Identity auditor: golden verdicts, witnesses, report plumbing.

The expected statuses below were fixed by hand-expanding each identity
at small indices with the unit tables before the auditor existed; the
auditor must reproduce them exactly.
"""

import hashlib
import json

import hypothesis
import hypothesis.strategies as st
import pytest

import hybridquat.audit
import hybridquat.sequences
from hybridquat.algebra import Element
from hybridquat.audit import (
    AUDIT_SEQUENCES,
    CATALOG,
    DEFAULT_SPAN,
    FirstFailure,
    IdentityReport,
    _Identity,
    _Scans,
    _binet,
    _binet_constants,
    _cassini,
    _cassini_side,
    _cassini_signed,
    audit_all,
    check_binet,
    check_cassini,
    check_conjugate_relations,
    check_fibonacci_relations,
    check_lucas_relations,
    reports_to_json,
)
from hybridquat.errors import MixedDiscriminant, RationalRoots, RepeatedRoot
from hybridquat.hybrid import Hybrid
from hybridquat.hybrid_quaternion import HybridQuaternion
from hybridquat.quaternion import Quaternion
from hybridquat.scalars import QuadExt
from hybridquat.sequences import (
    FIBONACCI,
    JACOBSTHAL,
    LUCAS,
    MERSENNE,
    BinetData,
    HoradamParams,
    _params,
    binet_data,
    horadam,
)

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


# -- closed forms against their literal readings --------------------------------


def _printed_order_bracket(p, q):
    """The Cassini bracket alpha alpha* beta* alpha_under beta_under -
    beta beta* alpha* beta_under alpha_under as printed: six 16-dim
    products, the factors of each chain multiplied strictly left to right."""
    data = binet_data(HoradamParams(0, 1, p, q))
    embed_h, embed_q = HybridQuaternion.from_hybrid, HybridQuaternion.from_quaternion
    first = (
        embed_h(data.alpha_star)
        * embed_h(data.beta_star)
        * embed_q(data.alpha_under)
        * embed_q(data.beta_under)
    )
    second = (
        embed_h(data.beta_star)
        * embed_h(data.alpha_star)
        * embed_q(data.beta_under)
        * embed_q(data.alpha_under)
    )
    return (data.alpha - data.beta).inverse(), data.alpha * first - data.beta * second


# the weights the two Thm 3.4 displays print for A, as functions of (alpha, beta)
PRINTED_WEIGHTS = {"Thm3.4.i": lambda a, b: 1 / (a - b), "Thm3.4.ii": lambda a, b: 1}


def _closed_form_row(prepare, n):
    """The closed-form side of a check at n, from a scan of the span (n, n)."""
    return prepare(_Scans((n, n)))(n)[1]


def _assert_closed_forms_are_literal(p, q, ns):
    """The Cassini right sides and the Thm 3.4 rows on the roots of
    x^2 - px + q equal the printed bracket over alpha - beta (and, for
    x^2 - x - 1, sqrt(5) times it) and alpha^n x -+ beta^n y (over
    alpha - beta for i), x and y built by 16-dim products from their own
    root factors, down to every coefficient's repr."""
    inv_spread, bracket = _printed_order_bracket(p, q)
    assert repr(_cassini_side(FIBONACCI, p, q)) == repr(inv_spread * bracket)
    if (p, q) == (1, -1):
        assert repr(_cassini_side(LUCAS, p, q)) == repr(QuadExt(0, 1, 5) * bracket)
    params = HoradamParams(0, 1, p, q)
    data = binet_data(params)
    embed_h, embed_q = HybridQuaternion.from_hybrid, HybridQuaternion.from_quaternion
    x = embed_h(data.alpha_star) * embed_q(data.alpha_under)
    y = embed_h(data.beta_star) * embed_q(data.beta_under)
    inv_spread = (data.alpha - data.beta).inverse()
    for n in ns:
        left, right = data.alpha ** n * x, data.beta ** n * y
        literal = {"Thm3.4.i": inv_spread * (left - right), "Thm3.4.ii": left + right}
        for key, weight in PRINTED_WEIGHTS.items():
            row = _closed_form_row(_binet(params, weight), n)
            assert repr(row) == repr(literal[key]), (key, n)


@pytest.mark.parametrize("p, q", [(1, -1), (2, -1)])
def test_closed_forms_equal_the_literal_forms_for_both_quadratics(p, q):
    _assert_closed_forms_are_literal(p, q, range(-30, 31))


@hypothesis.settings(deadline=None, max_examples=25)
@hypothesis.given(
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    st.integers(min_value=-30, max_value=30),
)
def test_closed_forms_equal_the_literal_forms(p, q, n):
    try:
        binet_data(HoradamParams(0, 1, p, q))
    except (RationalRoots, RepeatedRoot):
        hypothesis.reject()
    _assert_closed_forms_are_literal(p, q, [n])


@pytest.mark.parametrize("key", PRINTED_WEIGHTS)
def test_thm34_catalog_checks_read_the_printed_weights(key):
    (seq, prepare), = CATALOG[key].checks
    printed = _binet(seq, PRINTED_WEIGHTS[key])
    for n in range(-30, 31):
        assert repr(_closed_form_row(prepare, n)) == repr(_closed_form_row(printed, n)), n


def test_thm34_with_a_wrong_weight_is_refuted_at_the_span_start():
    # A = 1 in display i gives hat(L)_n on the right, so the weight is read
    # when the check runs, not assumed
    order = CATALOG["Thm3.4.i"].order
    (report,) = _Identity("Thm3.4.i", order, (FIBONACCI, _binet(FIBONACCI, lambda a, b: 1)))(SPAN)
    assert report.status == "REFUTED"
    assert report.first_failure.n == SPAN[0]


def test_binet_data_and_a_thm34_scan_form_no_root_product(monkeypatch):
    # the root factors are outer products and the rows are laid-out terms:
    # no two hybrid quaternions are multiplied
    products = []
    multiply = HybridQuaternion.__mul__

    def counting(x, y):
        if isinstance(y, HybridQuaternion):
            products.append((x, y))
        return multiply(x, y)

    monkeypatch.setattr(HybridQuaternion, "__mul__", counting)
    binet_data(FIBONACCI)
    for key in PRINTED_WEIGHTS:
        assert [r.status for r in CATALOG[key](SPAN)] == ["VERIFIED"]
    assert products == []


@pytest.mark.parametrize("span", [(-10, 30), (3, 3), (1000, 1010)])
def test_check_binet_is_the_catalog_report(span):
    thm21 = [r for r in audit_all(span) if r.identity_id == "Thm2.1"]
    assert [check_binet(seq, span) for seq in AUDIT_SEQUENCES] == thm21


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
    # the generalized families, then the registry in its own order
    labels = [r.sequence.label() for r in full_audit[:10]]
    assert labels == [s.label() for s in AUDIT_SEQUENCES]
    assert labels == [
        "GeneralizedFibonacci(3,-1)",
        "GeneralizedLucas(3,-1)",
        "Fibonacci",
        "Lucas",
        "Pell",
        "PellLucas",
        "Jacobsthal",
        "JacobsthalLucas",
        "Mersenne",
        "Fermat",
    ]


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


def _clear_constant_caches():
    for cache in (_binet_constants, _cassini_side, _cassini_signed):
        cache.cache_clear()


def test_one_window_per_sequence_per_call_and_one_binet_build_per_parameter_set(monkeypatch):
    windows, builds = [], []
    for module in (hybridquat.sequences, hybridquat.audit):
        _count_calls(monkeypatch, module, "_walk", windows)
        _count_calls(monkeypatch, module, "binet_data", builds)
    spans, counted = [], hybridquat.audit._walk

    def recorded(seq, lo, hi):
        spans.append((lo, hi))
        return counted(seq, lo, hi)

    monkeypatch.setattr(hybridquat.audit, "_walk", recorded)

    # each window runs from w_{lo-2}, which hat(w)_{n-2} reads, to w_{last+9},
    # which hat(w)_{last+3} and the hybrid and quaternion lifts at last+6 read
    last = SPAN[0] + max(ident.order for ident in CATALOG.values()) - 1
    families = [
        (check_fibonacci_relations, [FIBONACCI, LUCAS]),
        (check_lucas_relations, [FIBONACCI, LUCAS]),
        (check_conjugate_relations, [FIBONACCI]),
        (check_cassini, [FIBONACCI, LUCAS]),
    ]
    for check, sequences in families:
        windows.clear()
        spans.clear()
        check(SPAN)
        assert sorted(windows, key=str) == sorted(sequences, key=str), check.__name__
        assert spans == [(SPAN[0] - 2, last + 9)] * len(sequences), check.__name__

    # the closed-form constants depend on the parameters only, so they are
    # built on the first call of the process and read by every later one
    _binet_constants.cache_clear()
    for expected_builds in ([FIBONACCI.params], []):
        windows.clear()
        builds.clear()
        assert check_binet(FIBONACCI, SPAN).status == "VERIFIED"
        assert windows == [FIBONACCI]
        assert builds == expected_builds


# far negative spans, and spans shorter than the Cassini order 3
SPANS = st.tuples(st.one_of(st.integers(-40, 40), st.integers(-3000, -1000)), st.integers(0, 4))


@hypothesis.settings(deadline=None, max_examples=8)
@hypothesis.given(SPANS)
def test_cold_and_warm_constants_give_byte_identical_reports(start_and_length):
    lo, length = start_and_length
    span = (lo, lo + length)
    cold = {}
    for key, run in CATALOG.items():
        _clear_constant_caches()
        cold[key] = reports_to_json(run(span))
        assert reports_to_json(run(span)) == cold[key], (key, span)
    # warm from whichever id built each constant first
    assert {key: reports_to_json(run(span)) for key, run in CATALOG.items()} == cold
    _clear_constant_caches()
    everything = reports_to_json(audit_all(span))
    assert reports_to_json(audit_all(span)) == everything


def test_a_second_cassini_call_forms_no_constant(monkeypatch):
    CATALOG["C1@x^2-x-1"](SPAN)
    products, builds = [], []
    for cls in (Hybrid, Quaternion):
        for name in ("__mul__", "__rmul__"):
            real = getattr(cls, name)

            def counted(x, y, real=real):
                products.append((x, y))
                return real(x, y)

            monkeypatch.setattr(cls, name, counted)
    for module in (hybridquat.sequences, hybridquat.audit):
        _count_calls(monkeypatch, module, "binet_data", builds)
    assert [r.status for r in CATALOG["C1@x^2-x-1"](SPAN)] == ["VERIFIED"]
    assert products == [] and builds == []


@pytest.mark.parametrize("seq, p", [(FIBONACCI, 1), (LUCAS, 1), (FIBONACCI, 2)])
def test_a_surd_free_cassini_side_is_compared_in_int_storage(seq, p):
    # the three evaluable Cassini constants are surd-free: the scan reads them
    # as ints over one denominator, with the constant's value and hash
    side = _cassini_side(seq, p, -1)
    assert side._den is None
    for n, signed in ((4, side), (5, -side)):
        row = _closed_form_row(_cassini(seq, p, -1), n)
        assert isinstance(row._den, int)
        assert row == signed and hash(row) == hash(signed)


@pytest.mark.parametrize("seq, p", [(FIBONACCI, 1), (LUCAS, 1), (FIBONACCI, 2)])
def test_the_cached_cassini_pair_is_the_side_and_its_negation(seq, p):
    side = _cassini_side(seq, p, -1)
    pair = _cassini_signed(seq, p, -1)
    assert pair is _cassini_signed(seq, p, -1)
    for got, want in zip(pair, (side, -side)):
        assert got == want and hash(got) == hash(want)


def test_a_second_cassini_call_builds_no_value_from_components(monkeypatch):
    CATALOG["C2@x^2-x-1"](SPAN)
    built = []
    init = Element.__init__

    def counted(self, coeffs):
        built.append(type(self).__name__)
        return init(self, coeffs)

    monkeypatch.setattr(Element, "__init__", counted)
    assert [r.status for r in CATALOG["C2@x^2-x-1"](SPAN)] == ["REFUTED"]
    assert "HybridQuaternion" not in built


def test_an_unevaluable_cassini_constant_is_not_cached():
    _clear_constant_caches()
    for _ in range(3):
        reports = CATALOG["C2@x^2-2x-1"](SPAN)
        assert [r.status_label() for r in reports] == ["UNEVALUABLE(MixedDiscriminant)"]
    assert _cassini_signed.cache_info().currsize == 0


def test_span_bounds_must_be_integers():
    # bool is an int subclass, but True is no index
    for span in ((0.5, 3), (False, 3), (0, True)):
        with pytest.raises(TypeError, match="^span bounds must be integers$"):
            audit_all(span)
    with pytest.raises(TypeError, match="^span bounds must be integers$"):
        check_binet(FIBONACCI, (True, 3))


def test_a_foreign_cassini_factor_raises_on_every_call_before_any_bracket(monkeypatch):
    outers = []
    _count_calls(monkeypatch, HybridQuaternion, "from_quaternion_basis", outers)
    _clear_constant_caches()
    for _ in range(2):
        with pytest.raises(MixedDiscriminant):
            _cassini_side(LUCAS, 2, -1)
        reports = CATALOG["C2@x^2-2x-1"](SPAN)
        assert [r.status_label() for r in reports] == ["UNEVALUABLE(MixedDiscriminant)"]
    assert outers == []
    assert _cassini_side.cache_info().currsize == 0


def test_thm34_weights_never_reach_the_thm21_constants():
    _clear_constant_caches()
    first = CATALOG["Thm2.1"](SPAN)
    weighted = CATALOG["Thm3.4.i"](SPAN) + CATALOG["Thm3.4.ii"](SPAN)
    assert [r.status for r in weighted] == ["VERIFIED", "VERIFIED"]
    assert CATALOG["Thm2.1"](SPAN) == first
    # and the other way round: the weighted ids build Fibonacci's and
    # Lucas's constants first
    _clear_constant_caches()
    assert CATALOG["Thm3.4.i"](SPAN) + CATALOG["Thm3.4.ii"](SPAN) == weighted
    assert CATALOG["Thm2.1"](SPAN) == first
    for seq in (FIBONACCI, LUCAS):
        assert _binet_constants(seq.params) == binet_data(seq)


def test_the_binet_constants_stay_bounded():
    size = _binet_constants.cache_info().maxsize
    _binet_constants.cache_clear()
    # x^2 - px + 1 has irrational roots for every p >= 3
    for p in range(3, size + 8):
        assert check_binet(HoradamParams(0, 1, p, 1), (0, 0)).status == "VERIFIED"
    info = _binet_constants.cache_info()
    assert info.misses == size + 5
    assert info.currsize <= size


def test_binet_scans_build_one_table_per_sequence(monkeypatch):
    tables = []
    real = BinetData.table

    def counted(data, lift, lo, hi):
        tables.append((lift, lo, hi))
        return real(data, lift, lo, hi)

    monkeypatch.setattr(BinetData, "table", counted)
    reports = CATALOG["Thm2.1"](DEFAULT_SPAN)
    # the 7 sequences with irrational roots; the other 3 are UNEVALUABLE
    assert sum(r.status != "UNEVALUABLE" for r in reports) == 7
    row_span = ("hybrid-quaternion", DEFAULT_SPAN[0], _Scans(DEFAULT_SPAN).last)
    assert tables == [row_span] * 7


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


def test_every_sequence_a_check_names_or_reads_has_nonzero_q(monkeypatch):
    """The other premise of the certificate: with q != 0 every term w_n is
    defined on all of Z and the recurrence runs both ways.  This covers the
    sequence each check is reported under and every sequence its sides read,
    such as the Lucas lifts in the Fibonacci rows of Thm 3.1.ii and 3.2."""
    read = []
    real = _Scans.lift

    def recorded(scans, seq, lift):
        read.append(seq)
        return real(scans, seq, lift)

    monkeypatch.setattr(_Scans, "lift", recorded)
    audit_all(DEFAULT_SPAN)
    named = [seq for ident in CATALOG.values() for seq, _ in ident.checks]
    assert LUCAS in read and len(named) == 25
    for seq in named + read:
        assert _params(seq).q != 0, seq


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
    real = hybridquat.sequences._walk

    def bounded(seq, lo, hi):
        if hi - lo + 1 > longest:
            raise AssertionError(f"window of {hi - lo + 1} terms for {seq}")
        return real(seq, lo, hi)

    for module in (hybridquat.sequences, hybridquat.audit):
        monkeypatch.setattr(module, "_walk", bounded)
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
    with pytest.raises(AttributeError):
        next(r for r in full_audit if r.first_failure).first_failure.n = 0


def test_report_repr_hash_and_tuple_equality():
    (report,) = CATALOG["Thm3.1.iii"]((0, 3))
    assert repr(report) == (
        "IdentityReport(identity_id='Thm3.1.iii', sequence=SequenceId(name='Fibonacci', "
        "params=HoradamParams(w0=Fraction(0, 1), w1=Fraction(1, 1), p=Fraction(1, 1), "
        "q=Fraction(-1, 1))), span=(0, 3), status='REFUTED', error=None, "
        "first_failure=FirstFailure(n=0, lhs='-11*1*1 - 16*i*1 - 27*j*1 - 43*k*1', "
        "rhs='3*1*1 + 6*i*1 + 9*j*1 + 15*k*1', residual='-14*1*1 - 22*i*1 - 36*j*1 - 58*k*1'))"
    )
    (again,) = CATALOG["Thm3.1.iii"]((0, 3))
    assert again is not report and again == report and hash(again) == hash(report)
    assert report != CATALOG["Thm3.1.iii"]((0, 4))[0]
    # a namedtuple compares as the tuple of its fields
    failure = tuple(report.first_failure)
    assert report == ("Thm3.1.iii", FIBONACCI, (0, 3), "REFUTED", None, failure)
    verified = IdentityReport("x", FIBONACCI, (0, 1), "VERIFIED")
    assert verified == ("x", FIBONACCI, (0, 1), "VERIFIED", None, None)


# -- byte-identical reports -----------------------------------------------------

# SHA-256 of reports_to_json, for audit_all ("all") and for each CATALOG[id],
# recorded before the linear checks became rows: however the sides are
# formed, the verdicts and witnesses must print the same, byte for byte
REPORT_SHA256 = {
    (1000, 1010): {
        "all": "5094250d2bc92386189dc3783e550e70535f3048b133522eab2182c82fb635a0",
        "Thm2.1": "120f526da39bdf94c1fa6c436589faad12ee05534acef0c10e6120299a7eff1a",
        "Thm3.1.i": "c8721abed4403228bd940fb77cf8213199a9054d1acfdfdb789cb89096fb39f8",
        "Thm3.1.ii": "528fe8d0ef664eb43254f18e3f636e2d1f76e114682720e793185c9d810b5039",
        "Thm3.1.iii": "d6edcc68e5e2bfb8910768bb65db583d167b26a206d27b4cbd545f41e23bb78f",
        "Thm3.2.i": "9198008c154d88222e2fa2dd22e421f93123aabfedf93d426082d586441a9b0b",
        "Thm3.2.ii": "d5c167c08a30640597fcaddb72ea3fcfd69cacb5364c5e595ca9d629cae23882",
        "Thm3.3.i": "6f003c08116cb4c4b7a94ed056be840203401b6d13db8d0430bc29534dd43b66",
        "Thm3.3.ii": "c7147856ceb6b2f98facdbfcdac72e5aa79228772c5ed8d1c52e5c314959f903",
        "Thm3.3.iii-hat": "ff24118fbbc29933e1a4e568930a87d91a357ded96290e6f2ab6927c691eee6d",
        "Thm3.3.iii-breve": "2c469ece5e1bf2e0f48cb46ebb88adf7ec7c271759e68f7b49658ba78aecbb33",
        "Thm3.4.i": "3efd11dda5a2af54d30851b7cc76715093c5b87e78d2dceb06421f42a31bd7ab",
        "Thm3.4.ii": "c544111ccfa105ef4bc54201f49509b489d87e6acfaa1e9ccb2e6c9ff5a1d2bc",
        "C1@x^2-x-1": "0646ba7913f14b14b7c7802ee3c0b5890362737df9cc2d2593554d61d2908092",
        "C2@x^2-x-1": "77364d0d62199c574d6784fd7954122e41e695b2f0fc2a8797711a3a865e91d2",
        "C1@x^2-2x-1": "ded6804ac3233c5c4529cf6b5b956e38407b8e4a135438a39ed9832d8b8d1ca4",
        "C2@x^2-2x-1": "c09ab96fa7cbef946612f3c4b3c20744204773685cf4666010e14a160f9e968c",
    },
    (-200, -190): {
        "all": "98ee2f639035d86b93a7223a261764b7eef5ec7c43070f386b6eb1b18913be92",
        "Thm2.1": "b3682717fb0465a0759e872b5fb4bac428f63b0ab8031be85049c5e095918af3",
        "Thm3.1.i": "dc3a632a6cbfbdab4bf297358ca9912c7379be0e7a962e17def53aa72ce7ba2c",
        "Thm3.1.ii": "c10a1224e2e33bc780e8e585e8fa802c2bdf16252952d39122c9e46f8563893f",
        "Thm3.1.iii": "b87aa26c9dff78753c495b76ecf312fa86f33b0a53a92c88cad16795d39b2829",
        "Thm3.2.i": "a427dac7cd2c04d700ce93e6d0d43bc2eb9c96f388523dac150960c724d3f520",
        "Thm3.2.ii": "df23ce0e7649c2e650fa8d0c23dd75a3582e1abe5f81c93d221f802ae9d570d0",
        "Thm3.3.i": "d4c8ec2f1a1f53aad0f7f5530e56629967da977ea0d388a256eb591d2ea0cfcc",
        "Thm3.3.ii": "bd52336d81be92904a0b40acf3dc452f4e146c1d3a3bb688182c428b50e0733e",
        "Thm3.3.iii-hat": "e9750375a103fdf6677db1a87551c615c96894b065aef8d408669e012cc9e416",
        "Thm3.3.iii-breve": "9709a37d4bbde8efb7ee9c738fe17c86e815f2453dc04e22eb9279bf99e31a0e",
        "Thm3.4.i": "b05e9f89af22b1df0e35db6c89ba3a986c3871f5d3ddf98156ef4a56e5f2a440",
        "Thm3.4.ii": "b66cdfaefd73d121fd2ffc0b6f885050eb807de44d9ab3c5756906c584769557",
        "C1@x^2-x-1": "019288e416a28092a91892347fd01fe1ff7cb0e1fef1e0fe2023220ab81bf6bf",
        "C2@x^2-x-1": "56d544dddb02f25f65ef873e9732fde11858acab921c3a608af707dd6a84101a",
        "C1@x^2-2x-1": "4d7f8cad78098df3caeae1bd244d14d7f0c8add20bd03c74f4debb23520b51fe",
        "C2@x^2-2x-1": "5e24792b8448d6cfc9e06c80bcd24f636820f60080d0e6d560bcec21c5dede7e",
    },
    (-3, -1): {
        "all": "897286bc115e302018e523cc04054f800572c9c452a9fd464c1d754c62e95f0a",
        "Thm2.1": "4c4cd4131e08603c5b0bd6aae51fa4db1c071036b0e784945d940ff7d8cda13b",
        "Thm3.1.i": "98a7aae8758c0f8fb6e7b2966e61203b8d6d57b430c1a1ff5a59a2ade1dfe203",
        "Thm3.1.ii": "f3f4f27cc1e125117526d31239097f121b6cbb45e0df2edc329f7c8794bc46cf",
        "Thm3.1.iii": "7b2aeee2f57b8efc6d600c29e7d8ae5d04e12a57ca3757dbbb982108daeb88b6",
        "Thm3.2.i": "89c5e6d368d65925555eac89fc5285703dd9da6442c94a51003702bed162b07f",
        "Thm3.2.ii": "50774555179236758d846bbd26bd3351bf5cdc737e2032ff6bd0fe170741c6c1",
        "Thm3.3.i": "481d8ff3da1cbed4a483575bb79db8cec44d74e0a7201acb6fa1ec81d1538cc4",
        "Thm3.3.ii": "b379a53e8425a768f01f828292cb28792f91e521b22fce402959cd20a77274d7",
        "Thm3.3.iii-hat": "648d95d4a0a2bddc4d0df8975e753c8c370e7f4550ec2da11c6a793f7b31797f",
        "Thm3.3.iii-breve": "e0f0dc1c4b89665ffa3ee6c7819b0fa1d784b37ca7561add25962b59038583a3",
        "Thm3.4.i": "5496e2d08fec8e9b5fe27dcb73e433516f91da0fecc2e6d00036089e0ba578d3",
        "Thm3.4.ii": "accc014df8934d8517e44049587349404cdcc4eb824e823491c175c5dd16fc1f",
        "C1@x^2-x-1": "9140917a7b76e5be59ee8fd4ce31ebc6fa5782232bcfdca63c26292f8425a353",
        "C2@x^2-x-1": "c2c20cd8e030c024576767673f0222f3f2b6496cc0a7cae39822c7418d7ed7c2",
        "C1@x^2-2x-1": "fda5ac890749131f5030baa833d1132e3f6f9dbbaf6ea6417b0a46dd2887e453",
        "C2@x^2-2x-1": "fc9791c6dec7158566fd426cfffbec58120196b5807a8dc6f56359b2d7188941",
    },
    (100000, 100002): {
        "all": "b6c1214b19add5b826d370e0cb233aca80565b64ba86f0164f389c568e3b0072",
        "Thm2.1": "6b026ac5e5f6eb8705e6c55770777c7b8ec165391751ebc18720bd19cea9ccc2",
        "Thm3.1.i": "de93dd72c12efd4b4c7aed8f9414b48dde7e91315eb5a377e76adc10a60cfe00",
        "Thm3.1.ii": "88561e404dcd2e084a6dbe30b97eb0a5757c2dd8d00c858a99b8bee3528a13c9",
        "Thm3.1.iii": "5cd869136f0af23d0bfe66c597fea8711ab26db1b8c59cc22c526fa224660ea8",
        "Thm3.2.i": "b68d7579861394094d2d0f9a34f8bbc65bbb1dbb0f675bf5d62289fc5878de49",
        "Thm3.2.ii": "ed9cc5c33cd20b8c7ca0a7df7c7d028f007a0f8290001983482a26eab0257cf8",
        "Thm3.3.i": "21b15e32a01e95f86abc20db0a1db1dd2306691fd08f0897151c50328c47d232",
        "Thm3.3.ii": "599e1e50e5f4f2def04d5a36f48194163500db115d3cb358351253604b9888d9",
        "Thm3.3.iii-hat": "6001c058ac6e26f8d9fe9bba296d9c3072972e9594ce1aa2edfe508a1169e70b",
        "Thm3.3.iii-breve": "8c16a3ff0b04dd90e6ac5f4d8c816a96583e3008fecad148412385a17be22df2",
        "Thm3.4.i": "fdbbcd0e07e6e5c61a1fa0c638920d59aee446a1f58cae0cb1c8f87960196f29",
        "Thm3.4.ii": "6d699c631efd3b47ff4687b5d9badde7ccca2e3ec55765311f040f588bca9c53",
        "C1@x^2-x-1": "af097aa7baf858ce43fd0f826139d03c8091af2f62aa5ab9481d13f0424e2e56",
        "C2@x^2-x-1": "2ad5b4251c3b5477c89d9e48cb52f2198357a25c03a6e9fe83a39f055cf6d2cf",
        "C1@x^2-2x-1": "39ed9378ce21c444ec1b2277bd0266d5e9f14e5ff3e22df2da41212a575fb829",
        "C2@x^2-2x-1": "b95c2417f57b319eb3917c6ab09c3cd2f122de5884204f1b4e6dfac98554f499",
    },
}


@pytest.mark.parametrize("span", list(REPORT_SHA256))
def test_reports_are_byte_identical_to_the_recorded_ones(span):
    def sha(reports):
        return hashlib.sha256(reports_to_json(reports).encode()).hexdigest()

    assert list(REPORT_SHA256[span]) == ["all", *CATALOG]
    got = {"all": sha(audit_all(span))}
    got.update((key, sha(ident(span))) for key, ident in CATALOG.items())
    assert got == REPORT_SHA256[span]


class _Labelled:
    """A report's sequence: anything with a label()."""

    def __init__(self, text):
        self.text = text

    def label(self):
        return self.text


# text with quotes, backslashes, control characters and non-ASCII, often
_TEXT = st.one_of(st.text(), st.text(alphabet='"\\\x00\x1f\x7f\n\tü√5 𝔽', max_size=12))
_INDEX = st.one_of(st.integers(), st.integers(10**300, 10**400), st.integers(-(10**400), -(10**300)))


@st.composite
def _reports(draw):
    status = draw(st.sampled_from(["VERIFIED", "REFUTED", "UNEVALUABLE"]))
    failure = None
    if status == "REFUTED":
        failure = FirstFailure(draw(_INDEX), draw(_TEXT), draw(_TEXT), draw(_TEXT))
    error = draw(_TEXT) if status == "UNEVALUABLE" else None
    span = (draw(st.integers(-(10**6), 10**6)), draw(st.integers(-(10**6), 10**6)))
    return IdentityReport(draw(_TEXT), _Labelled(draw(_TEXT)), span, status, error, failure)


@hypothesis.settings(deadline=None, max_examples=300)
@hypothesis.given(st.lists(_reports(), max_size=4))
def test_report_json_is_json_dumps_of_the_report_dicts(reports):
    assert reports_to_json(reports) == json.dumps([r.to_dict() for r in reports], indent=2)


def test_report_json_of_no_reports():
    assert reports_to_json([]) == json.dumps([], indent=2) == "[]"
    assert reports_to_json(iter([])) == "[]"
