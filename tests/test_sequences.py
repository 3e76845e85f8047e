"""Sequence engine: recurrence windows, lifts, Binet forms over Q(sqrt(D))."""

import tracemalloc
from fractions import Fraction
from math import gcd

import hypothesis
import hypothesis.strategies as st
import pytest

import hybridquat.scalars
from hybridquat.audit import _Scans
from hybridquat.errors import (
    NegativeIndexWithZeroQ,
    RationalRoots,
    RepeatedRoot,
)
from hybridquat.hybrid import Hybrid
from hybridquat.hybrid_quaternion import HybridQuaternion
from hybridquat.quaternion import Quaternion
from hybridquat.scalars import QuadExt
from hybridquat.sequences import (
    BinetData,
    FERMAT,
    FIBONACCI,
    JACOBSTHAL,
    JACOBSTHAL_LUCAS,
    LUCAS,
    MERSENNE,
    PELL,
    PELL_LUCAS,
    REGISTRY,
    HoradamParams,
    LIFTS,
    SequenceId,
    _lift,
    _walk,
    binet_data,
    binet_hybrid,
    binet_hybrid_quaternion,
    binet_quaternion,
    binet_scalar,
    generalized_fibonacci,
    generalized_lucas,
    horadam,
    lift_hybrid,
    lift_hybrid_quaternion,
    lift_quaternion,
    window,
)

IRRATIONAL_ROOT_SEQUENCES = (
    FIBONACCI,
    LUCAS,
    PELL,
    PELL_LUCAS,
    FERMAT,
    generalized_fibonacci(3, -1),
    generalized_lucas(3, -1),
)

RATIONAL_ROOT_SEQUENCES = (JACOBSTHAL, JACOBSTHAL_LUCAS, MERSENNE)


# -- registry -------------------------------------------------------------


def test_registry_parameters_verbatim():
    assert FIBONACCI.params == HoradamParams(0, 1, 1, -1)
    assert LUCAS.params == HoradamParams(2, 1, 1, -1)
    assert PELL.params == HoradamParams(0, 1, 2, -1)
    assert PELL_LUCAS.params == HoradamParams(2, 2, 2, -1)
    assert JACOBSTHAL.params == HoradamParams(0, 1, 1, -2)
    assert JACOBSTHAL_LUCAS.params == HoradamParams(2, 1, 1, -2)
    assert MERSENNE.params == HoradamParams(0, 1, 3, 2)
    assert FERMAT.params == HoradamParams(1, 3, 3, -2)


def test_registry_name_lookup():
    assert REGISTRY["fibonacci"] is FIBONACCI
    assert REGISTRY["pell-lucas"] is PELL_LUCAS
    assert len(REGISTRY) == 8


def test_generalized_factories():
    gf = generalized_fibonacci(3, -1)
    assert gf.params == HoradamParams(0, 1, 3, -1)
    assert gf.name == "GeneralizedFibonacci(3,-1)"
    gl = generalized_lucas(3, -1)
    assert gl.params == HoradamParams(2, 3, 3, -1)
    assert gl.name == "GeneralizedLucas(3,-1)"


def test_labels():
    assert FIBONACCI.label() == "Fibonacci"
    assert HoradamParams(0, 1, 1, -1).label() == "w(0,1;1,-1)"


# -- recurrence -----------------------------------------------------------


def test_fibonacci_window():
    assert window(FIBONACCI, 0, 7) == [0, 1, 1, 2, 3, 5, 8, 13]


def test_mersenne_window():
    assert window(MERSENNE, 0, 4) == [0, 1, 3, 7, 15]


def test_named_sequence_openings():
    assert window(LUCAS, 0, 4) == [2, 1, 3, 4, 7]
    assert window(PELL, 0, 5) == [0, 1, 2, 5, 12, 29]
    assert window(PELL_LUCAS, 0, 4) == [2, 2, 6, 14, 34]
    assert window(JACOBSTHAL, 0, 6) == [0, 1, 1, 3, 5, 11, 21]
    assert window(JACOBSTHAL_LUCAS, 0, 5) == [2, 1, 5, 7, 17, 31]
    assert window(FERMAT, 0, 3) == [1, 3, 11, 39]


def test_negative_indices():
    assert horadam(FIBONACCI, -1) == 1
    assert horadam(FIBONACCI, -2) == -1
    assert window(FIBONACCI, -4, -1) == [-3, 2, -1, 1]


def test_negative_index_needs_nonzero_q():
    constant = HoradamParams(0, 1, 1, 0)
    assert horadam(constant, 5) == 1
    with pytest.raises(NegativeIndexWithZeroQ):
        horadam(constant, -1)


def test_accepts_params_or_sequence_id():
    assert horadam(FIBONACCI, 10) == horadam(FIBONACCI.params, 10) == 55


# sequences whose windows take other paths through the jump: q = +-2 makes
# the negative terms proper fractions, p = 1/2 makes every term a fraction,
# and q = 0 has no inverse step, so only its lo >= 0 windows exist
SPECIAL_SEQUENCES = (
    MERSENNE,
    JACOBSTHAL,
    generalized_fibonacci(Fraction(1, 2), -1),
    SequenceId("Constant", HoradamParams(0, 1, 1, 0)),
)


@hypothesis.given(
    st.one_of(
        st.builds(
            lambda p, q: SequenceId("Integer", HoradamParams(0, 1, p, q)),
            st.integers(min_value=-8, max_value=8),
            st.integers(min_value=-8, max_value=8).filter(bool),
        ),
        st.sampled_from(SPECIAL_SEQUENCES),
    ),
    st.integers(min_value=-60, max_value=60),
    st.integers(min_value=0, max_value=20),
)
def test_recurrence_holds_everywhere(seq, n, k):
    p, q = seq.params.p, seq.params.q
    hypothesis.assume(q or n - k >= 0)
    # w_{n+2} = p*w_{n+1} - q*w_n across the whole signed index range
    assert horadam(seq, n + 2) == p * horadam(seq, n + 1) - q * horadam(seq, n)
    # a window is the tail of every longer window that ends where it ends,
    # whether that one starts on the other side of 0 or not
    terms = window(seq, n, n + 6)
    assert window(seq, n - k, n + 6)[k:] == terms
    assert all(type(t) is Fraction for t in terms)


def _stepwise_window(params, lo, hi):
    """w_lo .. w_hi one Fraction step at a time from (w0, w1): forward by
    the recurrence, backward by w_n = (p*w_{n+1} - w_{n+2})/q."""
    w0, w1, p, q = params
    terms = {0: w0, 1: w1}
    for n in range(2, hi + 1):
        terms[n] = p * terms[n - 1] - q * terms[n - 2]
    for n in range(-1, lo - 1, -1):
        terms[n] = (p * terms[n + 1] - terms[n + 2]) / q
    return [terms[n] for n in range(lo, hi + 1)]


WINDOW_RATIONALS = st.fractions(min_value=-9, max_value=9, max_denominator=7)


@hypothesis.example(Fraction(1, 3), Fraction(-2, 5), Fraction(1, 2), Fraction(-3, 4), -7, 5)
@hypothesis.given(
    WINDOW_RATIONALS,
    WINDOW_RATIONALS,
    WINDOW_RATIONALS,
    WINDOW_RATIONALS,
    st.integers(min_value=-60, max_value=60),
    st.integers(min_value=0, max_value=12),
)
def test_window_matches_the_stepwise_definition(w0, w1, p, q, lo, width):
    # rational w0, w1 put the start over a common denominator, and a q
    # with a denominator gives the inverse step matrix one (lo < 0)
    hypothesis.assume(q or lo >= 0)
    params = HoradamParams(w0, w1, p, q)
    terms = window(params, lo, lo + width)
    assert terms == _stepwise_window(params, lo, lo + width)
    assert all(type(t) is Fraction for t in terms)


def _matrix_power_window(params, lo, hi):
    """w_lo .. w_hi from (w0, w1) by the Fraction step matrix [[0, 1], [-q, p]]
    (its inverse for lo < 0) raised to |lo| by square-and-multiply, then
    stepped forward by the recurrence."""
    w0, w1, p, q = params
    step = ((0, 1), (-q, p)) if lo >= 0 else ((p / q, -1 / q), (1, 0))

    def times(x, y):
        return tuple(
            tuple(sum(x[i][m] * y[m][j] for m in range(2)) for j in range(2)) for i in range(2)
        )

    power, k = ((1, 0), (0, 1)), abs(lo)
    while k:
        if k & 1:
            power = times(power, step)
        step, k = times(step, step), k >> 1
    terms = [power[0][0] * w0 + power[0][1] * w1, power[1][0] * w0 + power[1][1] * w1]
    while len(terms) <= hi - lo:
        terms.append(p * terms[-1] - q * terms[-2])
    return terms[: hi - lo + 1]


# +-(2^k - 1), +-2^k and +-(2^k + 1): the doubling reads the index's bits,
# and these give it runs of ones, a lone one and ones at both ends
EDGE_INDICES = sorted({s * (2**k + e) for k in range(13) for e in (-1, 0, 1) for s in (1, -1)})


# the jump doubles (U_k, V_k, (Q*c)^k) and squares (Q*c)^k at every bit but
# the last: Q = -1, 1, 2 and -2, c > 1 (p = 1/2) and complex roots (p = q = 3)
JUMP_PARAMS = [
    FIBONACCI.params,
    HoradamParams(2, 3, 3, 1),
    MERSENNE.params,
    JACOBSTHAL.params,
    HoradamParams(0, 1, Fraction(1, 2), -1),
    HoradamParams(0, 1, 3, 3),
]
JUMP_INDICES = sorted({s * (2**k + e) for k in range(17) for e in (-1, 0, 1) for s in (1, -1)})


def _at_edge_indices(test):
    for lo in EDGE_INDICES:
        test = hypothesis.example(
            HoradamParams(Fraction(1, 3), Fraction(-2, 5), Fraction(3, 2), Fraction(-5, 7)), lo, 3
        )(test)
    for params in JUMP_PARAMS:
        for lo in JUMP_INDICES:
            test = hypothesis.example(params, lo, 1)(test)
    for params in (HoradamParams(Fraction(4, 7), 1, Fraction(-9, 2), 0), HoradamParams(3, -1, 0, 0)):
        for lo in (0, 1, 4095, 4096, 4097):
            test = hypothesis.example(params, lo, 3)(test)
    return test


@_at_edge_indices
@hypothesis.settings(deadline=None)
@hypothesis.given(
    st.one_of(
        st.builds(HoradamParams, WINDOW_RATIONALS, WINDOW_RATIONALS, WINDOW_RATIONALS,
                  WINDOW_RATIONALS),
        st.builds(HoradamParams, WINDOW_RATIONALS, WINDOW_RATIONALS, WINDOW_RATIONALS,
                  st.just(0)),
        st.builds(HoradamParams, WINDOW_RATIONALS, WINDOW_RATIONALS, st.just(0), st.just(0)),
    ),
    st.integers(min_value=-4100, max_value=4100),
    st.integers(min_value=0, max_value=6),
)
def test_far_windows_match_a_fraction_matrix_power(params, lo, width):
    # q = 0 has no inverse step, so its windows start at |lo|
    lo = lo if params.q else abs(lo)
    terms = window(params, lo, lo + width)
    assert terms == _matrix_power_window(params, lo, lo + width)
    assert all(type(t) is Fraction for t in terms)


def test_a_walk_writes_p_and_q_over_one_denominator_once(monkeypatch):
    # the walk writes (p, q) over one denominator and hands (P, Q, c) to the
    # jump, which writes only the start values
    import hybridquat.sequences as sequences

    writer, calls = sequences._over_one_denominator, []

    def counting(values):
        calls.append(values)
        return writer(values)

    monkeypatch.setattr(sequences, "_over_one_denominator", counting)
    params = HoradamParams(Fraction(1, 3), Fraction(-2, 5), Fraction(3, 2), Fraction(-5, 7))
    for lo in (-12, 0, 1000):
        calls.clear()
        _walk(params, lo, lo + 3)
        assert calls == [(params.p, params.q), (params.w0, params.w1)]


def test_point_window_keeps_only_its_terms():
    # seven terms near F(20000) are ~20 kB; a window that also kept the
    # ~20,000 terms below lo would peak at ~21 MB
    tracemalloc.start()
    try:
        terms = window(FIBONACCI, 20000, 20006)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(terms) == 7
    assert peak < 1_000_000


def test_empty_window_rejected():
    with pytest.raises(ValueError):
        window(FIBONACCI, 3, 2)


# -- lifts ----------------------------------------------------------------


def test_lift_goldens():
    assert lift_hybrid(FIBONACCI, 0) == Hybrid(0, 1, 1, 2)
    assert lift_quaternion(LUCAS, 0) == Quaternion(2, 1, 3, 4)


def test_lift_hybrid_quaternion_decompositions():
    hat = lift_hybrid_quaternion(FIBONACCI, 0)
    assert hat.as_hybrid_basis() == (
        Quaternion(0, 1, 1, 2),
        Quaternion(1, 1, 2, 3),
        Quaternion(1, 2, 3, 5),
        Quaternion(2, 3, 5, 8),
    )
    assert hat.as_quaternion_basis() == tuple(
        lift_hybrid(FIBONACCI, k) for k in range(4)
    )


@hypothesis.given(st.integers(min_value=-10, max_value=10))
def test_lift_recurrence_linearity(n):
    # the recurrence passes through every lift componentwise; for
    # Fibonacci parameters that is hat(F)_n + hat(F)_{n+1} = hat(F)_{n+2}
    a = lift_hybrid_quaternion(FIBONACCI, n)
    b = lift_hybrid_quaternion(FIBONACCI, n + 1)
    c = lift_hybrid_quaternion(FIBONACCI, n + 2)
    assert a + b == c
    assert lift_hybrid(FIBONACCI, n) + lift_hybrid(FIBONACCI, n + 1) == lift_hybrid(
        FIBONACCI, n + 2
    )


def test_window_lifts_are_slices_and_stay_inside():
    walk = _walk(LUCAS, -3, 9)
    for n in range(-3, 3):
        assert _lift(walk, -3, "scalar", n) == horadam(LUCAS, n)
        assert _lift(walk, -3, "hybrid", n) == Hybrid(*(horadam(LUCAS, n + k) for k in range(4)))
        assert _lift(walk, -3, "quaternion", n) == Quaternion(
            *(horadam(LUCAS, n + k) for k in range(4))
        )
        assert _lift(walk, -3, "hybrid-quaternion", n).as_quaternion_basis() == tuple(
            _lift(walk, -3, "hybrid", n + s) for s in range(4)
        )
    # a lift that would read w_10 or w_-4 is refused, not truncated
    for lift, n in (("hybrid-quaternion", 4), ("hybrid", 7), ("scalar", 10), ("scalar", -4)):
        with pytest.raises(IndexError, match=f"{lift} lift at {n} reads past the window"):
            _lift(walk, -3, lift, n)


def test_a_far_point_lift_is_a_slice_of_a_wider_window():
    terms = window(PELL, -2010, -1980)
    w = terms[10:17]  # w_-2000 .. w_-1994
    assert horadam(PELL, -2000) == w[0]
    assert lift_hybrid(PELL, -2000) == Hybrid(*w[:4])
    assert lift_quaternion(PELL, -2000) == Quaternion(*w[:4])
    assert lift_hybrid_quaternion(PELL, -2000) == HybridQuaternion(
        [w[s + t] for s in range(4) for t in range(4)]
    )
    ints, den = _walk(PELL, -2010, -1980)
    for lift in LIFTS:
        wide, narrow = (ints, den), (ints[10:17], den)
        assert _lift(wide, -2010, lift, -2000) == _lift(narrow, -2000, lift, -2000)


def _assert_same(value, expected):
    assert repr(value) == repr(expected)
    assert hash(value) == hash(expected)
    if isinstance(value, (Hybrid, Quaternion, HybridQuaternion)):
        assert value._den > 0 and gcd(value._den, *value._num) == 1


def _fraction_lifts(terms):
    """Each lift of w_n .. w_{n+6}, built from Fractions by the public constructors."""
    return {
        "scalar": terms[0],
        "hybrid": Hybrid(*terms[:4]),
        "quaternion": Quaternion(*terms[:4]),
        "hybrid-quaternion": HybridQuaternion([terms[s + t] for s in range(4) for t in range(4)]),
    }


# p = P/c and q = Q/c whose P, Q and c carry odd primes, of either sign: c > 1
# scales the walked ints, and Q < 0 with an odd negative start puts the
# jump's denominator d*Q^k below 0
@hypothesis.example(Fraction(1, 3), 2, Fraction(-6), Fraction(-3, 2), -7, 16)
@hypothesis.example(Fraction(-2, 5), 1, Fraction(1, 2), Fraction(-6), -1, 1)
@hypothesis.example(Fraction(1, 3), 2, Fraction(1, 2), Fraction(-3, 2), -4099, 2)
@hypothesis.example(Fraction(1, 3), 2, Fraction(-3, 2), Fraction(9, 4), 4100, 2)
@hypothesis.settings(deadline=None)
@hypothesis.given(
    WINDOW_RATIONALS,
    WINDOW_RATIONALS,
    st.sampled_from([Fraction(1, 2), Fraction(-3, 2), Fraction(-6)]),
    st.sampled_from([Fraction(-3, 2), Fraction(9, 4), Fraction(-6)]),
    st.integers(min_value=-60, max_value=60),
    st.integers(min_value=1, max_value=16),
)
def test_int_built_lifts_match_a_fraction_recurrence(w0, w1, p, q, lo, width):
    params = HoradamParams(w0, w1, p, q)
    hi = lo + width - 1
    # w_{lo-2} .. w_{hi+6}: the audit's walk from lo - 2 and each lift at hi
    w = _stepwise_window(params, lo - 2, hi + 6)
    terms = window(params, lo, hi)
    assert len(terms) == width
    for value, expected in zip(terms, w[2:]):
        _assert_same(value, expected)
    for n in range(lo, hi + 1):
        _assert_same(horadam(params, n), w[n - lo + 2])
    points = {
        "hybrid": lift_hybrid,
        "quaternion": lift_quaternion,
        "hybrid-quaternion": lift_hybrid_quaternion,
    }
    for n in {lo, hi}:
        expected = _fraction_lifts(w[n - lo + 2 : n - lo + 9])
        for lift, point in points.items():
            _assert_same(point(params, n), expected[lift])
    # the audit's lifts at lo - 2 .. lo read one walk of w_{lo-2} .. w_{lo+9}
    scans = _Scans((lo, lo))
    for n in range(lo - 2, lo + 1):
        expected = _fraction_lifts(w[n - lo + 2 : n - lo + 9])
        for lift in LIFTS:
            _assert_same(scans.lift(params, lift)(n), expected[lift])


# (lift, n) -> the (type name, repr) of the Lucas lift at n by recurrence
# (horadam, lift_*) and by Binet form (binet_*, BinetData.table)
LUCAS_LIFT_REPRS = {
    ("scalar", -3): (
        ("Fraction", "Fraction(-4, 1)"),
        ("QuadExt", "QuadExt(Fraction(-4, 1), Fraction(0, 1), 5)"),
    ),
    ("scalar", 0): (
        ("Fraction", "Fraction(2, 1)"),
        ("QuadExt", "QuadExt(Fraction(2, 1), Fraction(0, 1), 5)"),
    ),
    ("scalar", 5): (
        ("Fraction", "Fraction(11, 1)"),
        ("QuadExt", "QuadExt(Fraction(11, 1), Fraction(0, 1), 5)"),
    ),
    ("hybrid", -3): (
        (
            "Hybrid",
            "Hybrid(a=Fraction(-4, 1), b=Fraction(3, 1), c=Fraction(-1, 1), d=Fraction(2, 1))"
        ),
        (
            "Hybrid",
            "Hybrid(a=QuadExt(Fraction(-4, 1), Fraction(0, 1), 5), b=QuadExt(Fraction(3, 1), "
            "Fraction(0, 1), 5), c=QuadExt(Fraction(-1, 1), Fraction(0, 1), 5), "
            "d=QuadExt(Fraction(2, 1), Fraction(0, 1), 5))"
        ),
    ),
    ("hybrid", 0): (
        (
            "Hybrid",
            "Hybrid(a=Fraction(2, 1), b=Fraction(1, 1), c=Fraction(3, 1), d=Fraction(4, 1))"
        ),
        (
            "Hybrid",
            "Hybrid(a=QuadExt(Fraction(2, 1), Fraction(0, 1), 5), b=QuadExt(Fraction(1, 1), "
            "Fraction(0, 1), 5), c=QuadExt(Fraction(3, 1), Fraction(0, 1), 5), "
            "d=QuadExt(Fraction(4, 1), Fraction(0, 1), 5))"
        ),
    ),
    ("hybrid", 5): (
        (
            "Hybrid",
            "Hybrid(a=Fraction(11, 1), b=Fraction(18, 1), c=Fraction(29, 1), d=Fraction(47, 1))"
        ),
        (
            "Hybrid",
            "Hybrid(a=QuadExt(Fraction(11, 1), Fraction(0, 1), 5), b=QuadExt(Fraction(18, 1), "
            "Fraction(0, 1), 5), c=QuadExt(Fraction(29, 1), Fraction(0, 1), 5), "
            "d=QuadExt(Fraction(47, 1), Fraction(0, 1), 5))"
        ),
    ),
    ("quaternion", -3): (
        (
            "Quaternion",
            "Quaternion(z0=Fraction(-4, 1), z1=Fraction(3, 1), z2=Fraction(-1, 1), "
            "z3=Fraction(2, 1))"
        ),
        (
            "Quaternion",
            "Quaternion(z0=QuadExt(Fraction(-4, 1), Fraction(0, 1), 5), "
            "z1=QuadExt(Fraction(3, 1), Fraction(0, 1), 5), z2=QuadExt(Fraction(-1, 1), "
            "Fraction(0, 1), 5), z3=QuadExt(Fraction(2, 1), Fraction(0, 1), 5))"
        ),
    ),
    ("quaternion", 0): (
        (
            "Quaternion",
            "Quaternion(z0=Fraction(2, 1), z1=Fraction(1, 1), z2=Fraction(3, 1), "
            "z3=Fraction(4, 1))"
        ),
        (
            "Quaternion",
            "Quaternion(z0=QuadExt(Fraction(2, 1), Fraction(0, 1), 5), "
            "z1=QuadExt(Fraction(1, 1), Fraction(0, 1), 5), z2=QuadExt(Fraction(3, 1), "
            "Fraction(0, 1), 5), z3=QuadExt(Fraction(4, 1), Fraction(0, 1), 5))"
        ),
    ),
    ("quaternion", 5): (
        (
            "Quaternion",
            "Quaternion(z0=Fraction(11, 1), z1=Fraction(18, 1), z2=Fraction(29, 1), "
            "z3=Fraction(47, 1))"
        ),
        (
            "Quaternion",
            "Quaternion(z0=QuadExt(Fraction(11, 1), Fraction(0, 1), 5), "
            "z1=QuadExt(Fraction(18, 1), Fraction(0, 1), 5), z2=QuadExt(Fraction(29, 1), "
            "Fraction(0, 1), 5), z3=QuadExt(Fraction(47, 1), Fraction(0, 1), 5))"
        ),
    ),
    ("hybrid-quaternion", -3): (
        (
            "HybridQuaternion",
            "HybridQuaternion(coeffs=(Fraction(-4, 1), Fraction(3, 1), Fraction(-1, 1), "
            "Fraction(2, 1), Fraction(3, 1), Fraction(-1, 1), Fraction(2, 1), Fraction(1, 1), "
            "Fraction(-1, 1), Fraction(2, 1), Fraction(1, 1), Fraction(3, 1), Fraction(2, 1), "
            "Fraction(1, 1), Fraction(3, 1), Fraction(4, 1)))"
        ),
        (
            "HybridQuaternion",
            "HybridQuaternion(coeffs=(QuadExt(Fraction(-4, 1), Fraction(0, 1), 5), "
            "QuadExt(Fraction(3, 1), Fraction(0, 1), 5), QuadExt(Fraction(-1, 1), "
            "Fraction(0, 1), 5), QuadExt(Fraction(2, 1), Fraction(0, 1), 5), "
            "QuadExt(Fraction(3, 1), Fraction(0, 1), 5), QuadExt(Fraction(-1, 1), "
            "Fraction(0, 1), 5), QuadExt(Fraction(2, 1), Fraction(0, 1), 5), "
            "QuadExt(Fraction(1, 1), Fraction(0, 1), 5), QuadExt(Fraction(-1, 1), "
            "Fraction(0, 1), 5), QuadExt(Fraction(2, 1), Fraction(0, 1), 5), "
            "QuadExt(Fraction(1, 1), Fraction(0, 1), 5), QuadExt(Fraction(3, 1), Fraction(0, 1), "
            "5), QuadExt(Fraction(2, 1), Fraction(0, 1), 5), QuadExt(Fraction(1, 1), "
            "Fraction(0, 1), 5), QuadExt(Fraction(3, 1), Fraction(0, 1), 5), "
            "QuadExt(Fraction(4, 1), Fraction(0, 1), 5)))"
        ),
    ),
    ("hybrid-quaternion", 0): (
        (
            "HybridQuaternion",
            "HybridQuaternion(coeffs=(Fraction(2, 1), Fraction(1, 1), Fraction(3, 1), "
            "Fraction(4, 1), Fraction(1, 1), Fraction(3, 1), Fraction(4, 1), Fraction(7, 1), "
            "Fraction(3, 1), Fraction(4, 1), Fraction(7, 1), Fraction(11, 1), Fraction(4, 1), "
            "Fraction(7, 1), Fraction(11, 1), Fraction(18, 1)))"
        ),
        (
            "HybridQuaternion",
            "HybridQuaternion(coeffs=(QuadExt(Fraction(2, 1), Fraction(0, 1), 5), "
            "QuadExt(Fraction(1, 1), Fraction(0, 1), 5), QuadExt(Fraction(3, 1), Fraction(0, 1), "
            "5), QuadExt(Fraction(4, 1), Fraction(0, 1), 5), QuadExt(Fraction(1, 1), "
            "Fraction(0, 1), 5), QuadExt(Fraction(3, 1), Fraction(0, 1), 5), "
            "QuadExt(Fraction(4, 1), Fraction(0, 1), 5), QuadExt(Fraction(7, 1), Fraction(0, 1), "
            "5), QuadExt(Fraction(3, 1), Fraction(0, 1), 5), QuadExt(Fraction(4, 1), "
            "Fraction(0, 1), 5), QuadExt(Fraction(7, 1), Fraction(0, 1), 5), "
            "QuadExt(Fraction(11, 1), Fraction(0, 1), 5), QuadExt(Fraction(4, 1), "
            "Fraction(0, 1), 5), QuadExt(Fraction(7, 1), Fraction(0, 1), 5), "
            "QuadExt(Fraction(11, 1), Fraction(0, 1), 5), QuadExt(Fraction(18, 1), "
            "Fraction(0, 1), 5)))"
        ),
    ),
    ("hybrid-quaternion", 5): (
        (
            "HybridQuaternion",
            "HybridQuaternion(coeffs=(Fraction(11, 1), Fraction(18, 1), Fraction(29, 1), "
            "Fraction(47, 1), Fraction(18, 1), Fraction(29, 1), Fraction(47, 1), "
            "Fraction(76, 1), Fraction(29, 1), Fraction(47, 1), Fraction(76, 1), "
            "Fraction(123, 1), Fraction(47, 1), Fraction(76, 1), Fraction(123, 1), "
            "Fraction(199, 1)))"
        ),
        (
            "HybridQuaternion",
            "HybridQuaternion(coeffs=(QuadExt(Fraction(11, 1), Fraction(0, 1), 5), "
            "QuadExt(Fraction(18, 1), Fraction(0, 1), 5), QuadExt(Fraction(29, 1), "
            "Fraction(0, 1), 5), QuadExt(Fraction(47, 1), Fraction(0, 1), 5), "
            "QuadExt(Fraction(18, 1), Fraction(0, 1), 5), QuadExt(Fraction(29, 1), "
            "Fraction(0, 1), 5), QuadExt(Fraction(47, 1), Fraction(0, 1), 5), "
            "QuadExt(Fraction(76, 1), Fraction(0, 1), 5), QuadExt(Fraction(29, 1), "
            "Fraction(0, 1), 5), QuadExt(Fraction(47, 1), Fraction(0, 1), 5), "
            "QuadExt(Fraction(76, 1), Fraction(0, 1), 5), QuadExt(Fraction(123, 1), "
            "Fraction(0, 1), 5), QuadExt(Fraction(47, 1), Fraction(0, 1), 5), "
            "QuadExt(Fraction(76, 1), Fraction(0, 1), 5), QuadExt(Fraction(123, 1), "
            "Fraction(0, 1), 5), QuadExt(Fraction(199, 1), Fraction(0, 1), 5)))"
        ),
    ),
}


# lift -> its recurrence point and its Binet point
ROUTES = {
    "scalar": (horadam, binet_scalar),
    "hybrid": (lift_hybrid, binet_hybrid),
    "quaternion": (lift_quaternion, binet_quaternion),
    "hybrid-quaternion": (lift_hybrid_quaternion, binet_hybrid_quaternion),
}


@pytest.mark.parametrize("lift", LIFTS)
def test_both_routes_give_each_lifts_recorded_type_and_repr(lift):
    point, closed = ROUTES[lift]
    table = binet_data(LUCAS).table(lift, -3, 5)
    for n in (-3, 0, 5):
        by_recurrence, by_binet = LUCAS_LIFT_REPRS[lift, n]
        value = point(LUCAS, n)
        assert (type(value).__name__, repr(value)) == by_recurrence
        # a Binet value keeps its zero-surd QuadExt coefficients
        for value in (closed(LUCAS, n), table[n + 3]):
            assert (type(value).__name__, repr(value)) == by_binet


def test_the_scalar_binet_table_is_a_list_of_quadext():
    assert repr(binet_data(LUCAS).table("scalar", -3, -1)) == (
        "[QuadExt(Fraction(-4, 1), Fraction(0, 1), 5), QuadExt(Fraction(3, 1), Fraction(0, 1), 5), "
        "QuadExt(Fraction(-1, 1), Fraction(0, 1), 5)]"
    )


# -- Binet data -----------------------------------------------------------


def test_fibonacci_binet_data():
    data = binet_data(FIBONACCI)
    assert data.alpha == QuadExt(Fraction(1, 2), Fraction(1, 2), 5)
    assert data.beta == QuadExt(Fraction(1, 2), Fraction(-1, 2), 5)
    assert data.A == QuadExt(0, Fraction(1, 5), 5)
    assert data.B == QuadExt(0, Fraction(-1, 5), 5)
    # eps component of alpha_star is alpha^2
    assert data.alpha_star.c == QuadExt(Fraction(3, 2), Fraction(1, 2), 5)
    assert data.alpha_star.a == 1
    assert data.alpha_under.z3 == data.alpha ** 3


def test_generalized_lucas_weights_are_one():
    data = binet_data(generalized_lucas(3, -1))
    assert data.A == 1
    assert data.B == 1


def test_rational_root_sequences_rejected():
    for seq in RATIONAL_ROOT_SEQUENCES:
        with pytest.raises(RationalRoots):
            binet_data(seq)
        with pytest.raises(RationalRoots):
            binet_scalar(seq, 3)


def test_repeated_root_rejected():
    with pytest.raises(RepeatedRoot):
        binet_data(HoradamParams(0, 1, 2, 1))


# -- Binet evaluation ------------------------------------------------------


def test_binet_scalar_golden():
    value = binet_scalar(FIBONACCI, 10)
    assert value == 55
    assert isinstance(value, QuadExt)
    assert value.surd_part == 0


def test_binet_hybrid_golden():
    assert binet_hybrid(LUCAS, 0) == Hybrid(2, 1, 3, 4)


@pytest.mark.parametrize("seq", IRRATIONAL_ROOT_SEQUENCES, ids=lambda s: s.name)
def test_binet_matches_recurrence(seq):
    for n in (*range(-10, 41), -5000, 5000):
        assert binet_scalar(seq, n) == horadam(seq, n)


@pytest.mark.parametrize("seq", IRRATIONAL_ROOT_SEQUENCES, ids=lambda s: s.name)
def test_binet_lifts_match_recurrence_lifts(seq):
    for n in (-5000, -10, -3, -1, 0, 1, 2, 7, 25, 40, 5000):
        assert binet_hybrid(seq, n) == lift_hybrid(seq, n)
        assert binet_quaternion(seq, n) == lift_quaternion(seq, n)
        hat = binet_hybrid_quaternion(seq, n)
        assert hat == lift_hybrid_quaternion(seq, n)
        # every coefficient lands back in Q: the surds cancel exactly
        assert all(c.surd_part == 0 for c in hat.coeffs)


def test_the_binet_route_never_calls_the_jump(monkeypatch):
    # the audit compares the two routes, so they must share no code that
    # could be wrong in both: with the jump broken, Binet values are unchanged
    import hybridquat.sequences as sequences

    def evaluate():
        return [
            (binet_scalar(seq, n), binet_hybrid_quaternion(seq, n),
             binet_data(seq).table(lift, n, n))
            for seq in (PELL, generalized_fibonacci(Fraction(1, 2), -1))
            for n in (-2049, 0, 4096)
            for lift in ("scalar", "hybrid-quaternion")
        ]

    before = evaluate()

    def broken(*args):
        raise AssertionError("the Binet route reached the recurrence jump")

    monkeypatch.setattr(sequences, "_jump", broken)
    with pytest.raises(AssertionError, match="reached the recurrence jump"):
        window(PELL, 0, 0)
    assert evaluate() == before


def test_binet_normalises_the_discriminant_once(monkeypatch):
    # D = 30001**2 + 4 = 900060005 is factored once, by make_quad_roots,
    # and never by the QuadExt arithmetic that follows
    import hybridquat.scalars as scalars

    seq = HoradamParams(0, 1, 30001, -1)
    split_square = scalars.split_square
    calls = []

    def counting(n):
        calls.append(n)
        return split_square(n)

    monkeypatch.setattr(scalars, "split_square", counting)
    hat = binet_hybrid_quaternion(seq, 1100)
    assert calls == [900060005]
    monkeypatch.undo()
    assert hat == lift_hybrid_quaternion(seq, 1100)


def test_binet_data_is_a_plain_record():
    data = binet_data(FIBONACCI)
    assert isinstance(data, BinetData)
    assert data.alpha != data.beta
    assert data.alpha + data.beta == 1  # alpha + beta = p
    assert data.alpha * data.beta == -1  # alpha * beta = q


FIB_PARAMS_REPR = (
    "HoradamParams(w0=Fraction(0, 1), w1=Fraction(1, 1), p=Fraction(1, 1), q=Fraction(-1, 1))"
)
FIB_BINET_REPR = (
    "BinetData(alpha=QuadExt(Fraction(1, 2), Fraction(1, 2), 5), "
    "beta=QuadExt(Fraction(1, 2), Fraction(-1, 2), 5), "
    "A=QuadExt(Fraction(0, 1), Fraction(1, 5), 5), "
    "B=QuadExt(Fraction(0, 1), Fraction(-1, 5), 5), "
    "alpha_star=Hybrid(a=Fraction(1, 1), b=QuadExt(Fraction(1, 2), Fraction(1, 2), 5), "
    "c=QuadExt(Fraction(3, 2), Fraction(1, 2), 5), "
    "d=QuadExt(Fraction(2, 1), Fraction(1, 1), 5)), "
    "beta_star=Hybrid(a=Fraction(1, 1), b=QuadExt(Fraction(1, 2), Fraction(-1, 2), 5), "
    "c=QuadExt(Fraction(3, 2), Fraction(-1, 2), 5), "
    "d=QuadExt(Fraction(2, 1), Fraction(-1, 1), 5)), "
    "alpha_under=Quaternion(z0=Fraction(1, 1), z1=QuadExt(Fraction(1, 2), Fraction(1, 2), 5), "
    "z2=QuadExt(Fraction(3, 2), Fraction(1, 2), 5), "
    "z3=QuadExt(Fraction(2, 1), Fraction(1, 1), 5)), "
    "beta_under=Quaternion(z0=Fraction(1, 1), z1=QuadExt(Fraction(1, 2), Fraction(-1, 2), 5), "
    "z2=QuadExt(Fraction(3, 2), Fraction(-1, 2), 5), "
    "z3=QuadExt(Fraction(2, 1), Fraction(-1, 1), 5)))"
)


def test_records_are_frozen_value_tuples():
    # the records are namedtuples: repr, == and hash by value, read-only
    # fields, and, being tuples, equal to a plain tuple of their fields
    params = HoradamParams(w0=0, w1=1, p=Fraction(2, 2), q=-1)
    assert [type(v) for v in params] == [Fraction] * 4
    assert repr(params) == FIB_PARAMS_REPR
    assert repr(FIBONACCI) == f"SequenceId(name='Fibonacci', params={FIB_PARAMS_REPR})"
    data = binet_data(params)
    assert repr(data) == FIB_BINET_REPR
    same = (
        (params, FIBONACCI.params),
        (SequenceId("Fibonacci", params), FIBONACCI),
        (data, binet_data(FIBONACCI)),
    )
    for record, other in same:
        assert record is not other and record == other and hash(record) == hash(other)
    assert params != LUCAS.params and SequenceId("Fib", params) != FIBONACCI
    assert data != binet_data(LUCAS)
    for record, field in ((params, "q"), (FIBONACCI, "name"), (data, "alpha")):
        with pytest.raises(AttributeError):
            setattr(record, field, 2)
    # a namedtuple compares as the tuple of its fields
    assert FIBONACCI.params == (0, 1, 1, -1) and hash(FIBONACCI.params) == hash((0, 1, 1, -1))
    assert FIBONACCI == ("Fibonacci", (0, 1, 1, -1))
    # every record is slotted: no instance __dict__ to hold a cache
    assert not any(hasattr(record, "__dict__") for record in (params, FIBONACCI, data))


# -- Binet from the alpha half ---------------------------------------------

BINET_LIFTS = ("scalar", "hybrid", "quaternion", "hybrid-quaternion")
BINET_EVALUATORS = dict(
    zip(BINET_LIFTS, (binet_scalar, binet_hybrid, binet_quaternion, binet_hybrid_quaternion))
)
SMALL_RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def _irrational_binet_data(w0, w1, p, q):
    try:
        return binet_data(HoradamParams(w0, w1, p, q))
    except (RationalRoots, RepeatedRoot):
        hypothesis.reject()


def _root_factors(r):
    """1, r_star, r_under and r_star*r_under, built from the root alone."""
    star, under = Hybrid(1, r, r ** 2, r ** 3), Quaternion(1, r, r ** 2, r ** 3)
    hat = HybridQuaternion.from_hybrid(star) * HybridQuaternion.from_quaternion(under)
    return dict(zip(BINET_LIFTS, (1, star, under, hat)))


@hypothesis.settings(max_examples=8, deadline=None)
@hypothesis.given(SMALL_RATIONALS, SMALL_RATIONALS, SMALL_RATIONALS, SMALL_RATIONALS)
def test_binet_evaluators_equal_both_literal_halves(w0, w1, p, q):
    data = _irrational_binet_data(w0, w1, p, q)
    params = HoradamParams(w0, w1, p, q)
    alpha, beta = data.alpha, data.beta
    assert data.B == (w0 * alpha - w1) / (alpha - beta)
    alpha_factors, beta_factors = _root_factors(alpha), _root_factors(beta)
    assert data.beta_star == beta_factors["hybrid"]
    assert data.beta_under == beta_factors["quaternion"]
    for lift in BINET_LIFTS:
        one_row = BINET_EVALUATORS[lift]
        rows = data.table(lift, -60, 60)
        for n, row in zip(range(-60, 61), rows):
            literal = (
                data.A * alpha ** n * alpha_factors[lift]
                + data.B * beta ** n * beta_factors[lift]
            )
            # equal down to the scalar type of every coefficient
            assert repr(row) == repr(one_row(params, n)) == repr(literal)


@hypothesis.settings(deadline=None)
@hypothesis.given(
    SMALL_RATIONALS,
    SMALL_RATIONALS,
    SMALL_RATIONALS,
    SMALL_RATIONALS,
    st.integers(min_value=-80, max_value=-1),
    st.integers(min_value=0, max_value=30),
    st.sampled_from(BINET_LIFTS),
)
def test_binet_table_rows_from_a_negative_start_are_the_per_n_values(
    w0, w1, p, q, lo, width, lift
):
    data = _irrational_binet_data(w0, w1, p, q)
    one_row = BINET_EVALUATORS[lift]
    rows = data.table(lift, lo, lo + width)
    assert rows == [one_row(HoradamParams(w0, w1, p, q), n) for n in range(lo, lo + width + 1)]


@pytest.mark.parametrize("seq", IRRATIONAL_ROOT_SEQUENCES, ids=lambda s: s.name)
def test_binet_terms_are_the_recurrence_terms(seq):
    terms = binet_data(seq).terms(-20, 40)
    assert terms == window(seq, -20, 40)
    assert all(type(w) is Fraction for w in terms)


@pytest.mark.parametrize("lift", BINET_LIFTS)
def test_binet_table_and_terms_reject_an_empty_range(lift):
    # as window does: no lift returns rows, or a term, for lo > hi
    data = binet_data(FIBONACCI)
    for lo, hi in ((5, 4), (5, 3), (0, -1)):
        with pytest.raises(ValueError, match="empty index window"):
            data.table(lift, lo, hi)
        with pytest.raises(ValueError, match="empty index window"):
            data.terms(lo, hi)


@st.composite
def _outer_operands(draw):
    """A Hybrid and a Quaternion over Q, or over one field Q(sqrt(D)) with
    rational and zero coefficients mixed in."""
    rational = st.one_of(st.just(Fraction(0)), SMALL_RATIONALS)
    scalar = rational
    if draw(st.booleans()):
        d = draw(st.sampled_from([5, 2, -3, 13]))
        scalar = st.one_of(rational, st.builds(QuadExt, rational, rational, st.just(d)))
    z, q = (draw(st.lists(scalar, min_size=4, max_size=4)) for _ in range(2))
    return Hybrid(*z), Quaternion(*q)


@hypothesis.given(_outer_operands())
def test_outer_product_is_the_product_of_the_embeddings(operands):
    # the form the audit's Cassini constant is built in: hybrid coefficient
    # of u_s is z*q_s, so coefficient 4s+t is q_s*z_t
    z, q = operands
    embed_h, embed_q = HybridQuaternion.from_hybrid, HybridQuaternion.from_quaternion
    outer = HybridQuaternion.from_quaternion_basis(*(z * s for s in q.components()))
    assert outer == embed_h(z) * embed_q(q)


@pytest.mark.parametrize("lift", BINET_LIFTS)
@pytest.mark.parametrize("lo, width", [(-9, 0), (-9, 12), (0, 0), (0, 1), (5, 7), (40, 3)])
def test_binet_table_raises_one_power(lift, lo, width, monkeypatch):
    data = binet_data(PELL)
    calls = []
    real = hybridquat.scalars.power

    def counted(base, exponent, one):
        calls.append(exponent)
        return real(base, exponent, one)

    monkeypatch.setattr(hybridquat.scalars, "power", counted)
    rows = data.table(lift, lo, lo + width)
    assert len(rows) == width + 1
    assert calls == [abs(lo)]


def _lucas_pair(p, q, n):
    """V_n and U_n of x^2 - p*x + q by a plain Fraction loop, and
    V_-n = V_n/q^n, U_-n = -U_n/q^n below 0."""
    v, v_next, u, u_next = Fraction(2), p, Fraction(0), Fraction(1)
    for _ in range(abs(n)):
        v, v_next = v_next, p * v_next - q * v
        u, u_next = u_next, p * u_next - q * u
    if n < 0:
        return v / q ** -n, -u / q ** -n
    return v, u


@pytest.mark.parametrize(
    "params, far",
    [
        (FERMAT.params, 20000),
        (generalized_fibonacci(Fraction(1, 3), -1).params, 5000),
        (HoradamParams(0, 1, 30001, -1), 1100),
    ],
)
@pytest.mark.parametrize("sign", [1, -1])
def test_far_root_powers_match_the_lucas_pair(params, far, sign):
    # alpha^n = (V_n + U_n*(alpha - beta))/2, with V and U from the recurrence alone
    data = binet_data(params)
    v, u = _lucas_pair(params.p, params.q, sign * far)
    expected = (v + u * (data.alpha - data.beta)) / 2
    got = data.alpha ** (sign * far)
    assert (got.rat_part, got.surd_part, got.discriminant) == (
        expected.rat_part, expected.surd_part, expected.discriminant,
    )
