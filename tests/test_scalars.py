"""Exact-scalar layer: Q(sqrt(D)) arithmetic, root construction, parsing."""

import re
import sys
from collections import deque
from fractions import Fraction
from math import gcd, lcm

import hypothesis
import hypothesis.strategies as st
import pytest

import hybridquat.scalars
from hybridquat.errors import (
    DivisionByZero,
    MixedDiscriminant,
    RationalRoots,
    RepeatedRoot,
)
from hybridquat.hybrid import Hybrid
from hybridquat.hybrid_quaternion import HybridQuaternion, parse_hybrid_quaternion
from hybridquat.scalars import (
    QuadExt,
    _over_one_denominator,
    make_quad_roots,
    parse_scalar,
    split_square,
    split_terms,
    unlimited_digits,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=60)
discs = st.sampled_from([5, 2, 17, 13, -1, -7])


@st.composite
def quadexts(draw, disc=None):
    d = disc if disc is not None else draw(discs)
    return QuadExt(draw(rationals), draw(rationals), d)


# -- rationals as ints over one denominator ---------------------------------

# the primes below 50 and the four largest below 10**12: pairwise coprime
PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
PRIMES += [999999999937, 999999999959, 999999999961, 999999999989]


@st.composite
def fraction_lists(draw):
    """1-16 reduced Fractions: zeros, negatives, and denominators that are
    shared (a few drawn up to 10**12), pairwise coprime, or drawn freely."""
    n = draw(st.integers(1, 16))
    shared = st.lists(st.integers(1, 10**12), min_size=1, max_size=3).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=n, max_size=n)
    )
    coprime = st.lists(st.sampled_from(PRIMES), min_size=n, max_size=n, unique=True)
    free = st.lists(st.integers(1, 10**12), min_size=n, max_size=n)
    numerators = st.one_of(st.just(0), st.integers(-(10**12), 10**12))
    return [Fraction(draw(numerators), d) for d in draw(st.one_of(shared, coprime, free))]


@hypothesis.given(fraction_lists())
def test_over_one_denominator_writes_ints_over_the_lcm_with_content_one(values):
    ints, m = _over_one_denominator(values)
    assert m == lcm(*[v.denominator for v in values])
    assert all(type(i) is int for i in ints)
    assert [Fraction(i, m) for i in ints] == values
    assert gcd(m, *ints) == 1
    # the constructor stores the writer's form, with nothing left to reduce
    zeros = (0,) * (16 - len(values))
    built = HybridQuaternion(values + [Fraction(0)] * len(zeros))
    expected = HybridQuaternion._reduced(ints + zeros, m)
    assert (built._num, built._den) == (expected._num, expected._den)


# -- square splitting ----------------------------------------------------


def test_split_square_goldens():
    assert split_square(8) == (2, 2)
    assert split_square(9) == (3, 1)
    assert split_square(1) == (1, 1)
    assert split_square(17) == (1, 17)
    assert split_square(50) == (5, 2)
    assert split_square(4 * 49 * 3) == (14, 3)
    with pytest.raises(ValueError, match="^split_square needs a positive integer$"):
        split_square(0)


def _squarefree(d):
    f = 2
    while f * f <= d:
        if d % (f * f) == 0:
            return False
        f += 1
    return True


@hypothesis.given(st.integers(min_value=1, max_value=10**6))
def test_split_square_reconstructs(n):
    s, d = split_square(n)
    assert s * s * d == n
    assert _squarefree(d)


@pytest.mark.parametrize("p, q", [(1009, 1013), (999983, 999979), (1000003, 1000033)])
def test_split_square_at_the_cube_root_stop(p, q):
    # trial division stops once f**3 passes the rest, which is then
    # 1, p, p*q or p*p; exact for every n <= 10**18
    assert split_square(p * q) == (1, p * q)
    assert split_square(p * p) == (p, 1)
    assert split_square(2 * p * p) == (p, 2)
    if p**3 <= 10**18:
        assert split_square(p**3) == (p, p)
        assert split_square(p * p * q) == (p, q)


BIG_PRIME = 999999999999999989  # the largest prime below 10**18


def test_square_multiples_of_a_large_part_divide_once(monkeypatch):
    # every trial division that ends in a part in (10**6, 10**18] records
    # it, so one record is one division: after D is split, each k*k*D lies
    # in its field and is split by one isqrt
    monkeypatch.setattr(hybridquat.scalars, "_LARGE_PARTS", deque(maxlen=16))
    split_square.cache_clear()
    for k in range(1, 17):
        assert split_square(k * k * BIG_PRIME) == (k, BIG_PRIME)
    assert list(hybridquat.scalars._LARGE_PARTS) == [BIG_PRIME]
    assert repr(QuadExt(0, 1, -9 * BIG_PRIME)) == repr(QuadExt(0, 3, -BIG_PRIME))
    # another field is divided; a part past 10**18 may keep a square
    # factor, so it is not recorded
    assert split_square(2 * BIG_PRIME) == (1, 2 * BIG_PRIME)
    assert split_square(1000003 * 1000033) == (1, 1000003 * 1000033)
    assert list(hybridquat.scalars._LARGE_PARTS) == [BIG_PRIME, 1000003 * 1000033]


@hypothesis.settings(deadline=None, max_examples=30)
@hypothesis.given(st.integers(10**6 + 1, 10**8), st.integers(1, 1000))
def test_a_recorded_part_splits_as_trial_division_does(d, k):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hybridquat.scalars, "_LARGE_PARTS", deque(maxlen=16))
        split_square.cache_clear()
        divided = split_square(k * k * d)
        mp.setattr(hybridquat.scalars, "_LARGE_PARTS", deque(maxlen=16))
        split_square.cache_clear()
        part = split_square(d)[1]
        assert list(hybridquat.scalars._LARGE_PARTS) == [part] * (part > 10**6)
        assert split_square(k * k * d) == divided


# -- construction and normalization --------------------------------------


def test_discriminant_square_factor_extracted():
    # sqrt(8) = 2*sqrt(2)
    assert QuadExt(0, 1, 8) == QuadExt(0, 2, 2)
    assert QuadExt(0, 1, 12) == QuadExt(0, 2, 3)
    assert QuadExt(0, 1, 8).discriminant == 2


def test_perfect_square_discriminant_rejected():
    with pytest.raises(RationalRoots):
        QuadExt(1, 1, 4)
    with pytest.raises(RationalRoots):
        QuadExt(1, 1, 0)


def test_negative_discriminant_allowed():
    z = QuadExt(0, 1, -4)
    assert z == QuadExt(0, 2, -1)
    assert z.discriminant == -1
    assert z * z == Fraction(-4)


def test_discriminant_must_be_an_int():
    for bad in (5.5, "5", Fraction(5)):
        with pytest.raises(TypeError):
            QuadExt(1, 1, bad)
    with pytest.raises(TypeError, match="^expected an exact rational, got float$"):
        QuadExt(0.5, 1, 5)


def test_immutable():
    z = QuadExt(1, 2, 5)
    with pytest.raises(AttributeError):
        z.rat_part = Fraction(3)


# -- quadratic roots ------------------------------------------------------


def test_fibonacci_roots():
    alpha, beta = make_quad_roots(1, -1)
    assert alpha == QuadExt(Fraction(1, 2), Fraction(1, 2), 5)
    assert beta == QuadExt(Fraction(1, 2), Fraction(-1, 2), 5)
    assert alpha + beta == 1
    assert alpha * beta == -1


def test_pell_roots_normalize_sqrt8():
    alpha, beta = make_quad_roots(2, -1)
    assert alpha == QuadExt(1, 1, 2)
    assert beta == QuadExt(1, -1, 2)


def test_fermat_roots():
    alpha, _ = make_quad_roots(3, -2)
    assert alpha == QuadExt(Fraction(3, 2), Fraction(1, 2), 17)


def test_rational_quadratics_rejected():
    with pytest.raises(RationalRoots):
        make_quad_roots(3, 2)  # disc 1
    with pytest.raises(RationalRoots):
        make_quad_roots(1, -2)  # disc 9
    with pytest.raises(RepeatedRoot):
        make_quad_roots(2, 1)  # disc 0


@pytest.mark.parametrize(
    "p, q, expected",
    [
        (1, -1, "(QuadExt(Fraction(1, 2), Fraction(1, 2), 5), "
                "QuadExt(Fraction(1, 2), Fraction(-1, 2), 5))"),
        (Fraction(1, 2), -1, "(QuadExt(Fraction(1, 4), Fraction(1, 4), 17), "
                             "QuadExt(Fraction(1, 4), Fraction(-1, 4), 17))"),
        (0, 1, "(QuadExt(Fraction(0, 1), Fraction(1, 1), -1), "
               "QuadExt(Fraction(0, 1), Fraction(-1, 1), -1))"),
        (Fraction(3, 7), Fraction(-2, 5), "(QuadExt(Fraction(3, 14), Fraction(1, 70), 2185), "
                                          "QuadExt(Fraction(3, 14), Fraction(-1, 70), 2185))"),
    ],
)
def test_root_repr_goldens(p, q, expected):
    # the rational part stays a Fraction and the discriminant squarefree
    assert repr(make_quad_roots(p, q)) == expected


def test_fractional_coefficients():
    alpha, _ = make_quad_roots(Fraction(1, 2), -1)
    # disc = 1/4 + 4 = 17/4, sqrt = (1/2)sqrt(17)
    assert alpha == QuadExt(Fraction(1, 4), Fraction(1, 4), 17)


def test_fractional_rational_square_detected():
    # disc = 1/4 + 2 = 9/4 = (3/2)^2
    with pytest.raises(RationalRoots):
        make_quad_roots(Fraction(1, 2), Fraction(-1, 2))


@hypothesis.given(
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)
def test_roots_satisfy_quadratic(p, q):
    try:
        alpha, beta = make_quad_roots(p, q)
    except (RepeatedRoot, RationalRoots):
        return
    # x^2 - p*x + q = 0 at both roots
    assert alpha * alpha - p * alpha + q == 0
    assert beta * beta - p * beta + q == 0
    assert alpha + beta == p
    assert alpha * beta == q


# -- field arithmetic -----------------------------------------------------


def test_golden_ratio_square():
    phi = QuadExt(Fraction(1, 2), Fraction(1, 2), 5)
    assert phi * phi == QuadExt(Fraction(3, 2), Fraction(1, 2), 5)
    assert phi ** 2 == phi * phi
    assert phi ** 3 == phi * phi * phi


def test_inverse_goldens():
    root5 = QuadExt(0, 1, 5)
    assert root5.inverse() == QuadExt(0, Fraction(1, 5), 5)
    phi = QuadExt(Fraction(1, 2), Fraction(1, 2), 5)
    assert phi.inverse() == QuadExt(Fraction(-1, 2), Fraction(1, 2), 5)
    assert phi ** -1 == phi.inverse()
    assert phi ** -3 == (phi.inverse()) ** 3


def test_zero_inverse_raises():
    with pytest.raises(DivisionByZero):
        QuadExt(0, 0, 5).inverse()
    with pytest.raises(DivisionByZero):
        QuadExt(0, 0, 5) ** -1


def test_mixed_discriminants_refuse():
    with pytest.raises(MixedDiscriminant):
        QuadExt(0, 1, 5) + QuadExt(0, 1, 2)
    with pytest.raises(MixedDiscriminant):
        QuadExt(0, 1, 5) * QuadExt(0, 1, 2)


# P*P*Q*2 passes 10**18, so its square factor P*P stays in the discriminant
P, Q = 1000003, 1000033


def test_field_identity_past_the_trial_limit():
    wide = QuadExt(0, 1, 2 * P * P * Q)  # sqrt(2*P*P*Q) = P*sqrt(2*Q)
    narrow = QuadExt(0, P, 2 * Q)
    assert wide == narrow and narrow == wide
    assert hash(wide) == hash(narrow)
    assert wide + QuadExt(0, 1, 2 * Q) == QuadExt(0, P + 1, 2 * Q)
    assert QuadExt(0, 1, 2 * Q) * wide == 2 * P * Q
    assert wide - narrow == 0
    assert Hybrid(wide, narrow, 0, 0) == Hybrid(narrow, wide, 0, 0)
    assert QuadExt(0, -1, -2 * P * P * Q) == QuadExt(0, -P, -2 * Q)
    assert QuadExt(0, 1, 2 * P * P * Q) != QuadExt(0, -P, 2 * Q)
    with pytest.raises(MixedDiscriminant):
        wide + QuadExt(0, 1, 3 * Q)
    with pytest.raises(MixedDiscriminant):
        wide * QuadExt(0, 1, -2 * Q)


def test_arithmetic_never_calls_split_square(monkeypatch):
    import hybridquat.scalars as scalars

    x, y = QuadExt(3, 7, 900060005), QuadExt(Fraction(1, 2), -1, 900060005)
    rational = QuadExt(1, 0, 5)
    calls = []
    monkeypatch.setattr(scalars, "split_square", lambda n: calls.append(n))
    for z in (x + y, x - y, -x, x * y, x / y, 2 - x, 1 / y, x ** 5, x ** -2,
              x.conjugate(), x.inverse(), x + rational, rational * y, x == y):
        assert z is not None
    assert calls == []


def test_power_squares_only_up_to_the_top_bit(monkeypatch):
    x = QuadExt(1, 1, 5)
    expected = x
    for _ in range(140):
        expected = expected * x
    squarings, multiplies = [], []
    # the power runs on the int operand, so its product is the one counted
    product = hybridquat.scalars._Ints.__mul__

    def counting(a, b):
        (squarings if a is b else multiplies).append(1)
        return product(a, b)

    monkeypatch.setattr(hybridquat.scalars._Ints, "__mul__", counting)
    assert x ** 141 == expected
    assert (len(squarings), len(multiplies)) == (7, 4)


@st.composite
def powers(draw):
    # positive, negative, 1 mod 4 and non-squarefree D; odd primes in the denominators
    d = draw(st.sampled_from([5, 2, -3, 17, 13, -1, 29, 12, -8]))
    part = st.builds(Fraction, st.integers(-30, 30), st.sampled_from([1, 2, 3, 4, 7, 9, 15, 40]))
    return QuadExt(draw(part), draw(part), d), draw(st.integers(-70, 90))


@hypothesis.settings(deadline=None)
@hypothesis.given(powers())
@hypothesis.example((QuadExt(0, 0, 5), 0))
@hypothesis.example((QuadExt(0, 0, 5), 3))
@hypothesis.example((QuadExt(0, 0, 5), -1))
def test_power_matches_repeated_multiplies(case):
    q, n = case
    if not q and n < 0:
        with pytest.raises(DivisionByZero):
            q ** n
        return
    base = q if n >= 0 else q.inverse()
    expected = QuadExt(1, 0, q.discriminant)
    for _ in range(abs(n)):
        expected = expected * base
    got = q ** n
    assert (repr(got), hash(got)) == (repr(expected), hash(expected))


def test_rational_operand_lifting():
    z = QuadExt(1, 1, 5)
    assert z + 1 == QuadExt(2, 1, 5)
    assert 1 + z == QuadExt(2, 1, 5)
    assert 2 * z == QuadExt(2, 2, 5)
    assert z - Fraction(1, 2) == QuadExt(Fraction(1, 2), 1, 5)
    assert 3 - z == QuadExt(2, -1, 5)
    # a reflected difference keeps the QuadExt's discriminant and Fraction parts
    assert repr(3 - z) == "QuadExt(Fraction(2, 1), Fraction(-1, 1), 5)"
    assert repr(Fraction(1, 2) - z) == "QuadExt(Fraction(-1, 2), Fraction(-1, 1), 5)"
    assert repr(3 - QuadExt(2, 0, 7)) == "QuadExt(Fraction(1, 1), Fraction(0, 1), 7)"
    assert z / 2 == QuadExt(Fraction(1, 2), Fraction(1, 2), 5)
    assert 1 / QuadExt(0, 1, 5) == QuadExt(0, Fraction(1, 5), 5)


def test_equality_against_rationals():
    assert QuadExt(3, 0, 5) == 3
    assert QuadExt(3, 0, 5) == Fraction(3)
    assert QuadExt(3, 1, 5) != 3
    assert hash(QuadExt(3, 0, 5)) == hash(Fraction(3))


def test_surd_free_values_equal_across_discriminants():
    # equal hashes already say these are one value; equality must agree
    assert QuadExt(1, 0, 5) == QuadExt(1, 0, 2)
    assert QuadExt(Fraction(-3, 4), 0, -1) == QuadExt(Fraction(-3, 4), 0, 7)
    assert len({QuadExt(1, 0, 5), QuadExt(1, 0, 2), Fraction(1)}) == 1
    assert QuadExt(1, 0, 5) != QuadExt(2, 0, 2)
    assert QuadExt(1, 1, 5) != QuadExt(1, 0, 2)
    assert QuadExt(1, 0, 5) != QuadExt(1, 1, 2)
    assert QuadExt(0, 1, 5) != QuadExt(0, 1, 2)


@pytest.mark.parametrize(
    "x, y, equal",
    [
        # surd-free against the same D, another D of the field, another field
        (QuadExt(3, 0, 5), QuadExt(3, 0, 5), True),
        (QuadExt(3, 0, 5), QuadExt(3, 0, 20), True),
        (QuadExt(3, 0, 5), QuadExt(3, 0, 7), True),
        (QuadExt(3, 0, 5), QuadExt(4, 0, 7), False),
        (QuadExt(3, 0, 5), QuadExt(3, 1, 5), False),
        (QuadExt(3, 0, 5), QuadExt(3, 1, 7), False),
        # surd-carrying against the same D, another D of the field, another field
        (QuadExt(3, 2, 5), QuadExt(3, 2, 5), True),
        (QuadExt(3, 2, 5), QuadExt(3, 1, 20), True),
        (QuadExt(3, 2, 5), QuadExt(3, 2, 20), False),
        (QuadExt(3, 2, -1), QuadExt(3, 1, -4), True),
        (QuadExt(3, 2, 5), QuadExt(3, 2, 7), False),
        (QuadExt(3, 2, 5), QuadExt(3, 2, -5), False),
        # int and Fraction
        (QuadExt(3, 0, 5), 3, True),
        (QuadExt(3, 0, 5), Fraction(3), True),
        (QuadExt(Fraction(1, 2), 0, 5), Fraction(1, 2), True),
        (QuadExt(3, 0, 5), 4, False),
        (QuadExt(3, 1, 5), 3, False),
        (QuadExt(3, 1, 5), Fraction(3), False),
        # a bool is an int: True is 1 and False is 0
        (QuadExt(1, 0, 5), True, True),
        (QuadExt(0, 0, 5), False, True),
        (QuadExt(2, 0, 5), True, False),
        (QuadExt(1, 1, 5), True, False),
        (QuadExt(0, 1, 5), False, False),
        # a float is not an exact scalar, whatever its value
        (QuadExt(1, 0, 5), 1.0, False),
        (QuadExt(1, 1, 5), 1.0, False),
    ],
)
def test_equality_table(x, y, equal):
    assert (x == y, y == x, x != y, y != x) == (equal, equal, not equal, not equal)
    if equal:
        assert hash(x) == hash(y)


@hypothesis.given(rationals, quadexts(disc=2))
def test_surd_free_values_mix_across_discriminants(r, y):
    # a surd-free value is a rational: it combines with any field, and the
    # result lives in the field of the operand that carries a surd
    x = QuadExt(r, 0, 5)
    assert x + y == r + y and y + x == y + r
    assert x - y == r - y and y - x == y - r
    assert x * y == r * y and y * x == y * r
    for z in (x + y, y - x, x * y):
        assert z.discriminant == 2 or not z.surd_part
    if r:
        assert y / x == y / r
    if y:
        assert x / y == r / y
    assert QuadExt(1, 0, 5) + QuadExt(1, 0, 2) == 2
    assert QuadExt(1, 0, 5) * QuadExt(0, 1, 2) == QuadExt(0, 1, 2)


@hypothesis.given(quadexts(disc=5), quadexts(disc=5), quadexts(disc=5))
def test_field_laws(x, y, z):
    # (x + y) + z = x + (y + z)
    assert (x + y) + z == x + (y + z)
    # x + y = y + x
    assert x + y == y + x
    # (x * y) * z = x * (y * z)
    assert (x * y) * z == x * (y * z)
    # x * y = y * x  (the field is commutative)
    assert x * y == y * x
    # x * (y + z) = x*y + x*z
    assert x * (y + z) == x * y + x * z


@hypothesis.given(quadexts())
def test_inverse_law(x):
    hypothesis.assume(bool(x))
    assert x * x.inverse() == 1
    assert x / x == 1


@st.composite
def quadext_pairs(draw):
    d = draw(discs)
    return draw(quadexts(disc=d)), draw(quadexts(disc=d))


@hypothesis.given(quadext_pairs())
def test_conjugate_is_multiplicative(pair):
    x, y = pair
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    assert x.conjugate().conjugate() == x


# -- rendering and parsing ------------------------------------------------


def test_render_goldens():
    assert str(QuadExt(Fraction(1, 2), Fraction(1, 2), 5)) == "1/2 + 1/2*sqrt(5)"
    assert str(QuadExt(1, -2, 3)) == "1 - 2*sqrt(3)"
    assert str(QuadExt(0, 1, 5)) == "1*sqrt(5)"
    assert str(QuadExt(0, -1, 5)) == "-1*sqrt(5)"
    assert str(QuadExt(7, 0, 5)) == "7"
    assert str(QuadExt(0, 0, 5)) == "0"


def test_parse_goldens():
    assert parse_scalar("3/4") == Fraction(3, 4)
    assert parse_scalar("-12") == Fraction(-12)
    assert parse_scalar("1/2 + 1/2*sqrt(5)") == QuadExt(
        Fraction(1, 2), Fraction(1, 2), 5
    )
    assert parse_scalar("1 - 2*sqrt(3)") == QuadExt(1, -2, 3)
    assert parse_scalar("-sqrt(2)") == QuadExt(0, -1, 2)
    assert parse_scalar("sqrt(5)") == QuadExt(0, 1, 5)
    assert parse_scalar("(1/2 + 1/2*sqrt(5))") == QuadExt(
        Fraction(1, 2), Fraction(1, 2), 5
    )
    # an exponent's sign stays inside its number
    assert parse_scalar("1e-2") == Fraction(1, 100)
    assert parse_scalar("1E+2") == 100
    assert str(parse_scalar("2.5e-1*sqrt(5)")) == "1/4*sqrt(5)"
    assert parse_hybrid_quaternion("1e-2*1*hi") == HybridQuaternion([0, Fraction(1, 100)] + [0] * 14)
    # a radicand is an integer in the same number grammar
    assert parse_scalar("sqrt(1e3)") == QuadExt(0, 10, 10)
    assert parse_scalar("sqrt(10/2)") == QuadExt(0, 1, 5)
    # an exponent up to int's 4300-digit text limit is read in full
    assert parse_scalar("1e4300") == 10**4300
    assert parse_scalar("1e-4300") == Fraction(1, 10**4300)


def test_quadext_arithmetic_refuses_a_float():
    x = QuadExt(1, 1, 5)
    for expr, op, left, right in (
        (lambda: x + 1.5, "+", "QuadExt", "float"),
        (lambda: 1.5 + x, "+", "float", "QuadExt"),
        (lambda: x - 1.5, "-", "QuadExt", "float"),
        (lambda: 1.5 - x, "-", "float", "QuadExt"),
        (lambda: x * 1.5, "*", "QuadExt", "float"),
        (lambda: x / 1.5, "/", "QuadExt", "float"),
        (lambda: 1.5 / x, "/", "float", "QuadExt"),
        (lambda: x ** 1.5, "** or pow()", "QuadExt", "float"),
    ):
        message = f"unsupported operand type(s) for {op}: '{left}' and '{right}'"
        with pytest.raises(TypeError, match=re.escape(message)):
            expr()


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_scalar("")
    with pytest.raises(ValueError):
        parse_scalar("1 +")
    with pytest.raises(ValueError):
        parse_scalar("(1 + 2")
    with pytest.raises(MixedDiscriminant):
        parse_scalar("sqrt(5) + sqrt(2)")
    for zero_den in ("1/0", "2 - 3/0*sqrt(5)"):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_scalar(zero_den)
    with pytest.raises(MixedDiscriminant, match=re.escape("mixed surds in 'sqrt(5) + sqrt(2)'")):
        parse_scalar("sqrt(5) + sqrt(2)")
    for text, message in (
        ("1)", "unbalanced parentheses in '1)'"),
        ("sqrt(5", "unbalanced parentheses in 'sqrt(5'"),
        ("sqrt(5)x", "malformed surd term 'sqrt(5)x'"),
        ("sqrt(5/4)", "malformed surd term 'sqrt(5/4)'"),
        ("sqrt(x)", "malformed surd term 'sqrt(x)'"),
        ("sqrt(1_0)", "malformed surd term 'sqrt(1_0)'"),
        ("sqrt(1/0)", "malformed surd term 'sqrt(1/0)'"),
        # the first parenthesis closes early, so the outer pair is kept
        ("(1) + (2)", "Invalid literal for Fraction: '(1)'"),
        # digit underscores and spaces around "/" are refused on every Python,
        # though Fraction takes the first from 3.11 on and the second from 3.12
        ("1_0", "Invalid literal for Fraction: '1_0'"),
        ("1/1_0", "Invalid literal for Fraction: '1/1_0'"),
        ("1 / 2", "Invalid literal for Fraction: '1 / 2'"),
        ("3 /4", "Invalid literal for Fraction: '3 /4'"),
        # past int's 4300-digit text limit, refused before the number is built
        ("1e400000", "exponent too large in '1e400000'"),
        ("1e-4301", "exponent too large in '1e-4301'"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_scalar(text)


def test_parse_takes_any_spelling_of_a_field():
    # the terms are summed as QuadExt values, so field identity is by value
    assert parse_scalar("sqrt(8) + sqrt(2)") == QuadExt(0, 3, 2)
    assert parse_scalar("0*sqrt(5) + sqrt(2)") == QuadExt(0, 1, 2)
    assert parse_scalar("sqrt(-1) + sqrt(-4)") == QuadExt(0, 3, -1)
    assert parse_scalar("1/3 + sqrt(5) + sqrt(45)") == QuadExt(Fraction(1, 3), 4, 5)
    assert parse_scalar("2*sqrt(12) - 4*sqrt(3)") == 0


def test_split_terms():
    assert split_terms("1 - 2") == [(1, "1"), (-1, "2")]
    assert split_terms("-3") == [(1, "-3")]
    assert split_terms("1 + -3") == [(1, "1"), (-1, "3")]
    assert split_terms("(1 - 2) - 3") == [(1, "(1 - 2)"), (-1, "3")]
    assert split_terms("1e-2 - 3") == [(1, "1e-2"), (-1, "3")]


@hypothesis.given(quadexts())
def test_parse_round_trip(x):
    assert parse_scalar(str(x)) == x


@hypothesis.given(rationals)
def test_parse_round_trip_rational(r):
    assert parse_scalar(str(r)) == r


def test_unlimited_digits_on_a_python_without_the_limit(monkeypatch):
    # Pythons 3.10.0-3.10.6 have neither the limit nor its accessors
    monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    monkeypatch.delattr(sys, "set_int_max_str_digits", raising=False)
    ran = []
    with unlimited_digits():
        ran.append(True)
    assert ran == [True]
