"""Exact-scalar layer: Q(sqrt(D)) arithmetic, root construction, parsing."""

from fractions import Fraction

import hypothesis
import hypothesis.strategies as st
import pytest

from hybridquat.errors import (
    DivisionByZero,
    MixedDiscriminant,
    RationalRoots,
    RepeatedRoot,
)
from hybridquat.scalars import (
    QuadExt,
    common_discriminant,
    is_perfect_square,
    make_quad_roots,
    parse_scalar,
    split_square,
    split_terms,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=60)
discs = st.sampled_from([5, 2, 17, 13, -1, -7])


@st.composite
def quadexts(draw, disc=None):
    d = disc if disc is not None else draw(discs)
    return QuadExt(draw(rationals), draw(rationals), d)


# -- square splitting ----------------------------------------------------


def test_split_square_goldens():
    assert split_square(8) == (2, 2)
    assert split_square(9) == (3, 1)
    assert split_square(1) == (1, 1)
    assert split_square(17) == (1, 17)
    assert split_square(50) == (5, 2)
    assert split_square(4 * 49 * 3) == (14, 3)


@hypothesis.given(st.integers(min_value=1, max_value=10**6))
def test_split_square_reconstructs(n):
    s, d = split_square(n)
    assert s * s * d == n


def test_is_perfect_square():
    assert is_perfect_square(0)
    assert is_perfect_square(49)
    assert not is_perfect_square(48)
    assert not is_perfect_square(-4)


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


def test_rational_operand_lifting():
    z = QuadExt(1, 1, 5)
    assert z + 1 == QuadExt(2, 1, 5)
    assert 1 + z == QuadExt(2, 1, 5)
    assert 2 * z == QuadExt(2, 2, 5)
    assert z - Fraction(1, 2) == QuadExt(Fraction(1, 2), 1, 5)
    assert 3 - z == QuadExt(2, -1, 5)
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


def test_common_discriminant():
    assert common_discriminant([Fraction(1), Fraction(2)]) is None
    assert common_discriminant([Fraction(1), QuadExt(0, 1, 5)]) == 5
    with pytest.raises(MixedDiscriminant):
        common_discriminant([QuadExt(0, 1, 5), QuadExt(0, 1, 2)])
    with pytest.raises(MixedDiscriminant):
        common_discriminant([QuadExt(1, 0, 3), QuadExt(0, 1, 5), QuadExt(0, 1, 2)])
    # surd-free entries are rationals and constrain no field
    assert common_discriminant([QuadExt(1, 0, 5), QuadExt(0, 1, 2)]) == 2
    assert common_discriminant([QuadExt(0, 1, 2), QuadExt(7, 0, 5)]) == 2
    assert common_discriminant([QuadExt(1, 0, 5), QuadExt(1, 0, 2)]) in (5, 2)


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


def test_split_terms():
    assert split_terms("1 - 2") == [(1, "1"), (-1, "2")]
    assert split_terms("-3") == [(1, "-3")]
    assert split_terms("1 + -3") == [(1, "1"), (-1, "3")]
    assert split_terms("(1 - 2) - 3") == [(1, "(1 - 2)"), (-1, "3")]


@hypothesis.given(quadexts())
def test_parse_round_trip(x):
    assert parse_scalar(str(x)) == x


@hypothesis.given(rationals)
def test_parse_round_trip_rational(r):
    assert parse_scalar(str(r)) == r
