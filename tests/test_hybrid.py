"""Hybrid numbers: unit table, closed-form product, matrix-representation oracle.

The independent oracle is the faithful representation of a hybrid
a + b*hi + c*eps + d*hh as the rational 2x2 matrix

    [[a + c, b - c + d],
     [c - b + d, a - c]]

under which hybrid multiplication becomes matrix multiplication and the
character becomes the determinant.
"""

import re
from fractions import Fraction

import hypothesis
import hypothesis.strategies as st
import pytest

from hybridquat.errors import MixedDiscriminant
from hybridquat.hybrid import EPS, HH, HI, ONE, Hybrid
from hybridquat.quaternion import Quaternion
from hybridquat.scalars import QuadExt

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=40)
hybrids = st.builds(Hybrid, rationals, rationals, rationals, rationals)

# unit products as coefficient 4-tuples (1, hi, eps, hh); row times column
UNIT_TABLE = {
    ("hi", "hi"): (-1, 0, 0, 0),
    ("hi", "eps"): (1, 0, 0, -1),
    ("hi", "hh"): (0, 1, 1, 0),
    ("eps", "hi"): (1, 0, 0, 1),
    ("eps", "eps"): (0, 0, 0, 0),
    ("eps", "hh"): (0, 0, -1, 0),
    ("hh", "hi"): (0, -1, -1, 0),
    ("hh", "eps"): (0, 0, 1, 0),
    ("hh", "hh"): (1, 0, 0, 0),
}

UNITS = {"1": ONE, "hi": HI, "eps": EPS, "hh": HH}


def _mat(z: Hybrid):
    a, b, c, d = z.components()
    return ((a + c, b - c + d), (c - b + d, a - c))


def _matmul(m, n):
    return (
        (
            m[0][0] * n[0][0] + m[0][1] * n[1][0],
            m[0][0] * n[0][1] + m[0][1] * n[1][1],
        ),
        (
            m[1][0] * n[0][0] + m[1][1] * n[1][0],
            m[1][0] * n[0][1] + m[1][1] * n[1][1],
        ),
    )


def test_unit_table():
    for (left, right), coeffs in UNIT_TABLE.items():
        product = UNITS[left] * UNITS[right]
        assert product == Hybrid(*coeffs), f"{left}*{right}"


def test_unit_table_matches_matrix_representation():
    for left in UNITS.values():
        for right in UNITS.values():
            assert _mat(left * right) == _matmul(_mat(left), _mat(right))


def test_defining_relations():
    assert HI * HI == Hybrid(-1, 0, 0, 0)
    assert EPS * EPS == Hybrid.zero()
    assert HH * HH == ONE
    assert HI * HH == EPS + HI
    assert HI * HH == -(HH * HI)


@hypothesis.given(hybrids, hybrids)
def test_product_matches_matrix_representation(x, y):
    assert _mat(x * y) == _matmul(_mat(x), _mat(y))


@hypothesis.given(hybrids, hybrids)
def test_product_matches_bilinear_expansion(x, y):
    # expand (sum x_u u)(sum y_v v) through the unit table directly
    names = ("1", "hi", "eps", "hh")
    acc = [Fraction(0)] * 4
    for i, u in enumerate(names):
        for j, v in enumerate(names):
            coeff = x.components()[i] * y.components()[j]
            if u == "1":
                unit_product = UNITS[v]
            elif v == "1":
                unit_product = UNITS[u]
            else:
                unit_product = Hybrid(*UNIT_TABLE[(u, v)])
            for k, w in enumerate(unit_product.components()):
                acc[k] += coeff * w
    assert x * y == Hybrid(*acc)


@hypothesis.given(hybrids, hybrids, hybrids)
def test_ring_laws(x, y, z):
    # (x * y) * z = x * (y * z)
    assert (x * y) * z == x * (y * z)
    # x * (y + z) = x*y + x*z
    assert x * (y + z) == x * y + x * z
    # (x + y) * z = x*z + y*z
    assert (x + y) * z == x * z + y * z


def test_noncommutative():
    assert HI * EPS != EPS * HI


@hypothesis.given(hybrids, hybrids)
def test_conjugation_is_an_anti_involution(x, y):
    # conj(x * y) = conj(y) * conj(x)
    assert (x * y).conj() == y.conj() * x.conj()
    assert x.conj().conj() == x


@hypothesis.given(hybrids)
def test_character_is_z_times_conj(z):
    assert z * z.conj() == Hybrid.from_scalar(z.character())
    assert z.conj() * z == Hybrid.from_scalar(z.character())


@hypothesis.given(hybrids, hybrids)
def test_character_is_multiplicative(x, y):
    # the character is the determinant of the matrix representation
    assert (x * y).character() == x.character() * y.character()


def test_character_goldens():
    assert HH.character() == -1
    assert (HI + EPS).character() == -1
    assert HI.character() == 1
    assert EPS.character() == 0
    assert Hybrid(1, 2, 3, 4).character() == Fraction(1 + 1 - 9 - 16)


def test_scalar_multiplication():
    z = Hybrid(1, 2, 3, 4)
    assert 2 * z == Hybrid(2, 4, 6, 8)
    assert z * Fraction(1, 2) == Hybrid(Fraction(1, 2), 1, Fraction(3, 2), 2)
    assert 2 * z == z * 2


def test_quadext_coefficients():
    root5 = QuadExt(0, 1, 5)
    z = Hybrid(root5, 1, 0, 0)
    assert z * z == Hybrid(4, 2 * root5, 0, 0)
    assert root5 * z == Hybrid(5, root5, 0, 0)
    # a rational operand meets a Q(sqrt(5)) one in either order
    x = Hybrid(1, Fraction(-1, 2), 3, Fraction(2, 3))
    w = Hybrid(QuadExt(1, 2, 5), Fraction(1, 3), QuadExt(0, -1, 5), 2)
    assert _mat(x * w) == _matmul(_mat(x), _mat(w))
    assert _mat(w * x) == _matmul(_mat(w), _mat(x))


def test_surd_free_quadext_equals_rational():
    x = Hybrid(1, Fraction(-1, 2), 0, 7)
    same = Hybrid(*(QuadExt(v, 0, 5) for v in x.components()))
    assert x == same and same == x
    assert hash(x) == hash(same)
    values = (3, -1, 0, 2)
    ints = Hybrid(*values)
    for other in (Hybrid(*map(Fraction, values)), Hybrid(*(QuadExt(v, 0, 5) for v in values))):
        assert ints == other and hash(ints) == hash(other)


def test_values_of_another_algebra_or_a_float_do_not_mix():
    x, q = Hybrid(1, 0, 0, 0), Quaternion(1, 0, 0, 0)
    for expr, op, right in (
        (lambda: x + q, "+", "Quaternion"),
        (lambda: x - q, "-", "Quaternion"),
        (lambda: x * 1.5, "*", "float"),
    ):
        message = f"unsupported operand type(s) for {op}: 'Hybrid' and '{right}'"
        with pytest.raises(TypeError, match=re.escape(message)):
            expr()
    with pytest.raises(TypeError, match=re.escape("for *: 'float' and 'Hybrid'")):
        1.5 * x
    # equal coefficients in two algebras are two values
    assert x != q and not x == q and x != 1
    assert not Hybrid.zero() and x


def test_mixed_discriminants_rejected():
    with pytest.raises(MixedDiscriminant):
        Hybrid(QuadExt(0, 1, 5), QuadExt(0, 1, 2), 0, 0)
    with pytest.raises(MixedDiscriminant):
        Hybrid(QuadExt(0, 1, 5), 1, 0, 0) * Hybrid(QuadExt(0, 1, 2), 1, 0, 0)
    # construction names the fields as arithmetic does
    message = "sqrt(5) and sqrt(2) do not live in a common quadratic field"
    with pytest.raises(MixedDiscriminant, match=re.escape(message)):
        Hybrid(QuadExt(0, 1, 5), QuadExt(0, 1, 2), 0, 0)


def test_coefficients_share_one_field():
    assert all(isinstance(v, Fraction) for v in Hybrid(1, 2, 0, 0).components())
    assert Hybrid(1, QuadExt(0, 1, 5), 0, 0).b == QuadExt(0, 1, 5)
    # two fields; test_mixed_discriminants_rejected has the two-entry case
    with pytest.raises(MixedDiscriminant):
        Hybrid(QuadExt(1, 0, 3), QuadExt(0, 1, 5), QuadExt(0, 1, 2), 0)
    # surds that cancel in a sum still fix the field
    with pytest.raises(MixedDiscriminant):
        Hybrid(QuadExt(0, 1, 5), QuadExt(0, -1, 5), QuadExt(0, 1, 2), 0)
    # surd-free entries are rationals and constrain no field
    root2 = QuadExt(0, 1, 2)
    assert Hybrid(QuadExt(1, 0, 5), root2, 0, 0) == Hybrid(1, root2, 0, 0)
    assert Hybrid(root2, QuadExt(7, 0, 5), 0, 0) == Hybrid(root2, 7, 0, 0)
    assert Hybrid(QuadExt(1, 0, 5), QuadExt(1, 0, 2), 0, 0) == Hybrid(1, 1, 0, 0)


def test_int_coefficients_become_fractions():
    z = Hybrid(1, 2, 3, 4)
    w = Hybrid(5, 6, 7, 8)
    for value in (z, z * w, z + w, z - w, -z, 2 * z, z.conj()):
        assert all(isinstance(v, Fraction) for v in value.components())
        assert all(isinstance(v, Fraction) for v in (value.a, value.b, value.c, value.d))
    assert isinstance(z.character(), Fraction)


def test_rendering():
    assert str(Hybrid(1, -2, 0, 3)) == "1 - 2*hi + 3*hh"
    assert str(Hybrid.zero()) == "0"
    assert str(Hybrid(0, 1, 0, 0)) == "1*hi"
    assert str(Hybrid(0, Fraction(-1, 2), 1, 0)) == "-1/2*hi + 1*eps"
    mixed = Hybrid(QuadExt(1, 1, 5), QuadExt(0, -1, 5), 0, 0)
    assert str(mixed) == "1 + 1*sqrt(5) - 1*sqrt(5)*hi"
    assert str(Hybrid(0, QuadExt(1, 1, 5), 0, 0)) == "(1 + 1*sqrt(5))*hi"
    assert repr(Hybrid(1, Fraction(1, 2), 0, 0)) == (
        "Hybrid(a=Fraction(1, 1), b=Fraction(1, 2), c=Fraction(0, 1), d=Fraction(0, 1))"
    )
    # one golden for each shape of coefficient text
    for coeff, expected in [
        (QuadExt(0, 2, 5), "2*sqrt(5) + 2*sqrt(5)*hi"),
        (QuadExt(0, -2, 5), "-2*sqrt(5) - 2*sqrt(5)*hi"),
        (QuadExt(-1, 2, 5), "-1 + 2*sqrt(5) + (-1 + 2*sqrt(5))*hi"),
        (QuadExt(Fraction(-3, 2), 0, 5), "-3/2 - 3/2*hi"),
        (QuadExt(0, 1, -3), "1*sqrt(-3) + 1*sqrt(-3)*hi"),
    ]:
        assert str(Hybrid(coeff, coeff, 0, 0)) == expected
