"""Quaternions: unit table, closed-form product, Cayley-Dickson oracle.

Writing q = (z0 + z1*i) + (z2 + z3*i)*j identifies a quaternion with a
pair (a, b) of complex numbers; the product rule j*z = conj(z)*j then
forces (a, b)(c, d) = (a*c - b*conj(d), a*d + b*conj(c)), which is the
independent multiplication oracle used here.
"""

from fractions import Fraction

import hypothesis
import hypothesis.strategies as st
import pytest

from hybridquat.errors import MixedDiscriminant
from hybridquat.quaternion import I, J, K, QONE, Quaternion
from hybridquat.scalars import QuadExt

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=40)
quaternions = st.builds(Quaternion, rationals, rationals, rationals, rationals)


def _cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _cconj(x):
    return (x[0], -x[1])


def _cadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _csub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def _pair(q: Quaternion):
    return ((q.z0, q.z1), (q.z2, q.z3))


def _pair_mul(x, y):
    a, b = x
    c, d = y
    return (
        _csub(_cmul(a, c), _cmul(b, _cconj(d))),
        _cadd(_cmul(a, d), _cmul(b, _cconj(c))),
    )


def test_unit_table():
    assert I * J == K
    assert J * K == I
    assert K * I == J
    assert J * I == -K
    assert K * J == -I
    assert I * K == -J
    assert I * I == J * J == K * K == -QONE
    assert I * J * K == -QONE


@hypothesis.given(quaternions, quaternions)
def test_product_matches_cayley_dickson(x, y):
    assert _pair(x * y) == _pair_mul(_pair(x), _pair(y))


@hypothesis.given(quaternions, quaternions, quaternions)
def test_ring_laws(x, y, z):
    # (x * y) * z = x * (y * z)
    assert (x * y) * z == x * (y * z)
    # x * (y + z) = x*y + x*z
    assert x * (y + z) == x * y + x * z
    # (x + y) * z = x*z + y*z
    assert (x + y) * z == x * z + y * z


@hypothesis.given(quaternions, quaternions)
def test_conjugation_is_an_anti_involution(x, y):
    assert (x * y).conj() == y.conj() * x.conj()
    assert x.conj().conj() == x


@hypothesis.given(quaternions)
def test_norm_sq_is_q_times_conj(q):
    assert q * q.conj() == Quaternion.from_scalar(q.norm_sq())
    assert q.conj() * q == Quaternion.from_scalar(q.norm_sq())


def test_norm_goldens():
    q = Quaternion(1, 1, 1, 1)
    assert q * q.conj() == Quaternion(4, 0, 0, 0)
    assert Quaternion(1, 2, 3, 4).norm_sq() == 30


def test_scalar_multiplication():
    q = Quaternion(1, 2, 3, 4)
    assert 2 * q == q * 2 == Quaternion(2, 4, 6, 8)
    assert Fraction(1, 2) * q == Quaternion(Fraction(1, 2), 1, Fraction(3, 2), 2)


def test_quadext_coefficients():
    root2 = QuadExt(0, 1, 2)
    q = Quaternion(root2, 1, 0, 0)
    assert q * q == Quaternion(1, 2 * root2, 0, 0)
    with pytest.raises(MixedDiscriminant):
        Quaternion(QuadExt(0, 1, 5), QuadExt(0, 1, 2), 0, 0)
    with pytest.raises(MixedDiscriminant):
        Quaternion(QuadExt(0, 1, 5), 1, 0, 0) * Quaternion(QuadExt(0, 1, 2), 1, 0, 0)
    # a rational operand meets a Q(sqrt(5)) one in either order
    x = Quaternion(1, Fraction(-1, 2), 3, Fraction(2, 3))
    w = Quaternion(QuadExt(1, 2, 5), Fraction(1, 3), QuadExt(0, -1, 5), 2)
    assert _pair(x * w) == _pair_mul(_pair(x), _pair(w))
    assert _pair(w * x) == _pair_mul(_pair(w), _pair(x))


def test_surd_free_quadext_equals_rational():
    x = Quaternion(1, Fraction(-1, 2), 0, 7)
    same = Quaternion(*(QuadExt(v, 0, 5) for v in x.components()))
    assert x == same and same == x
    assert hash(x) == hash(same)
    values = (3, -1, 0, 2)
    ints = Quaternion(*values)
    quads = Quaternion(*(QuadExt(v, 0, 5) for v in values))
    for other in (Quaternion(*map(Fraction, values)), quads):
        assert ints == other and hash(ints) == hash(other)


def test_int_coefficients_become_fractions():
    q = Quaternion(1, 2, 3, 4)
    p = Quaternion(5, 6, 7, 8)
    for value in (q, q * p, q + p, q - p, -q, 2 * q, q.conj()):
        assert all(isinstance(v, Fraction) for v in value.components())
        assert all(isinstance(v, Fraction) for v in (value.z0, value.z1, value.z2, value.z3))
    assert isinstance(q.norm_sq(), Fraction)


def test_rendering():
    assert str(Quaternion(1, -2, 0, 3)) == "1 - 2*i + 3*k"
    assert str(Quaternion.zero()) == "0"
    assert str(Quaternion(0, 0, Fraction(5, 3), 0)) == "5/3*j"
    assert repr(Quaternion(0, 0, Fraction(5, 3), -1)) == (
        "Quaternion(z0=Fraction(0, 1), z1=Fraction(0, 1), z2=Fraction(5, 3), z3=Fraction(-1, 1))"
    )
