"""Hybrid quaternions: structure constants, dual expansions, conjugates.

Independent oracle: write x as a quaternion-coefficient combination of
the four hybrid units, send each hybrid unit to its faithful 2x2
rational matrix, and multiply the resulting quaternion-entry matrices.
Because quaternion units commute with hybrid units, this is a faithful
representation of the whole 16-dimensional algebra in M2(H).
"""

import random
from fractions import Fraction

import hypothesis
import hypothesis.strategies as st
import pytest

from hybridquat.errors import MixedDiscriminant
from hybridquat.hybrid import EPS, HH, HI, ONE, Hybrid
from hybridquat.hybrid_quaternion import (
    CANONICAL_PAIRS,
    COLUMN_NAMES,
    HYBRID_UNITS,
    QUAT_UNITS,
    HybridQuaternion,
    hq_cross,
    hq_dot,
    hq_mul,
    mul_via_scalar_vector,
    parse_hybrid_quaternion,
    scalar_vector_form,
)
from hybridquat.quaternion import Quaternion
from hybridquat.scalars import QuadExt

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=24)
hqs = st.builds(
    lambda cs: HybridQuaternion(tuple(cs)),
    st.lists(rationals, min_size=16, max_size=16),
)

# 2x2 rational matrices of the hybrid units 1, hi, eps, hh
_HYBRID_MATS = (
    ((1, 0), (0, 1)),
    ((0, 1), (-1, 0)),
    ((1, -1), (1, -1)),
    ((0, 1), (1, 0)),
)


def _embed(x: HybridQuaternion):
    """2x2 matrix with Quaternion entries."""
    out = [[Quaternion.zero(), Quaternion.zero()], [Quaternion.zero(), Quaternion.zero()]]
    for t, q in enumerate(x.as_hybrid_basis()):
        mat = _HYBRID_MATS[t]
        for r in range(2):
            for c in range(2):
                if mat[r][c]:
                    out[r][c] = out[r][c] + q * mat[r][c]
    return out


def _matmul(m, n):
    return [
        [
            m[0][0] * n[0][0] + m[0][1] * n[1][0],
            m[0][0] * n[0][1] + m[0][1] * n[1][1],
        ],
        [
            m[1][0] * n[0][0] + m[1][1] * n[1][0],
            m[1][0] * n[0][1] + m[1][1] * n[1][1],
        ],
    ]


def _hybrid_unit_expansion(x: HybridQuaternion, y: HybridQuaternion):
    """Product expansion on the four quaternion coefficients of the
    hybrid units; each coefficient product keeps the x factor left."""
    q0, q1, q2, q3 = x.as_hybrid_basis()
    p0, p1, p2, p3 = y.as_hybrid_basis()
    return HybridQuaternion.from_hybrid_basis(
        q0 * p0 - q1 * p1 + q3 * p3 + q1 * p2 + q2 * p1,
        q0 * p1 + q1 * p0 + q1 * p3 - q3 * p1,
        q0 * p2 + q2 * p0 + q1 * p3 - q3 * p1 + q3 * p2 - q2 * p3,
        q0 * p3 + q3 * p0 + q2 * p1 - q1 * p2,
    )


def _quaternion_unit_expansion(x: HybridQuaternion, y: HybridQuaternion):
    """Product expansion on the four hybrid coefficients of the
    quaternion units; each coefficient product keeps the x factor left."""
    z0, z1, z2, z3 = x.as_quaternion_basis()
    t0, t1, t2, t3 = y.as_quaternion_basis()
    return HybridQuaternion.from_quaternion_basis(
        z0 * t0 - z1 * t1 - z2 * t2 - z3 * t3,
        z1 * t0 + z0 * t1 - z3 * t2 + z2 * t3,
        z2 * t0 + z3 * t1 + z0 * t2 - z1 * t3,
        z3 * t0 - z2 * t1 + z1 * t2 + z0 * t3,
    )


def _all_units():
    return [HybridQuaternion.unit(u, v) for u, v in CANONICAL_PAIRS]


def test_units_commute_across_the_tensor_factors():
    for u in QUAT_UNITS:
        for v in HYBRID_UNITS:
            left = HybridQuaternion.unit(u, "1") * HybridQuaternion.unit("1", v)
            right = HybridQuaternion.unit("1", v) * HybridQuaternion.unit(u, "1")
            assert left == right == HybridQuaternion.unit(u, v)


def test_basis_products_match_matrix_oracle():
    units = _all_units()
    for x in units:
        for y in units:
            assert _embed(x * y) == _matmul(_embed(x), _embed(y))


def test_basis_products_match_both_expansions():
    units = _all_units()
    for x in units:
        for y in units:
            product = x * y
            assert product == _hybrid_unit_expansion(x, y)
            assert product == _quaternion_unit_expansion(x, y)


@hypothesis.given(hqs, hqs)
def test_random_products_match_matrix_oracle(x, y):
    assert _embed(x * y) == _matmul(_embed(x), _embed(y))


@hypothesis.given(hqs, hqs)
def test_random_products_match_both_expansions(x, y):
    product = hq_mul(x, y)
    assert product == _hybrid_unit_expansion(x, y)
    assert product == _quaternion_unit_expansion(x, y)


@hypothesis.given(hqs, hqs, hqs)
def test_ring_laws(x, y, z):
    # (x * y) * z = x * (y * z)
    assert (x * y) * z == x * (y * z)
    # x * (y + z) = x*y + x*z
    assert x * (y + z) == x * y + x * z
    # (x + y) * z = x*z + y*z
    assert (x + y) * z == x * z + y * z


def test_power():
    x = HybridQuaternion.unit("i", "hi")
    assert x ** 0 == HybridQuaternion.from_scalar(1)
    assert x ** 2 == x * x
    assert x ** 5 == x * x * x * x * x
    with pytest.raises(ValueError):
        x ** -1


def test_int_coefficients_become_fractions():
    x = HybridQuaternion(tuple(range(16)))
    y = HybridQuaternion(tuple(range(-8, 8)))
    for value in (x, x * y, x + y, x - y, -x, x ** 2, 2 * x):
        assert all(isinstance(c, Fraction) for c in value.coeffs)


def test_quadext_coefficients():
    rng = random.Random(5)
    x = HybridQuaternion(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(16)))
    w = HybridQuaternion(
        tuple(QuadExt(rng.randint(-9, 9), rng.randint(-9, 9), 5) for _ in range(8)) + (Fraction(1, 3),) * 8
    )
    # a rational operand meets a Q(sqrt(5)) one in either order
    assert _embed(x * w) == _matmul(_embed(x), _embed(w))
    assert _embed(w * x) == _matmul(_embed(w), _embed(x))
    root2 = HybridQuaternion((QuadExt(0, 1, 2),) * 16)
    with pytest.raises(MixedDiscriminant):
        w * root2


def test_surd_free_quadext_equals_rational():
    x = HybridQuaternion(tuple(Fraction(k - 5, k + 1) for k in range(16)))
    same = HybridQuaternion(tuple(QuadExt(c, 0, 5) for c in x.coeffs))
    assert x == same and same == x
    assert hash(x) == hash(same)
    ints = HybridQuaternion(tuple(range(-8, 8)))
    for other in (
        HybridQuaternion(tuple(Fraction(k) for k in range(-8, 8))),
        HybridQuaternion(tuple(QuadExt(k, 0, 5) for k in range(-8, 8))),
    ):
        assert ints == other and hash(ints) == hash(other)
    # surd-free coefficients are rationals, so they mix with sqrt(2) values
    root2 = HybridQuaternion.from_scalar(QuadExt(0, 1, 2))
    assert same * root2 == x * root2 and root2 * same == root2 * x
    assert same + root2 == x + root2


# -- decompositions --------------------------------------------------------


@hypothesis.given(hqs)
def test_decomposition_round_trips(x):
    assert HybridQuaternion.from_quaternion_basis(*x.as_quaternion_basis()) == x
    assert HybridQuaternion.from_hybrid_basis(*x.as_hybrid_basis()) == x


def test_decomposition_views_agree():
    x = HybridQuaternion(tuple(range(16)))
    hybrids = x.as_quaternion_basis()
    quats = x.as_hybrid_basis()
    for s in range(4):
        for t in range(4):
            assert hybrids[s].components()[t] == quats[t].components()[s] == 4 * s + t


def test_embeddings():
    z = Hybrid(1, 2, 3, 4)
    q = Quaternion(1, 2, 3, 4)
    assert HybridQuaternion.from_hybrid(z).as_quaternion_basis()[0] == z
    assert HybridQuaternion.from_quaternion(q).as_hybrid_basis()[0] == q
    # both embeddings are multiplicative
    w = Hybrid(5, 6, 7, 8)
    assert HybridQuaternion.from_hybrid(z) * HybridQuaternion.from_hybrid(w) \
        == HybridQuaternion.from_hybrid(z * w)
    r = Quaternion(5, 6, 7, 8)
    assert HybridQuaternion.from_quaternion(q) * HybridQuaternion.from_quaternion(r) \
        == HybridQuaternion.from_quaternion(q * r)


# -- conjugates --------------------------------------------------------------


@hypothesis.given(hqs)
def test_conjugates_are_involutions(x):
    assert x.conj_quaternion().conj_quaternion() == x
    assert x.conj_hybrid().conj_hybrid() == x
    assert x.conj_total().conj_total() == x


@hypothesis.given(hqs)
def test_conj_total_is_the_composition_either_way(x):
    assert x.conj_total() == x.conj_quaternion().conj_hybrid()
    assert x.conj_total() == x.conj_hybrid().conj_quaternion()


@hypothesis.given(hqs)
def test_conj_quaternion_extracts_twice_the_scalar_row(x):
    expected = HybridQuaternion.from_hybrid(x.as_quaternion_basis()[0]) * 2
    assert x + x.conj_quaternion() == expected


@hypothesis.given(hqs)
def test_conj_hybrid_extracts_twice_the_scalar_column(x):
    expected = HybridQuaternion.from_quaternion(x.as_hybrid_basis()[0]) * 2
    assert x + x.conj_hybrid() == expected


def test_conj_signs():
    x = HybridQuaternion(tuple(range(16)))
    assert x.conj_quaternion().coeffs[4] == -4
    assert x.conj_quaternion().coeffs[1] == 1
    assert x.conj_hybrid().coeffs[1] == -1
    assert x.conj_hybrid().coeffs[4] == 4
    assert x.conj_total().coeffs[5] == 5  # both factors non-trivial: kept


# -- scalar / vector form ----------------------------------------------------


@hypothesis.given(hqs, hqs)
def test_scalar_vector_product_matches(x, y):
    assert mul_via_scalar_vector(x, y) == x * y


def test_scalar_vector_parts():
    x = HybridQuaternion(tuple(range(16)))
    assert scalar_vector_form(x) == (
        Hybrid(0, 1, 2, 3),
        (Hybrid(4, 5, 6, 7), Hybrid(8, 9, 10, 11), Hybrid(12, 13, 14, 15)),
    )


def test_vector_factor_order_matters():
    # x = i x hi has V_x = (hi, 0, 0); y = 1 x hh has S_y = hh.
    # The product needs V_x * S_y = hi*hh = eps + hi; flipping the factors
    # gives hh*hi = -eps - hi, which is wrong.
    x = HybridQuaternion.unit("i", "hi")
    y = HybridQuaternion.unit("1", "hh")
    assert mul_via_scalar_vector(x, y) == x * y
    _, vx = scalar_vector_form(x)
    sy, _ = scalar_vector_form(y)
    flipped = HybridQuaternion.from_quaternion_basis(
        Hybrid.zero(), sy * vx[0], sy * vx[1], sy * vx[2]
    )
    assert flipped != x * y


def test_dot_and_cross_goldens():
    u = (HI, Hybrid.zero(), Hybrid.zero())
    v = (EPS, Hybrid.zero(), Hybrid.zero())
    assert hq_dot(u, v) == HI * EPS == Hybrid(1, 0, 0, -1)
    w = hq_cross((HI, EPS, Hybrid.zero()), (Hybrid.zero(), Hybrid.zero(), HH))
    assert w == (EPS * HH, -(HI * HH), Hybrid.zero())


# -- rendering and parsing ----------------------------------------------------


def test_column_names():
    assert COLUMN_NAMES[0] == "c_1_1"
    assert COLUMN_NAMES[1] == "c_1_hi"
    assert COLUMN_NAMES[4] == "c_i_1"
    assert COLUMN_NAMES[15] == "c_k_hh"
    assert len(set(COLUMN_NAMES)) == 16


def test_render_goldens():
    assert str(HybridQuaternion.zero()) == "0"
    assert str(HybridQuaternion.from_scalar(5)) == "5*1*1"
    x = HybridQuaternion((0, 3, 0, 0) + (0,) * 4 + (-2, 0, 0, 0) + (0,) * 4)
    assert str(x) == "3*1*hi - 2*j*1"
    surd = HybridQuaternion((QuadExt(1, 1, 5),) + (0,) * 15)
    assert str(surd) == "(1 + 1*sqrt(5))*1*1"


def test_parse_goldens():
    assert parse_hybrid_quaternion("3*1*hi - 2*j*1") == HybridQuaternion(
        (0, 3, 0, 0) + (0,) * 4 + (-2, 0, 0, 0) + (0,) * 4
    )
    assert parse_hybrid_quaternion("0") == HybridQuaternion.zero()
    assert parse_hybrid_quaternion("1/2*k*hh + 1/2*k*hh") == HybridQuaternion(
        (0,) * 15 + (1,)
    )
    with pytest.raises(ValueError):
        parse_hybrid_quaternion("3*q*hi")
    with pytest.raises(ValueError):
        parse_hybrid_quaternion("3*hi")
    with pytest.raises(ValueError):
        parse_hybrid_quaternion("1/0*i*hi")


@hypothesis.given(hqs)
def test_parse_round_trip(x):
    assert parse_hybrid_quaternion(str(x)) == x


def test_parse_round_trip_with_surds():
    x = HybridQuaternion(
        (QuadExt(1, 1, 5), QuadExt(0, -1, 5), Fraction(-3, 2), 0) + (0,) * 12
    )
    assert parse_hybrid_quaternion(str(x)) == x


# -- construction errors -------------------------------------------------------


def test_record_interface():
    x = HybridQuaternion(coeffs=(Fraction(1, 2), 3) + (0,) * 14)
    zeros = ", ".join(["Fraction(0, 1)"] * 14)
    assert repr(x) == f"HybridQuaternion(coeffs=(Fraction(1, 2), Fraction(3, 1), {zeros}))"
    with pytest.raises(AttributeError):
        x.coeffs = (0,) * 16


def test_construction_validation():
    with pytest.raises(ValueError):
        HybridQuaternion((1, 2, 3))
    with pytest.raises(TypeError):
        HybridQuaternion((1.5,) + (0,) * 15)
