"""Hybrid quaternions: structure constants, dual expansions, conjugates.

Matrix oracle: write x as a quaternion-coefficient combination of the
four hybrid units, send each hybrid unit to its faithful 2x2 rational
matrix, and multiply the resulting quaternion-entry matrices.  Because
quaternion units commute with hybrid units, this is a faithful
representation of the whole 16-dimensional algebra in M2(H).  The
product kernel runs in this same representation, so the matrix oracle
checks its maps in and out but shares its idea.  Independent of it are
the two dual unit expansions, which multiply 4-dimensional values, and
the unit-table loop below, which the kernel replaced and which pins the
scalar type of every coefficient (hence ``repr``).
"""

import abc
import random
import re
import sys
from fractions import Fraction

import hypothesis
import hypothesis.strategies as st
import pytest

from hybridquat import hybrid, quaternion
from hybridquat.algebra import Element, render_terms
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
from hybridquat.quaternion import QONE, I, J, K, Quaternion
from hybridquat.scalars import QuadExt, unlimited_digits

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=24)
hqs = st.builds(
    lambda cs: HybridQuaternion(tuple(cs)),
    st.lists(rationals, min_size=16, max_size=16),
)

# Q(sqrt 5) values: dense ones, whose coefficients are all nonzero QuadExts,
# and sparse or mixed ones with zeros, zero QuadExts and Fractions
small = st.fractions(min_value=-6, max_value=6, max_denominator=4)
quads = st.builds(lambda a, b: QuadExt(a, b, 5), small, small)
surd_scalars = st.one_of(
    st.just(0), st.just(QuadExt(0, 0, 5)), small, quads.filter(bool)
)
surd_hqs = st.one_of(
    st.lists(quads.filter(bool), min_size=16, max_size=16),
    st.lists(surd_scalars, min_size=16, max_size=16),
    st.lists(st.one_of(st.just(0), quads), min_size=16, max_size=16),
).map(lambda cs: HybridQuaternion(tuple(cs)))


def _unit_terms():
    """(flat index, sign) terms of e_i * e_j, from the 4-dimensional units."""
    quats, hybrids = (QONE, I, J, K), (ONE, HI, EPS, HH)
    terms = []
    for i in range(16):
        row = []
        for j in range(16):
            q = (quats[i // 4] * quats[j // 4]).components()
            h = (hybrids[i % 4] * hybrids[j % 4]).components()
            row.append([(4 * r + m, qc * hc) for r, qc in enumerate(q) if qc for m, hc in enumerate(h) if hc])
        terms.append(row)
    return terms


_UNIT_TERMS = _unit_terms()


def _table_loop(x: HybridQuaternion, y: HybridQuaternion) -> HybridQuaternion:
    """The unit-table product loop: every coefficient starts at
    Fraction(0), pairs with a zero factor are skipped, and each pair's
    product is added or subtracted once per term of e_i * e_j."""
    acc = [Fraction(0)] * 16
    for i, a in enumerate(x.coeffs):
        if not a:
            continue
        for j, b in enumerate(y.coeffs):
            if not b:
                continue
            p = a * b
            for k, sign in _UNIT_TERMS[i][j]:
                acc[k] = acc[k] + p if sign > 0 else acc[k] - p
    return HybridQuaternion(acc)


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


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(surd_hqs, surd_hqs)
def test_surd_products_match_both_expansions(x, y):
    product = x * y
    assert product == _hybrid_unit_expansion(x, y)
    assert product == _quaternion_unit_expansion(x, y)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(surd_hqs, surd_hqs)
def test_surd_products_keep_the_table_loops_scalar_types(x, y):
    # a coefficient is a QuadExt only where a pair with a surd factor
    # reaches it, else a Fraction: repr shows the difference, hash does not
    product, expected = x * y, _table_loop(x, y)
    assert repr(product) == repr(expected)
    assert hash(product) == hash(expected)


@pytest.mark.parametrize(
    "x, y, expected",
    [
        (
            Hybrid(QuadExt(1, 2, 5), 0, 0, 0),
            Hybrid(0, Fraction(1, 2), 0, 0),
            "Hybrid(a=Fraction(0, 1), b=QuadExt(Fraction(1, 2), Fraction(1, 1), 5), "
            "c=Fraction(0, 1), d=Fraction(0, 1))",
        ),
        (
            Quaternion(0, 0, QuadExt(1, 2, 5), 0),
            Quaternion(0, Fraction(1, 2), 0, 0),
            "Quaternion(z0=Fraction(0, 1), z1=Fraction(0, 1), z2=Fraction(0, 1), "
            "z3=QuadExt(Fraction(-1, 2), Fraction(-1, 1), 5))",
        ),
    ],
)
def test_4dim_mixed_products_print_a_fraction_where_no_pair_reaches(x, y, expected):
    # the table loop over scalars: a coefficient that no pair reaches is
    # Fraction(0), never an int 0 and never a QuadExt with zero parts
    assert repr(x * y) == expected


_DENSE_SURD = HybridQuaternion(tuple(QuadExt(k - 7, 3 - k % 5, 5) for k in range(16)))
_SURD_SCALAR = HybridQuaternion.from_scalar(QuadExt(1, 2, 5))


def _embedding_operands():
    q = QuadExt(1, 2, 5)
    return _all_units() + [
        _SURD_SCALAR,
        HybridQuaternion.from_scalar(Fraction(3, 2)),
        HybridQuaternion.from_hybrid(Hybrid(q, 0, Fraction(1, 2), q.conjugate())),
        HybridQuaternion.from_hybrid(Hybrid(1, -2, 3, 4)),
        HybridQuaternion.from_quaternion(Quaternion(0, q, 2, QuadExt(0, 0, 5))),
        HybridQuaternion.from_quaternion(Quaternion(1, 2, 3, 4)),
        HybridQuaternion(tuple(QuadExt(k, 0, 5) for k in range(1, 17))),
        _DENSE_SURD,
    ]


def test_unit_and_embedding_products_keep_the_table_loops_repr_and_hash():
    # unit("1", "eps") times a dense Q(sqrt 5) value and from_scalar(q)
    # squared are where a product in M2(H) leaves zero QuadExts behind
    for x in _embedding_operands():
        for y in (_DENSE_SURD, x, _SURD_SCALAR):
            for a, b in ((x, y), (y, x)):
                product, expected = a * b, _table_loop(a, b)
                assert repr(product) == repr(expected), (a, b)
                assert hash(product) == hash(expected)


def test_dense_surd_product_makes_at_most_144_quadext_multiplies(monkeypatch):
    # 8 Hamilton products of 16 multiplies and 16 halvings; the table
    # loop makes one multiply per pair, 256
    x = _DENSE_SURD
    y = HybridQuaternion(tuple(QuadExt(2 * k + 1, k - 9, 5) for k in range(16)))
    expected = _table_loop(x, y)
    calls = []
    multiply = QuadExt.__mul__

    def counting(a, b):
        calls.append(1)
        return multiply(a, b)

    monkeypatch.setattr(QuadExt, "__mul__", counting)
    monkeypatch.setattr(QuadExt, "__rmul__", counting)
    product = x * y
    assert len(calls) <= 144
    assert product == expected


# operands of the M2(H) kernel's int route, every coefficient nonzero: ints up
# to 10**40 of both signs, or Fractions whose 16 denominators all differ
big_ints = st.integers(min_value=-(10**40), max_value=10**40).filter(bool)
unequal_fractions = st.fractions(max_denominator=10**6).filter(lambda f: f.denominator > 1)
dense_hqs = st.one_of(
    st.lists(big_ints, min_size=16, max_size=16),
    st.lists(unequal_fractions, min_size=16, max_size=16, unique_by=lambda f: f.denominator),
).map(lambda cs: HybridQuaternion(tuple(cs)))


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(dense_hqs, dense_hqs)
def test_dense_products_keep_the_table_loops_and_both_expansions_repr_and_hash(x, y):
    product = x * y
    for expand in (_table_loop, _hybrid_unit_expansion, _quaternion_unit_expansion):
        expected = expand(x, y)
        assert repr(product) == repr(expected), expand.__name__
        assert hash(product) == hash(expected)


def test_a_dense_rational_product_skips_the_table_loop_and_a_unit_product_takes_it(monkeypatch):
    calls = []
    loop = Element._product

    def counted(self, x, y):
        calls.append(1)
        return loop(self, x, y)

    monkeypatch.setattr(Element, "_product", counted)
    ints = HybridQuaternion(range(1, 17))
    fractions = HybridQuaternion([Fraction(k, k + 1) for k in range(1, 17)])
    for x, y in ((ints, ints), (fractions, ints), (fractions, fractions)):
        assert x * y == _table_loop(x, y)
    assert calls == []
    unit = HybridQuaternion.unit("j", "eps")
    assert unit * ints == _table_loop(unit, ints)
    assert calls == [1]


def test_table_is_the_sparse_kronecker_product_of_the_two_unit_tables():
    # e_(4s+t) * e_(4u+v) = (u_s u_u) x (v_t v_v): coordinate 4r+m is the
    # product of the quaternion coordinate r and the hybrid coordinate m
    kron = [
        [
            [qc * hc for qc in quaternion.UNIT_PRODUCTS[s][u] for hc in hybrid.UNIT_PRODUCTS[t][v]]
            for u in range(4)
            for v in range(4)
        ]
        for s in range(4)
        for t in range(4)
    ]
    sparse = tuple(
        tuple(tuple((k, c) for k, c in enumerate(vec) if c) for vec in row) for row in kron
    )
    assert HybridQuaternion._TABLE == sparse


def test_construction_reads_a_generator_only_up_to_the_first_foreign_surd():
    read = []
    values = [QuadExt(0, 1, 5), 1, QuadExt(1, 2, 5), QuadExt(0, 1, 2), QuadExt(0, 1, 3)] + [0] * 11

    def fields():
        for k, value in enumerate(values):
            read.append(k)
            yield value

    message = "sqrt(5) and sqrt(2) do not live in a common quadratic field"
    with pytest.raises(MixedDiscriminant, match=re.escape(message)):
        HybridQuaternion(fields())
    assert read == [0, 1, 2, 3]


def test_power():
    x = HybridQuaternion.unit("i", "hi")
    assert x ** 0 == HybridQuaternion.from_scalar(1)
    assert x ** 2 == x * x
    assert x ** 5 == x * x * x * x * x
    with pytest.raises(ValueError):
        x ** -1
    with pytest.raises(
        TypeError,
        match=re.escape("unsupported operand type(s) for ** or pow(): 'HybridQuaternion' and 'float'"),
    ):
        x ** 1.5


def test_hq_mul_takes_two_hybrid_quaternions():
    with pytest.raises(TypeError, match="^hq_mul expects two HybridQuaternion values$"):
        hq_mul(HybridQuaternion.unit("i", "hi"), 2)


def test_power_squares_only_up_to_the_top_bit(monkeypatch):
    # 141 = 0b10001101, read left to right: seven squarings, one per bit
    # after the top one, and a multiply by x itself at each of the three 1
    # bits among them; the top bit is x, so no multiply by one is made
    x = HybridQuaternion(tuple(range(1, 17)))
    expected = x
    for _ in range(140):
        expected = expected * x
    squarings, multiplies = [], []
    product = HybridQuaternion.__mul__

    def counting(a, b):
        (squarings if a is b else multiplies).append(b)
        return product(a, b)

    monkeypatch.setattr(HybridQuaternion, "__mul__", counting)
    assert x ** 141 == expected
    assert (len(squarings), len(multiplies)) == (7, 3)
    assert squarings[0] is x
    assert all(b is x for b in multiplies)


def _right_to_left_power(x, e):
    """x ** e by squaring x up and multiplying the set bits' powers into one."""
    result = HybridQuaternion.from_scalar(1)
    while e:
        if e & 1:
            result = result * x
        e >>= 1
        if e:
            x = x * x
    return result


# int values, dense or as sparse as a unit, and Fraction values
int_hqs = st.lists(
    st.one_of(st.integers(-3, 3), st.sampled_from([0, 0, 0, 1, -1])), min_size=16, max_size=16
).map(lambda cs: HybridQuaternion(tuple(cs)))


@hypothesis.settings(deadline=None, max_examples=60)
@hypothesis.given(st.one_of(int_hqs, hqs), st.integers(0, 20))
def test_rational_power_matches_a_right_to_left_power(x, e):
    assert repr(x ** e) == repr(_right_to_left_power(x, e))


@hypothesis.settings(deadline=None, max_examples=40)
@hypothesis.given(surd_hqs, st.integers(0, 12))
def test_surd_power_matches_a_right_to_left_power(x, e):
    # a zero coefficient may be Fraction(0) or a zero QuadExt, by the order
    # of the products, so repr is not compared
    got, want = x ** e, _right_to_left_power(x, e)
    assert (got == want, hash(got), str(got)) == (True, hash(want), str(want))


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


@pytest.mark.parametrize("k", [0, 5, 15])
def test_one_surd_cell_makes_a_rational_value_unequal(k):
    # the rational side meets the QuadExt side in either order, in each algebra
    makers = ((HybridQuaternion, 16), (lambda c: Hybrid(*c), 4), (lambda c: Quaternion(*c), 4))
    for make, size in makers:
        x = make(tuple(Fraction(m - 5, m + 1) for m in range(size)))
        cells = [QuadExt(c, 0, 5) for c in x.components()]
        same = make(tuple(cells))
        cells[k % size] = QuadExt(cells[k % size].rat_part, Fraction(-1, 3), 5)
        other = make(tuple(cells))
        assert (x == same, same == x, x != same, same != x) == (True, True, False, False)
        assert hash(x) == hash(same)
        assert (x == other, other == x, x != other, other != x) == (False, False, True, True)


def test_a_rational_value_meets_quadext_cells_by_cross_multiplying():
    # the rational side is ints over one denominator (here 6); the other side
    # mixes Fraction and surd-free QuadExt cells over their own denominators
    x = HybridQuaternion((Fraction(1, 2), Fraction(-1, 3)) + (0,) * 14)
    assert x._den == 6
    same = HybridQuaternion((Fraction(1, 2), QuadExt(Fraction(-1, 3), 0, 5)) + (0,) * 14)
    # numerators 3 and -2 equal x's ints, but over denominators 1 and 1, not 6
    ints = HybridQuaternion((QuadExt(3, 0, 5), Fraction(-2)) + (0,) * 14)
    surd = HybridQuaternion((QuadExt(Fraction(1, 2), 1, 5), Fraction(-1, 3)) + (0,) * 14)
    zero_last = HybridQuaternion(same.coeffs[:15] + (QuadExt(0, 0, 5),))
    for other, equal in ((same, True), (zero_last, True), (ints, False), (surd, False)):
        assert other._den is None
        assert (x == other, other == x) == (equal, equal)
        assert (x != other, other != x) == (not equal, not equal)
        if equal:
            assert hash(x) == hash(other)


def test_embeddings_build_the_constructors_storage():
    # the int-level embeddings give the very storage the 16-coefficient
    # constructor does, for rational and Q(sqrt 5) values alike
    q = QuadExt(1, 2, 5)
    zero = Fraction(0)
    for s in (0, -3, Fraction(6, 4), True, q, QuadExt(2, 0, 5)):
        got, want = HybridQuaternion.from_scalar(s), HybridQuaternion((s,) + (0,) * 15)
        assert (got._num, got._den, repr(got)) == (want._num, want._den, repr(want)), s
    for c in ((2, -4, 6, 8), (Fraction(1, 2), 0, Fraction(-3, 4), 5), (q, 0, zero, 1)):
        got, want = HybridQuaternion.from_hybrid(Hybrid(*c)), HybridQuaternion(c + (0,) * 12)
        assert (got._num, got._den, repr(got)) == (want._num, want._den, repr(want)), c
        got = HybridQuaternion.from_quaternion(Quaternion(*c))
        want = HybridQuaternion(tuple(v for a in c for v in (a, 0, 0, 0)))
        assert (got._num, got._den, repr(got)) == (want._num, want._den, repr(want)), c


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
    # one lookup serves the parser and unit(); the parser names the term
    with pytest.raises(ValueError, match=re.escape("unknown unit pair 'x', '1' in '3*x*1'")):
        parse_hybrid_quaternion("3*x*1")
    with pytest.raises(ValueError, match=re.escape("unknown unit pair 'x', '1'") + "$"):
        HybridQuaternion.unit("x", "1")
    # an unhashable name is unknown like any other
    with pytest.raises(ValueError, match=re.escape("unknown unit pair ['i'], '1'") + "$"):
        HybridQuaternion.unit(["i"], "1")
    with pytest.raises(ValueError):
        parse_hybrid_quaternion("3*hi")
    with pytest.raises(ValueError):
        parse_hybrid_quaternion("1/0*i*hi")
    coeffs = [0] * 16
    coeffs[5], coeffs[15] = QuadExt(1, 2, 5), QuadExt(0, -3, 5)
    assert parse_hybrid_quaternion(
        "(1 + 2*sqrt(5))*i*hi - 3 * sqrt(5) * k * hh"
    ) == HybridQuaternion(coeffs)


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
    root5, root2 = QuadExt(0, 1, 5), QuadExt(0, 1, 2)
    mixed = "sqrt(5) and sqrt(2) do not live in a common quadratic field"
    bad_float = "HybridQuaternion coefficient c_1_eps of bad type float"
    cases = [
        # one fault each
        ((1, 2, 3), ValueError, "need 16 coefficients, got 3"),
        ((0,) * 17, ValueError, "need 16 coefficients, got 17"),
        ((0, 0, 1.5) + (0,) * 13, TypeError, bad_float),
        ((root5, 0, 0, root2) + (0,) * 12, MixedDiscriminant, mixed),
        # two faults: the earlier item's is reported
        ((root5, 0, 1.5, root2) + (0,) * 12, TypeError, bad_float),
        ((root5, root2, 1.5) + (0,) * 13, MixedDiscriminant, mixed),
        # a count fault is reported once every item with a field passed
        ((root5, root2), MixedDiscriminant, mixed),
        ((0, 0, 1.5) + (0,) * 14, TypeError, bad_float),
        ((0,) * 16 + (1.5,), ValueError, "need 16 coefficients, got 17"),
    ]
    for coeffs, error, message in cases:
        with pytest.raises(error, match=re.escape(message)):
            HybridQuaternion(coeffs)


def test_construction_makes_no_abc_instance_check(monkeypatch):
    # Fraction's metaclass is ABCMeta: isinstance(v, Fraction) runs its
    # __instancecheck__ for any v that is not exactly a Fraction
    root5 = QuadExt(1, 2, 5)
    scalars = [
        [3, -1, 0, 7],
        [Fraction(1, 2), Fraction(-3, 4), Fraction(0), Fraction(5)],
        [root5, QuadExt(0, 1, 5), QuadExt(Fraction(1, 3), 0, 5), root5.conjugate()],
        [root5, 2, Fraction(1, 2), 0],
    ]
    calls = []
    instancecheck = abc.ABCMeta.__instancecheck__

    def counted(cls, instance):
        calls.append((cls.__name__, type(instance).__name__))
        return instancecheck(cls, instance)

    monkeypatch.setattr(abc.ABCMeta, "__instancecheck__", counted)
    for four in scalars:
        HybridQuaternion(four * 4)
        Hybrid(*four)
        Quaternion(*four)
    built = list(calls)
    calls.clear()
    isinstance(1, Fraction)  # the patch does see a check
    monkeypatch.undo()
    assert built == []
    assert calls == [("Fraction", "int")]


# int-stored values of the three algebras: numerators with zeros and signs over
# one drawn denominator, so most values keep a denominator above 1
_ALGEBRAS = {Hybrid: lambda cs: Hybrid(*cs), Quaternion: lambda cs: Quaternion(*cs),
             HybridQuaternion: HybridQuaternion}


@st.composite
def int_stored(draw):
    cls = draw(st.sampled_from(list(_ALGEBRAS)))
    width = len(cls._FIELDS)
    cell = st.one_of(st.just(0), st.integers(-(10**30), 10**30))
    nums = draw(st.one_of(st.just([0] * width), st.lists(cell, min_size=width, max_size=width)))
    den = draw(st.integers(1, 10**12))
    return _ALGEBRAS[cls]([Fraction(n, den) for n in nums])


@hypothesis.settings(deadline=None, max_examples=300)
@hypothesis.given(int_stored())
def test_str_of_int_storage_is_the_text_of_its_fractions(x):
    assert isinstance(x._den, int)
    assert str(x) == render_terms(zip(x.components(), x._UNITS))


def test_str_of_int_storage_covers_every_cell_shape():
    x = HybridQuaternion([0, Fraction(-3, 6), 2, Fraction(5, 3)] + [0] * 11 + [Fraction(-7, 2)])
    assert x._den == 6
    assert str(x) == "-1/2*1*hi + 2*1*eps + 5/3*1*hh - 7/2*k*hh"
    assert str(Hybrid(Fraction(-1, 4), 0, 0, 1)) == "-1/4 + 1*hh"
    assert str(Quaternion(0, 0, Fraction(2, 4), 0)) == "1/2*j"
    for cls, build in _ALGEBRAS.items():
        assert str(build([0] * len(cls._FIELDS))) == "0"


def test_str_of_numerators_past_the_int_digit_limit():
    big = 10**4400 + 1  # odd, so it stays over 2
    x = HybridQuaternion([Fraction(big, 2), 0, Fraction(-3, 2)] + [0] * 13)
    with unlimited_digits():
        assert str(x) == f"{big}/2*1*1 - 3/2*1*eps"
        assert str(x) == render_terms(zip(x.components(), x._UNITS))
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python has no int digit limit")
    with pytest.raises(ValueError) as fraction_error:
        str(Fraction(big, 2))
    with pytest.raises(ValueError) as element_error:
        str(x)
    assert str(element_error.value) == str(fraction_error.value)


def test_str_of_int_storage_builds_no_fraction(monkeypatch):
    values = [
        HybridQuaternion([Fraction(n, 6) for n in range(-8, 8)]),
        Hybrid(Fraction(1, 2), -3, 0, Fraction(7, 4)),
        Quaternion(0, Fraction(-5, 9), 2, 0),
    ]
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    texts = [str(x) for x in values]
    rendered = list(built)
    Fraction(1, 3)  # the patch does see a Fraction built
    monkeypatch.undo()
    assert rendered == []
    assert built == [(1, 3)]
    assert texts[1] == "1/2 - 3*hi + 7/4*hh"
