"""The 16-dimensional algebra of hybrid quaternions.

An element has 16 coefficients on the product basis
{1, i, j, k} x {1, hi, eps, hh}, flat index 4*s + t for quaternion unit
s and hybrid unit t, in the canonical order

    (1,1), (1,hi), (1,eps), (1,hh), (i,1), ..., (k,hh).

Quaternion units commute with hybrid units, and hi, eps and hh act as
the real 2x2 matrices [[0, 1], [-1, 0]], [[1, -1], [1, -1]] and
[[0, 1], [1, 0]] (Ozdemir, Adv. Appl. Clifford Algebras 28, 2018), so
a hybrid quaternion is a 2x2 matrix of quaternions, M2(H), and a dense
product is 8 Hamilton products: 128 scalar multiplies, where the table
loop of ``algebra.Element`` over the tensor product of the two unit
tables takes up to 256; it serves sparse operands.  One kernel serves ints
and scalars: each block of the matrix product is two Hamilton products
summed in one expression per coefficient (``_hamilton2``).  Storage is Element's.
The two 4-coefficient presentations (hybrid coefficients of 1, i, j, k
and quaternion coefficients of 1, hi, eps, hh) view the same values.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import Element
from .hybrid import Hybrid
from .quaternion import Quaternion
from .scalars import parse_scalar, power, split_terms

QUAT_UNITS = ("1", "i", "j", "k")
HYBRID_UNITS = ("1", "hi", "eps", "hh")

CANONICAL_PAIRS = tuple((u, v) for u in QUAT_UNITS for v in HYBRID_UNITS)
COLUMN_NAMES = tuple(f"c_{u}_{v}" for u, v in CANONICAL_PAIRS)

_HALF = Fraction(1, 2)


def _unit_index(u: str, v: str, where: str = "") -> int:
    """The coefficient index of the unit pair u*v; where ends the error message."""
    if (u, v) not in CANONICAL_PAIRS:
        raise ValueError(f"unknown unit pair {u!r}, {v!r}{where}")
    return CANONICAL_PAIRS.index((u, v))


def _hamilton2(p, q, r, s) -> tuple:
    """p*q + r*s for quaternion coefficient 4-tuples: two Hamilton products, summed."""
    (p0, p1, p2, p3), (q0, q1, q2, q3), (r0, r1, r2, r3), (s0, s1, s2, s3) = p, q, r, s
    return (
        p0 * q0 - p1 * q1 - p2 * q2 - p3 * q3 + r0 * s0 - r1 * s1 - r2 * s2 - r3 * s3,
        p0 * q1 + p1 * q0 + p2 * q3 - p3 * q2 + r0 * s1 + r1 * s0 + r2 * s3 - r3 * s2,
        p0 * q2 - p1 * q3 + p2 * q0 + p3 * q1 + r0 * s2 - r1 * s3 + r2 * s0 + r3 * s1,
        p0 * q3 + p1 * q2 - p2 * q1 + p3 * q0 + r0 * s3 + r1 * s2 - r2 * s1 + r3 * s0,
    )


def _matrix(x) -> tuple:
    """m00, m01, m10, m11 of x in M2(H): a + c, b - c + d, c + d - b and
    a - c for a, b, c, d the quaternion coefficients of 1, hi, eps, hh."""
    a0, b0, c0, d0, a1, b1, c1, d1, a2, b2, c2, d2, a3, b3, c3, d3 = x
    return ((a0 + c0, a1 + c1, a2 + c2, a3 + c3),
            (b0 - c0 + d0, b1 - c1 + d1, b2 - c2 + d2, b3 - c3 + d3),
            (c0 + d0 - b0, c1 + d1 - b1, c2 + d2 - b2, c3 + d3 - b3),
            (a0 - c0, a1 - c1, a2 - c2, a3 - c3))


class HybridQuaternion(Element):
    __slots__ = ()
    _FIELDS = COLUMN_NAMES
    _UNITS = tuple(f"{u}*{v}" for u, v in CANONICAL_PAIRS)
    # e_(4a+b) * e_(4c+d) = (u_a u_c) x (v_b v_d): with u_a u_c = s*u_r, the
    # pairs (4r + m, s*h) for the terms h*v_m of v_b v_d, in the hybrid table's order
    _TABLE = tuple(
        tuple(tuple((4 * r + m, s * h) for m, h in hs) for ((r, s),) in qrow for hs in hrow)
        for qrow in Quaternion._TABLE
        for hrow in Hybrid._TABLE
    )

    coeffs = property(lambda self: self.components(), doc="the 16 coefficients")

    def __repr__(self):
        return f"HybridQuaternion(coeffs={self.coeffs!r})"

    def _product(self, x, y) -> tuple:
        """Coefficients of x*y over ints or over scalars (never an int): x[0] tells.

        The table loop takes ints with at most 32 nonzero pairs (a unit has 16):
        for ints in +-1000 it takes 3.2-4.1 us at 16 pairs, 5.7-7.4 at 32 and
        7.8-8.4 at 48, against the kernel's 6.1-6.9, so they cross at 32-48 pairs.
        It takes scalars unless all are nonzero QuadExts of one D, so a Fraction
        stays where no surd pair reaches (not 0*sqrt(D))."""
        ints = x[0].__class__ is int
        if ints:
            dense = (16 - x.count(0)) * (16 - y.count(0)) > 32
        else:
            d = getattr(x[0], "discriminant", 0)
            dense = d and all(v and getattr(v, "discriminant", 0) == d for v in x + y)
        if not dense:
            return super()._product(x, y)
        (x00, x01, x10, x11), (y00, y01, y10, y11) = _matrix(x), _matrix(y)
        # blocks z00, z01, z10, z11 as p, q, r, s; at quaternion unit u, 2a = p + s,
        # 2c = p - s, 2b = 2c + q - r and 2d = q + r for a, b, c, d as in _matrix
        (p0, p1, p2, p3), (q0, q1, q2, q3), (r0, r1, r2, r3), (s0, s1, s2, s3) = (
            _hamilton2(x00, y00, x01, y10), _hamilton2(x00, y01, x01, y11),
            _hamilton2(x10, y00, x11, y10), _hamilton2(x10, y01, x11, y11))
        c0, c1, c2, c3 = p0 - s0, p1 - s1, p2 - s2, p3 - s3
        out = (p0 + s0, c0 + q0 - r0, c0, q0 + r0, p1 + s1, c1 + q1 - r1, c1, q1 + r1,
               p2 + s2, c2 + q2 - r2, c2, q2 + r2, p3 + s3, c3 + q3 - r3, c3, q3 + r3)
        return tuple([v >> 1 for v in out] if ints else [v * _HALF for v in out])

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_hybrid(cls, z: Hybrid) -> "HybridQuaternion":
        """Embed z on the quaternion-scalar row: 1 x z."""
        num = z._num + (0,) * 12
        return cls._new(num, z._den) if z._den else cls(num)

    @classmethod
    def from_quaternion(cls, q: Quaternion) -> "HybridQuaternion":
        """Embed q on the hybrid-scalar column: q x 1."""
        num = tuple(v for c in q._num for v in (c, 0, 0, 0))
        return cls._new(num, q._den) if q._den else cls(num)

    @classmethod
    def from_quaternion_basis(cls, h0: Hybrid, h1: Hybrid, h2: Hybrid, h3: Hybrid):
        """Assemble from four hybrid coefficients of 1, i, j, k."""
        return cls([v for h in (h0, h1, h2, h3) for v in h.components()])

    @classmethod
    def from_hybrid_basis(cls, q0: Quaternion, q1: Quaternion, q2: Quaternion, q3: Quaternion):
        """Assemble from four quaternion coefficients of 1, hi, eps, hh."""
        rows = zip(*(q.components() for q in (q0, q1, q2, q3)))
        return cls([v for row in rows for v in row])

    @classmethod
    def unit(cls, u: str, v: str) -> "HybridQuaternion":
        coeffs = [0] * 16
        coeffs[_unit_index(u, v)] = 1
        return cls(coeffs)

    # -- decompositions ---------------------------------------------------

    def as_quaternion_basis(self) -> tuple:
        """The four hybrid coefficients of 1, i, j, k."""
        c = self.coeffs
        return tuple(Hybrid(*c[4 * s : 4 * s + 4]) for s in range(4))

    def as_hybrid_basis(self) -> tuple:
        """The four quaternion coefficients of 1, hi, eps, hh."""
        c = self.coeffs
        return tuple(Quaternion(*c[t::4]) for t in range(4))

    # -- powers -----------------------------------------------------------

    def __pow__(self, exponent: int) -> "HybridQuaternion":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            raise ValueError("the algebra has zero divisors; no negative powers")
        return power(self, exponent, HybridQuaternion.from_scalar(1))

    # -- conjugates ---------------------------------------------------------

    def conj_quaternion(self) -> "HybridQuaternion":
        """Negate every coefficient with quaternion unit i, j or k."""
        return self._negated(range(4, 16))

    def conj_hybrid(self) -> "HybridQuaternion":
        """Negate every coefficient with hybrid unit hi, eps or hh."""
        return self._negated([flat for flat in range(16) if flat % 4])

    def conj_total(self) -> "HybridQuaternion":
        """Negate coefficients where exactly one unit factor is non-trivial."""
        return self.conj_quaternion().conj_hybrid()


# -- scalar / vector presentation -----------------------------------------


def scalar_vector_form(x: HybridQuaternion) -> tuple:
    """(S, (V1, V2, V3)): the hybrid coefficients of 1 and of i, j, k."""
    h0, h1, h2, h3 = x.as_quaternion_basis()
    return h0, (h1, h2, h3)


def hq_dot(u: tuple, v: tuple) -> Hybrid:
    """Sum of componentwise hybrid products, left factors from u."""
    return sum((a * b for a, b in zip(u, v)), Hybrid.zero())


def hq_cross(u: tuple, v: tuple) -> tuple:
    """Hybrid cross product; within each term the u factor stays left."""
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def mul_via_scalar_vector(x: HybridQuaternion, y: HybridQuaternion) -> HybridQuaternion:
    """Product through the scalar/vector presentation.

    xy = S_x S_y - <V_x, V_y> + S_x V_y + V_x S_y + V_x x V_y, with every
    hybrid product keeping the x-side factor on the left (hybrid
    coefficients do not commute, so the order is part of the formula).
    """
    sx, vx = scalar_vector_form(x)
    sy, vy = scalar_vector_form(y)
    scalar = sx * sy - hq_dot(vx, vy)
    cross = hq_cross(vx, vy)
    vector = tuple(sx * vy[i] + vx[i] * sy + cross[i] for i in range(3))
    return HybridQuaternion.from_quaternion_basis(scalar, *vector)


def hq_mul(x: HybridQuaternion, y: HybridQuaternion) -> HybridQuaternion:
    if not isinstance(x, HybridQuaternion) or not isinstance(y, HybridQuaternion):
        raise TypeError("hq_mul expects two HybridQuaternion values")
    return x * y


# -- parsing ---------------------------------------------------------------


def parse_hybrid_quaternion(text: str) -> HybridQuaternion:
    """Parse the canonical 16-term rendering "coeff*u*v + ...".

    Every term names its quaternion and hybrid unit explicitly, including
    the trivial ones ("5*1*1", "3*1*hi").  Repeated terms accumulate.
    """
    coeffs = [Fraction(0)] * 16
    for sign, body in split_terms(text):
        if body == "0":
            continue
        # unit names hold no "*", so the last two factors are the units
        factors = [f.strip() for f in body.rsplit("*", 2)]
        if len(factors) < 3:
            raise ValueError(f"term {body!r} lacks coeff*u*v form")
        coeff, u, v = factors
        coeffs[_unit_index(u, v, f" in {body!r}")] += sign * parse_scalar(coeff)
    return HybridQuaternion(coeffs)
