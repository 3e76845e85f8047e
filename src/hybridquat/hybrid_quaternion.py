"""The 16-dimensional algebra of hybrid quaternions.

An element has 16 coefficients on the product basis
{1, i, j, k} x {1, hi, eps, hh}, flat index 4*s + t for quaternion unit
s and hybrid unit t, in the canonical order

    (1,1), (1,hi), (1,eps), (1,hh), (i,1), ..., (k,hh).

Quaternion units commute with hybrid units, so the product of two basis
elements factors as (u_s * u_t) x (v_a * v_b): the 256-entry structure
table is the tensor product of the two 4-dimensional unit tables, built
from their integer entries at import, and storage and arithmetic are
those of ``algebra.Element``.  The two 4-coefficient presentations (four
hybrid coefficients on the quaternion units, four quaternion
coefficients on the hybrid units) are views over the same coefficients.
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

_QIDX = {name: s for s, name in enumerate(QUAT_UNITS)}
_HIDX = {name: t for t, name in enumerate(HYBRID_UNITS)}


def _tensor(left, right) -> tuple:
    """The structure table of the tensor product of two 4-dimensional
    algebras whose units commute: e_(4s+a) * e_(4t+b) = (u_s u_t) x (v_a v_b).
    Signs of +1 or -1 in both tables give signs of +1 or -1 here."""
    return tuple(
        tuple(
            tuple((4 * r + m, x * y) for r, x in left[s][t] for m, y in right[a][b])
            for t in range(4)
            for b in range(4)
        )
        for s in range(4)
        for a in range(4)
    )


class HybridQuaternion(Element):
    __slots__ = ()
    _FIELDS = COLUMN_NAMES
    _UNITS = tuple(f"{u}*{v}" for u, v in CANONICAL_PAIRS)
    _TABLE = _tensor(Quaternion._TABLE, Hybrid._TABLE)

    coeffs = property(lambda self: self.components(), doc="the 16 coefficients")

    def __repr__(self):
        return f"HybridQuaternion(coeffs={self.coeffs!r})"

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_hybrid(cls, z: Hybrid) -> "HybridQuaternion":
        """Embed z on the quaternion-scalar row: 1 x z."""
        return cls(z.components() + (0,) * 12)

    @classmethod
    def from_quaternion(cls, q: Quaternion) -> "HybridQuaternion":
        """Embed q on the hybrid-scalar column: q x 1."""
        zero = Quaternion.zero()
        return cls.from_hybrid_basis(q, zero, zero, zero)

    @classmethod
    def from_quaternion_basis(cls, h0: Hybrid, h1: Hybrid, h2: Hybrid, h3: Hybrid):
        """Assemble from four hybrid coefficients of 1, i, j, k."""
        coeffs = []
        for h in (h0, h1, h2, h3):
            coeffs.extend(h.components())
        return cls(coeffs)

    @classmethod
    def from_hybrid_basis(cls, q0: Quaternion, q1: Quaternion, q2: Quaternion, q3: Quaternion):
        """Assemble from four quaternion coefficients of 1, hi, eps, hh."""
        coeffs = [0] * 16
        for t, q in enumerate((q0, q1, q2, q3)):
            for s, value in enumerate(q.components()):
                coeffs[4 * s + t] = value
        return cls(coeffs)

    @classmethod
    def unit(cls, u: str, v: str) -> "HybridQuaternion":
        coeffs = [0] * 16
        coeffs[4 * _QIDX[u] + _HIDX[v]] = 1
        return cls(coeffs)

    # -- decompositions ---------------------------------------------------

    def as_quaternion_basis(self) -> tuple:
        """The four hybrid coefficients of 1, i, j, k."""
        c = self.coeffs
        return tuple(Hybrid(*c[4 * s : 4 * s + 4]) for s in range(4))

    def as_hybrid_basis(self) -> tuple:
        """The four quaternion coefficients of 1, hi, eps, hh."""
        c = self.coeffs
        return tuple(Quaternion(*(c[4 * s + t] for s in range(4))) for t in range(4))

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
    acc = Hybrid.zero()
    for a, b in zip(u, v):
        acc = acc + a * b
    return acc


def hq_cross(u: tuple, v: tuple) -> tuple:
    """Hybrid cross product; within each term the u factor stays left."""
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


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
        if u not in _QIDX or v not in _HIDX:
            raise ValueError(f"unknown unit pair {u!r}, {v!r} in {body!r}")
        value = parse_scalar(coeff)
        flat = 4 * _QIDX[u] + _HIDX[v]
        coeffs[flat] = coeffs[flat] + sign * value
    return HybridQuaternion(coeffs)
