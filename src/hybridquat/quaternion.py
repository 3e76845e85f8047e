"""Hamilton quaternions z0 + z1*i + z2*j + z3*k over an exact scalar ring.

i*i = j*j = k*k = -1 and i*j = k, j*k = i, k*i = j, the units
anti-commuting; storage and arithmetic are those of ``algebra.Element``.
"""

from __future__ import annotations

from .algebra import Element, structure

# coordinates of e_i * e_j on (1, i, j, k), row i times column j
UNIT_PRODUCTS = (
    ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    ((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 1), (0, 0, -1, 0)),
    ((0, 0, 1, 0), (0, 0, 0, -1), (-1, 0, 0, 0), (0, 1, 0, 0)),
    ((0, 0, 0, 1), (0, 0, 1, 0), (0, -1, 0, 0), (-1, 0, 0, 0)),
)


class Quaternion(Element):
    __slots__ = ()
    _FIELDS = ("z0", "z1", "z2", "z3")
    _UNITS = ("", "i", "j", "k")
    _TABLE = structure(UNIT_PRODUCTS)

    def __init__(self, z0, z1, z2, z3):
        super().__init__((z0, z1, z2, z3))

    z0 = property(lambda self: self._coeff(0))
    z1 = property(lambda self: self._coeff(1))
    z2 = property(lambda self: self._coeff(2))
    z3 = property(lambda self: self._coeff(3))

    def conj(self) -> "Quaternion":
        return self._negated((1, 2, 3))

    def norm_sq(self):
        """z * conj(z) = z0^2 + z1^2 + z2^2 + z3^2, as a scalar."""
        a, b, c, d = self._num
        return self._quadratic(a * a + b * b + c * c + d * d)


QONE = Quaternion(1, 0, 0, 0)
I = Quaternion(0, 1, 0, 0)
J = Quaternion(0, 0, 1, 0)
K = Quaternion(0, 0, 0, 1)
