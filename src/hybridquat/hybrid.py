"""Hybrid numbers a + b*hi + c*eps + d*hh over an exact scalar ring.

The three non-real units satisfy hi**2 = -1, eps**2 = 0, hh**2 = 1 and
hi*hh = -hh*hi = eps + hi, which forces the full unit product table

          hi          eps        hh
    hi    -1          1 - hh     eps + hi
    eps   1 + hh      0          -eps
    hh    -eps - hi   eps        1

The ring is associative but not commutative.  Coefficients live in one
scalar ring per value (Rational or a single Q(sqrt(D))); storage and
arithmetic are those of ``algebra.Element``, driven by the table above.
"""

from __future__ import annotations

from .algebra import Element, structure

# coordinates of e_i * e_j on (1, hi, eps, hh), row i times column j
UNIT_PRODUCTS = (
    ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    ((0, 1, 0, 0), (-1, 0, 0, 0), (1, 0, 0, -1), (0, 1, 1, 0)),
    ((0, 0, 1, 0), (1, 0, 0, 1), (0, 0, 0, 0), (0, 0, -1, 0)),
    ((0, 0, 0, 1), (0, -1, -1, 0), (0, 0, 1, 0), (1, 0, 0, 0)),
)


class Hybrid(Element):
    __slots__ = ()
    _FIELDS = ("a", "b", "c", "d")
    _UNITS = ("", "hi", "eps", "hh")
    _TABLE = structure(UNIT_PRODUCTS)

    def __init__(self, a, b, c, d):
        super().__init__((a, b, c, d))

    a = property(lambda self: self.components()[0], doc="real part")
    b = property(lambda self: self.components()[1], doc="hi part")
    c = property(lambda self: self.components()[2], doc="eps part")
    d = property(lambda self: self.components()[3], doc="hh part")

    def conj(self) -> "Hybrid":
        return self._negated((1, 2, 3))

    def character(self):
        """The signed scalar z * conj(z) = a^2 + (b - c)^2 - c^2 - d^2.

        This is the square of the usual norm when non-negative; no square
        root is taken so the result stays in the scalar ring.
        """
        a, b, c, d = self._num
        bc = b - c
        return self._quadratic(a * a + bc * bc - c * c - d * d)


ONE = Hybrid(1, 0, 0, 0)
HI = Hybrid(0, 1, 0, 0)
EPS = Hybrid(0, 0, 1, 0)
HH = Hybrid(0, 0, 0, 1)
