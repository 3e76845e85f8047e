"""One element class for the three algebras of the package.

An algebra is a basis and a signed structure table: ``_TABLE[i][j]``
lists the pairs ``(k, sign)`` with e_i * e_j = sum of sign * e_k, and
every sign is +1 or -1.  ``Hybrid``, ``Quaternion`` and
``HybridQuaternion`` subclass ``Element`` with their coefficient names,
their table and their own extras; sums, products, scaling, negation,
equality, hashing and rendering live here, and so does the one product
loop, which reads the table.

A value with only rational coefficients is held as integer numerators
over one positive common denominator, divided through by the gcd of all
of them, so sums and products run on ints and build no ``Fraction``; the
form is unique, so equality is a tuple compare.  A value with a
``QuadExt`` coefficient keeps its scalars as given (ints lifted to
``Fraction``).  The coefficients are read back as ``Fraction``/``QuadExt``
through ``components()``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, sub

from .scalars import QuadExt, common_discriminant


def structure(unit_products) -> tuple:
    """The signed structure table of a dense unit table.

    unit_products[i][j] holds the coordinates of e_i * e_j, each 0, 1 or -1.
    """
    return tuple(
        tuple(tuple((k, c) for k, c in enumerate(vec) if c) for vec in row)
        for row in unit_products
    )


class Element:
    # _den is a positive int when every coefficient is rational, and then
    # _num holds ints with gcd(*_num, _den) == 1; otherwise _den is None
    # and _num holds the scalar coefficients themselves.
    __slots__ = ("_num", "_den")

    _FIELDS: tuple = ()  # coefficient names, for repr and error messages
    _UNITS: tuple = ()  # the unit each coefficient is rendered with
    _TABLE: tuple = ()  # signed structure table, as ``structure`` builds it

    def __init_subclass__(cls):
        # bind the products in each algebra's own class dict, where the
        # benchmark's tracer times them per algebra
        cls.__mul__, cls.__rmul__ = cls.__mul__, cls.__rmul__

    def __init__(self, coeffs):
        values = tuple(coeffs)
        if len(values) != len(self._FIELDS):
            raise ValueError(f"need {len(self._FIELDS)} coefficients, got {len(values)}")
        den = 1
        rational = True
        for name, v in zip(self._FIELDS, values):
            if isinstance(v, Fraction):
                den = lcm(den, v.denominator)
            elif isinstance(v, QuadExt):
                rational = False
            elif not isinstance(v, int):
                kind = type(self).__name__
                raise TypeError(f"{kind} coefficient {name} of bad type {type(v).__name__}")
        if rational:
            # reduced fractions over the lcm of their denominators already
            # have content gcd 1
            self._num = tuple([v.numerator * (den // v.denominator) for v in values])
            self._den = den
        else:
            self._num = tuple([Fraction(v) if isinstance(v, int) else v for v in values])
            self._den = None
            common_discriminant(self._num)

    @classmethod
    def _from_values(cls, values):
        obj = object.__new__(cls)
        Element.__init__(obj, values)
        return obj

    @classmethod
    def _new(cls, num: tuple, den):
        obj = object.__new__(cls)
        obj._num = num
        obj._den = den
        return obj

    @classmethod
    def _reduced(cls, num: tuple, den: int):
        g = gcd(*num, den)
        if g != 1:
            num = tuple([n // g for n in num])
            den //= g
        return cls._new(num, den)

    @classmethod
    def zero(cls):
        return cls._from_values((0,) * len(cls._FIELDS))

    @classmethod
    def from_scalar(cls, s):
        return cls._from_values((s,) + (0,) * (len(cls._FIELDS) - 1))

    def _coeff(self, index: int):
        value = self._num[index]
        return value if self._den is None else Fraction(value, self._den)

    def components(self) -> tuple:
        if self._den is None:
            return self._num
        den = self._den
        return tuple([Fraction(n, den) for n in self._num])

    # -- additive structure ----------------------------------------------

    def _combine(self, other, op):
        """Coefficientwise op (add or sub) of two values of one algebra."""
        if not isinstance(other, self.__class__):
            return NotImplemented
        d, e = self._den, other._den
        if d and e:
            if d == e:
                return self._reduced(tuple(map(op, self._num, other._num)), d)
            return self._reduced(
                tuple(map(op, [x * e for x in self._num], [y * d for y in other._num])), d * e
            )
        return self._from_values(map(op, self.components(), other.components()))

    def __add__(self, other):
        return self._combine(other, add)

    def __sub__(self, other):
        return self._combine(other, sub)

    def __neg__(self):
        return self._new(tuple([-v for v in self._num]), self._den)

    def _negated(self, indices):
        """The value with the coefficients at `indices` negated."""
        num = list(self._num)
        for k in indices:
            num[k] = -num[k]
        return self._new(tuple(num), self._den)

    # -- multiplication ---------------------------------------------------

    def _product(self, x, y, zero) -> tuple:
        """Coefficients of x*y from those of x and y, in any scalar ring;
        zero coefficients are skipped."""
        acc = [zero] * len(x)
        table = self._TABLE
        for i, a in enumerate(x):
            if not a:
                continue
            row = table[i]
            for j, b in enumerate(y):
                if not b:
                    continue
                p = a * b
                # add or subtract p: forming sign * p would cost a product
                for k, sign in row[j]:
                    if sign > 0:
                        acc[k] += p
                    else:
                        acc[k] -= p
        return tuple(acc)

    def _scale(self, s):
        """self * s for a scalar s, which commutes with every element."""
        if not isinstance(s, (int, Fraction, QuadExt)):
            return NotImplemented
        if self._den and not isinstance(s, QuadExt):
            return self._reduced(
                tuple([v * s.numerator for v in self._num]), self._den * s.denominator
            )
        return self._from_values([v * s for v in self.components()])

    def __mul__(self, other):
        if isinstance(other, self.__class__):
            if self._den and other._den:
                product = self._product(self._num, other._num, 0)
                return self._reduced(product, self._den * other._den)
            return self._from_values(
                self._product(self.components(), other.components(), Fraction(0))
            )
        return self._scale(other)

    def __rmul__(self, other):
        # scalars commute with everything, so left scaling equals right scaling
        return self._scale(other)

    def _quadratic(self, value):
        """The scalar whose value is a quadratic form evaluated on _num."""
        return value if self._den is None else Fraction(value, self._den * self._den)

    # -- comparison and rendering ------------------------------------------

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self._den and other._den:
            return self._den == other._den and self._num == other._num
        return self.components() == other.components()

    def __hash__(self):
        return hash(self.components())

    def __bool__(self):
        return any(self._num)

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._FIELDS, self.components()))
        return f"{self.__class__.__qualname__}({fields})"

    def __str__(self):
        return render_terms(zip(self.components(), self._UNITS))


def render_coeff(value, unit: str) -> tuple[str, str]:
    """Render one term; returns (sign, body) with sign '+' or '-'."""
    if isinstance(value, QuadExt) and value.surd_part:
        if value.rat_part:
            # mixed coefficient keeps parentheses so the term stays one
            # factor; a bare scalar term needs none
            sign = "+"
            body = f"({value})" if unit else str(value)
        elif value.surd_part < 0:
            sign = "-"
            body = str(-value)
        else:
            sign = "+"
            body = str(value)
    else:
        rat = value.rat_part if isinstance(value, QuadExt) else value
        sign = "-" if rat < 0 else "+"
        body = str(abs(rat))
    if unit:
        body = f"{body}*{unit}"
    return sign, body


def render_terms(pairs) -> str:
    """Join (coefficient, unit) pairs, omitting zero terms."""
    out: list[str] = []
    for value, unit in pairs:
        if not value:
            continue
        sign, body = render_coeff(value, unit)
        if not out:
            out.append(body if sign == "+" else f"-{body}")
        else:
            out.append(f"{sign} {body}")
    return " ".join(out) if out else "0"
