"""One element class for the three algebras of the package.

An algebra is a basis and a signed structure table: ``_TABLE[i][j]``
lists the pairs ``(k, sign)`` with e_i * e_j = sum of sign * e_k, and
every sign is +1 or -1.  ``Hybrid``, ``Quaternion`` and
``HybridQuaternion`` subclass ``Element`` with their coefficient names
and their own extras; sums, products, scaling, negation, equality,
hashing and rendering live here.  So does the one table loop,
``_product``, which serves all three algebras through their tables;
``HybridQuaternion`` sends dense operands to a product in M2(H) instead.

A value with only rational coefficients is held as integer numerators
over one positive common denominator, divided through by the gcd of all
of them, so sums and products run on ints and build no ``Fraction``; the
form is unique, so equality is a tuple compare.  A value with a
``QuadExt`` coefficient keeps its scalars as given (ints lifted to
``Fraction``).  The coefficients are read back as ``Fraction``/``QuadExt``
through ``components()``; ``str`` writes int storage from its ints.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import add, sub

from .scalars import QuadExt, _over_one_denominator, render_ratio


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
        """Items are checked as they arrive: an item of bad type, or a surd
        outside the first surd's field, raises before later items are read; a
        wrong count raises once every item that has a field has passed."""
        items = iter(coeffs)
        values = []
        rational = True
        surd = None  # the first surd: each later one must lift into its field
        # QuadExt, int, then Fraction: an exact type match skips Fraction's ABCMeta check
        for name, v in zip(self._FIELDS, items):
            if isinstance(v, QuadExt):
                rational = False
                if v.surd_part:
                    if surd is None:
                        surd = v
                    surd._lift(v)
            elif not isinstance(v, (int, Fraction)):
                kind = type(self).__name__
                raise TypeError(f"{kind} coefficient {name} of bad type {type(v).__name__}")
            values.append(v)
        count = len(values) + sum(1 for _ in items)
        if count != len(self._FIELDS):
            raise ValueError(f"need {len(self._FIELDS)} coefficients, got {count}")
        if rational:
            self._num, self._den = _over_one_denominator(values)
        else:
            self._num = tuple([Fraction(v) if isinstance(v, int) else v for v in values])
            self._den = None

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
        # den first: math.gcd skips what is left once its running value is 1
        g = gcd(den, *num)
        if g != 1:
            num = tuple([n // g for n in num])
            den //= g
        return cls._new(num, den)

    @classmethod
    def zero(cls):
        return cls._from_values((0,) * len(cls._FIELDS))

    @classmethod
    def from_scalar(cls, s):
        zeros = (0,) * (len(cls._FIELDS) - 1)
        if isinstance(s, (int, Fraction)):  # in lowest terms already
            return cls._new((s.numerator, *zeros), s.denominator)
        return cls._from_values((s, *zeros))

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

    def _product(self, x, y) -> tuple:
        """Coefficients of x*y from those of x and y, in any scalar ring;
        zero coefficients are skipped, and one no pair reaches stays int 0."""
        acc = [0] * len(x)
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
                product = self._product(self._num, other._num)
                return self._reduced(product, self._den * other._den)
            return self._from_values(self._product(self.components(), other.components()))
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
        if self._den:  # the rational value on the right
            self, other = other, self
        if not other._den:
            return self._num == other._num  # QuadExt.__eq__ reads every pair
        # each cell against its int numerator over other._den, no Fraction built
        den = other._den
        for v, n in zip(self._num, other._num):
            if isinstance(v, QuadExt):
                if v.surd_part:
                    return False
                v = v.rat_part
            if v.numerator * den != n * v.denominator:
                return False
        return True

    def __hash__(self):
        return hash(self.components())

    def __bool__(self):
        return any(self._num)

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._FIELDS, self.components()))
        return f"{self.__class__.__qualname__}({fields})"

    def __str__(self):
        if self._den is None:
            return render_terms(zip(self._num, self._UNITS))
        # a nonzero int cell as its text, which is str of its Fraction
        den = self._den
        return render_terms([(render_ratio(n, den), u) for n, u in zip(self._num, self._UNITS) if n])


def render_coeff(value, unit: str) -> tuple[str, str]:
    """Render one term; returns (sign, body) with sign '+' or '-'."""
    text = str(value)
    if " " in text:  # a sum a +- b*sqrt(D), kept one factor before a unit
        sign, body = "+", f"({text})" if unit else text
    elif text[0] == "-":  # any other scalar's text starts with its sign
        sign, body = "-", text[1:]
    else:
        sign, body = "+", text
    if unit:
        body = f"{body}*{unit}"
    return sign, body


def render_terms(pairs) -> str:
    """Join (coefficient, unit) pairs, omitting zero terms; a nonzero
    coefficient may be given as its text."""
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
