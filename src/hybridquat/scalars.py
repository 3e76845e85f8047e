"""Exact scalar arithmetic: rationals and quadratic extensions Q(sqrt(D)).

The base scalar is ``fractions.Fraction``, re-exported here as ``Rational``.
It is arbitrary precision and always stored reduced with a positive
denominator, which is exactly the contract we need, so there is no custom
rational type.

``QuadExt`` represents a + b*sqrt(D) with rational a, b and a squarefree
integer discriminant D.  Discriminants that are perfect squares are
rejected outright: the degenerate case belongs to ``Rational``, not to a
pretend field extension.  All arithmetic is exact; nothing here ever
touches floating point.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from fractions import Fraction
from math import isqrt

from .errors import DivisionByZero, MixedDiscriminant, RationalRoots, RepeatedRoot

Rational = Fraction

# Trial division bound for extracting square factors from a discriminant.
# Perfect squares of any size are still detected exactly via isqrt; only
# canonicalisation of absurdly large non-square discriminants is capped.
_TRIAL_LIMIT = 1_000_000


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


@contextmanager
def unlimited_digits():
    """Lift CPython's limit on int <-> str conversion inside the block.

    Exact values routinely pass the default 4300 digits (F_25000 has
    5225), so rendering them needs the limit off; the interpreter's own
    setting is restored on exit.  Pythons before 3.10.7 have no limit.
    """
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        yield
        return
    saved = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def is_perfect_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def split_square(n: int) -> tuple[int, int]:
    """Split n > 0 as s*s*d with d squarefree; returns (s, d)."""
    if n <= 0:
        raise ValueError("split_square needs a positive integer")
    square, rest = 1, n
    f = 2
    while f * f <= rest and f <= _TRIAL_LIMIT:
        while rest % (f * f) == 0:
            square *= f
            rest //= f * f
        f += 1 if f == 2 else 2
    root = isqrt(rest)
    if root * root == rest:
        square *= root
        rest = 1
    return square, rest


class QuadExt:
    """An element a + b*sqrt(D) of the quadratic field Q(sqrt(D)).

    D is normalised to be squarefree at construction (sqrt(8) becomes
    2*sqrt(2)), so equality is componentwise comparison; a surd-free value
    equals the same rational whatever its discriminant.  Values are
    immutable.  int and Fraction operands are lifted into the field; two
    QuadExt values with different discriminants refuse to mix and raise
    MixedDiscriminant instead of guessing.
    """

    __slots__ = ("rat_part", "surd_part", "discriminant")

    def __init__(self, rat_part, surd_part, discriminant: int):
        rat = _as_fraction(rat_part)
        surd = _as_fraction(surd_part)
        disc = int(discriminant)
        if disc == 0:
            raise RationalRoots("discriminant 0 is degenerate; use Rational")
        s, d = split_square(abs(disc))
        if d == 1 and disc > 0:
            raise RationalRoots(
                f"sqrt({disc}) is rational; represent the value as Rational"
            )
        object.__setattr__(self, "rat_part", rat)
        object.__setattr__(self, "surd_part", surd * s)
        object.__setattr__(self, "discriminant", d if disc > 0 else -d)

    def __setattr__(self, name, value):
        raise AttributeError("QuadExt is immutable")

    # -- ring structure -------------------------------------------------

    def _lift(self, other) -> "QuadExt | None":
        # the result of an operation lives in the lifted operand's field:
        # self's, unless self is a surd-free value of another field
        if isinstance(other, QuadExt):
            if other.discriminant != self.discriminant:
                if not other.surd_part:
                    return QuadExt(other.rat_part, 0, self.discriminant)
                if not self.surd_part:
                    return other
                raise MixedDiscriminant(
                    f"sqrt({self.discriminant}) and sqrt({other.discriminant}) "
                    "do not live in a common quadratic field"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt(other, 0, self.discriminant)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return QuadExt(
            self.rat_part + o.rat_part, self.surd_part + o.surd_part, o.discriminant
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return QuadExt(
            self.rat_part - o.rat_part, self.surd_part - o.surd_part, o.discriminant
        )

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return QuadExt(-self.rat_part, -self.surd_part, self.discriminant)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        a, b = self.rat_part, self.surd_part
        c, e, d = o.rat_part, o.surd_part, o.discriminant
        return QuadExt(a * c + b * e * d, a * e + c * b, d)

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        if not self:
            raise DivisionByZero("0 has no inverse in Q(sqrt(D))")
        a, b, d = self.rat_part, self.surd_part, self.discriminant
        # a*a - b*b*d = 0 with b != 0 would force sqrt(d) rational,
        # which construction already ruled out.
        norm = a * a - b * b * d
        return QuadExt(a / norm, -b / norm, d)

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exponent: int) -> "QuadExt":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = QuadExt(1, 0, self.discriminant)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def conjugate(self) -> "QuadExt":
        """The field conjugate a - b*sqrt(D)."""
        return QuadExt(self.rat_part, -self.surd_part, self.discriminant)

    # -- comparison and rendering ---------------------------------------

    def __bool__(self) -> bool:
        return bool(self.rat_part) or bool(self.surd_part)

    def __eq__(self, other):
        if isinstance(other, QuadExt):
            # a surd-free value is a rational, whatever field it was built in
            return (
                self.rat_part == other.rat_part
                and self.surd_part == other.surd_part
                and (not self.surd_part or self.discriminant == other.discriminant)
            )
        if isinstance(other, (int, Fraction)):
            return not self.surd_part and self.rat_part == other
        return NotImplemented

    def __hash__(self):
        if not self.surd_part:
            return hash(self.rat_part)
        return hash((self.rat_part, self.surd_part, self.discriminant))

    def __repr__(self):
        return f"QuadExt({self.rat_part!r}, {self.surd_part!r}, {self.discriminant})"

    def __str__(self):
        if not self.surd_part:
            return str(self.rat_part)
        surd = f"{abs(self.surd_part)}*sqrt({self.discriminant})"
        sign = "-" if self.surd_part < 0 else "+"
        if not self.rat_part:
            return surd if sign == "+" else f"-{surd}"
        return f"{self.rat_part} {sign} {surd}"


def make_quad_roots(p, q) -> tuple[QuadExt, QuadExt]:
    """Both roots of x^2 - p*x + q = 0 as exact elements of Q(sqrt(D)).

    Raises RepeatedRoot when p^2 - 4q = 0 and RationalRoots when the
    discriminant is a nonzero perfect square of a rational (the sequence
    machinery downstream has nothing to adjoin in that case).
    """
    p = _as_fraction(p)
    q = _as_fraction(q)
    disc = p * p - 4 * q
    if disc == 0:
        raise RepeatedRoot(f"x^2 - {p}x + {q} has a double root")
    num, den = disc.numerator, disc.denominator
    if num > 0 and is_perfect_square(num * den):
        raise RationalRoots(f"x^2 - {p}x + {q} splits over the rationals")
    s, d = split_square(abs(num) * den)
    if num < 0:
        d = -d
    # sqrt(num/den) = (s/den) * sqrt(d)
    half = Fraction(1, 2)
    spread = Fraction(s, den) * half
    alpha = QuadExt(p * half, spread, d)
    beta = QuadExt(p * half, -spread, d)
    return alpha, beta


def quad_mul(x: QuadExt, y: QuadExt) -> QuadExt:
    if not isinstance(x, QuadExt) or not isinstance(y, QuadExt):
        raise TypeError("quad_mul expects two QuadExt values")
    return x * y


def quad_inv(x: QuadExt) -> QuadExt:
    if not isinstance(x, QuadExt):
        raise TypeError("quad_inv expects a QuadExt value")
    return x.inverse()


def common_discriminant(values) -> int | None:
    """The single discriminant used by the QuadExt entries of `values`.

    Returns None when no entry is a QuadExt.  Surd-free entries are
    rationals and fit any field.  Raises MixedDiscriminant when two entries
    carry surds of different discriminants; mixing rings is a construction
    error, not a coercion.
    """
    disc: int | None = None
    for v in values:
        if isinstance(v, QuadExt):
            if disc is None:
                disc = v.discriminant
            elif v.discriminant != disc:
                fields = list(
                    dict.fromkeys(
                        w.discriminant for w in values if isinstance(w, QuadExt) and w.surd_part
                    )
                )
                if len(fields) > 1:
                    raise MixedDiscriminant(
                        f"coefficients mix sqrt({fields[0]}) with sqrt({fields[1]})"
                    )
                return fields[0] if fields else disc
    return disc


# -- parsing ------------------------------------------------------------


def split_terms(text: str) -> list[tuple[int, str]]:
    """Split an expression on top-level + and - into (sign, body) pairs."""
    s = text.strip()
    if not s:
        raise ValueError("empty expression")
    terms: list[tuple[int, str]] = []
    sign, start, depth = 1, 0, 0
    i = 0
    while i < len(s):
        ch = s[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced parentheses in {text!r}")
        elif ch in "+-" and depth == 0 and i != start:
            body = s[start:i].strip()
            if body:
                terms.append((sign, body))
                sign = 1
            sign *= 1 if ch == "+" else -1
            start = i + 1
        i += 1
    if depth != 0:
        raise ValueError(f"unbalanced parentheses in {text!r}")
    body = s[start:].strip()
    if not body:
        raise ValueError(f"dangling operator in {text!r}")
    terms.append((sign, body))
    return terms


def strip_outer_parens(text: str) -> str:
    """Drop redundant parentheses wrapping the whole expression."""
    s = text.strip()
    while s.startswith("(") and s.endswith(")"):
        depth = 0
        for i, ch in enumerate(s):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0 and i != len(s) - 1:
                    return s  # first paren closes early, not an outer wrapper
        s = s[1:-1].strip()
    return s


def _parse_surd_body(body: str) -> tuple[Fraction, int]:
    head, _, tail = body.partition("sqrt(")
    if not tail.endswith(")"):
        raise ValueError(f"malformed surd term {body!r}")
    disc = int(tail[:-1])
    head = head.strip()
    if head.endswith("*"):
        head = head[:-1].strip()
    if head in ("", "+"):
        return Fraction(1), disc
    if head == "-":
        return Fraction(-1), disc
    return Fraction(head), disc


def parse_scalar(text: str):
    """Parse the rendered form of a Rational or QuadExt.

    Accepts "n", "n/d", "a + b*sqrt(D)" and any signed combination of
    those terms.  Returns a Fraction when no surd appears, else a QuadExt.
    """
    rat = Fraction(0)
    surd = Fraction(0)
    disc: int | None = None
    for sign, body in split_terms(strip_outer_parens(text)):
        if "sqrt(" in body:
            coeff, d = _parse_surd_body(body)
            if disc is None:
                disc = d
            elif d != disc:
                raise MixedDiscriminant(f"mixed surds in {text!r}")
            surd += sign * coeff
        else:
            rat += sign * Fraction(body)
    if disc is None:
        return rat
    return QuadExt(rat, surd, disc)
