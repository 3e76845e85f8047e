"""Exact scalar arithmetic: rationals and quadratic extensions Q(sqrt(D)).

The base scalar is ``fractions.Fraction``, re-exported here as ``Rational``.
It is arbitrary precision and always stored reduced with a positive
denominator, which is exactly the contract we need, so there is no custom
rational type.

``QuadExt`` represents a + b*sqrt(D) with rational a, b and a squarefree
integer discriminant D.  D is normalised once, when a value is built from
outside; arithmetic results inherit their operand's D and never factor it
again.  Discriminants that are perfect squares are rejected outright: the
degenerate case belongs to ``Rational``, not to a pretend field extension.
All arithmetic is exact; nothing here ever touches floating point.
"""

from __future__ import annotations

import re
import sys
from collections import deque
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm

from .errors import DivisionByZero, MixedDiscriminant, RationalRoots, RepeatedRoot

Rational = Fraction

# Trial division bound for extracting square factors from a discriminant.
# split_square divides only up to the cube root, so it is exact for every
# n <= _TRIAL_LIMIT**3 = 10**18; past that a D may keep a square factor.
# Field identity never depends on the limit: Q(sqrt(d1)) = Q(sqrt(d2))
# iff d1*d2 is a perfect square, which isqrt decides for any size.
_TRIAL_LIMIT = 1_000_000
_LARGE_PARTS = deque(maxlen=16)  # recent squarefree parts in (_TRIAL_LIMIT, _TRIAL_LIMIT**3]


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _over_one_denominator(values) -> tuple:
    """(ints, m): the rationals as ints over m, the lcm of their denominators;
    for reduced values gcd(m, *ints) == 1, so the form needs no reducing."""
    m = lcm(*[v.denominator for v in values])
    return tuple([v.numerator * (m // v.denominator) for v in values]), m


def render_ratio(n: int, d: int) -> str:
    """str(Fraction(n, d)) for ints n and d > 0, with no Fraction built."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


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


@lru_cache(maxsize=128)
def split_square(n: int) -> tuple[int, int]:
    """Split n > 0 as s*s*d with d squarefree; returns (s, d).

    Each factor f is divided out completely while f**3 <= rest.  What is
    left then has no prime factor below f and at most two above it, so it
    is 1, p, p*q or p*p, and one isqrt tells the square apart.  Results
    are memoised, and a square multiple of a recent large part, which
    lies in its field (_surd_ratio), is split without dividing again.
    """
    if n <= 0:
        raise ValueError("split_square needs a positive integer")
    for d in _LARGE_PARTS:
        if _surd_ratio(n, d):
            return isqrt(n // d), d
    square, free, rest = 1, 1, n
    f = 2
    while f * f * f <= rest and f <= _TRIAL_LIMIT:
        if rest % f == 0:
            e = 0
            while rest % f == 0:
                rest //= f
                e += 1
            square *= f ** (e >> 1)
            if e & 1:
                free *= f
        f += 1 if f == 2 else 2
    root = isqrt(rest)
    if root * root == rest:
        return square * root, free
    if _TRIAL_LIMIT < free * rest <= _TRIAL_LIMIT**3:  # exact, and dear to divide again
        _LARGE_PARTS.append(free * rest)
    return square, free * rest


def power(base, exponent: int, one):
    """base ** exponent for an int exponent >= 0, ``one`` being the unit of
    base's ring, left to right: every multiply is by base itself (x ** 141
    costs seven squarings and three multiplies, each by x)."""
    if not exponent:
        return one
    result = base
    for bit in bin(exponent)[3:]:
        result = result * result
        if bit == "1":
            result = result * base
    return result


def _surd_ratio(d_from: int, d_to: int) -> Fraction | None:
    """The rational r with sqrt(d_from) = r*sqrt(d_to), or None.

    It exists iff Q(sqrt(d_from)) = Q(sqrt(d_to)), that is iff
    d_from*d_to is a perfect square; no factoring is needed.
    """
    product = d_from * d_to
    if product <= 0:
        return None
    root = isqrt(product)
    if root * root != product:
        return None
    return Fraction(root, abs(d_to))


class QuadExt:
    """An element a + b*sqrt(D) of the quadratic field Q(sqrt(D)).

    D is normalised once, at construction: it is made squarefree (sqrt(8)
    becomes 2*sqrt(2)) and every arithmetic result keeps its operand's D,
    so no operation factors it again.  A surd-free value equals the same
    rational whatever its discriminant.  Values are immutable.  int and
    Fraction operands are lifted into the field; two QuadExt values whose
    discriminants give different fields refuse to mix and raise
    MixedDiscriminant instead of guessing.
    """

    __slots__ = ("rat_part", "surd_part", "discriminant")

    def __init__(self, rat_part, surd_part, discriminant: int):
        rat = _as_fraction(rat_part)
        surd = _as_fraction(surd_part)
        if not isinstance(discriminant, int):
            raise TypeError(
                f"expected an integer discriminant, got {type(discriminant).__name__}"
            )
        if discriminant == 0:
            raise RationalRoots("discriminant 0 is degenerate; use Rational")
        s, d = split_square(abs(discriminant))
        if d == 1 and discriminant > 0:
            raise RationalRoots(
                f"sqrt({discriminant}) is rational; represent the value as Rational"
            )
        object.__setattr__(self, "rat_part", rat)
        object.__setattr__(self, "surd_part", surd * s)
        object.__setattr__(self, "discriminant", d if discriminant > 0 else -d)

    @classmethod
    def _new(cls, rat: Fraction, surd: Fraction, disc: int) -> "QuadExt":
        # trusted: Fraction parts and a disc that is already normalised
        obj = object.__new__(cls)
        object.__setattr__(obj, "rat_part", rat)
        object.__setattr__(obj, "surd_part", surd)
        object.__setattr__(obj, "discriminant", disc)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("QuadExt is immutable")

    # -- ring structure -------------------------------------------------

    def _lift(self, other) -> "QuadExt | None":
        # the result of an operation lives in the lifted operand's field:
        # self's, unless self is a surd-free value of another field
        if isinstance(other, QuadExt):
            if other.discriminant != self.discriminant:
                if not other.surd_part:
                    return QuadExt._new(other.rat_part, other.surd_part, self.discriminant)
                if not self.surd_part:
                    return other
                ratio = _surd_ratio(other.discriminant, self.discriminant)
                if ratio is None:
                    raise MixedDiscriminant(
                        f"sqrt({self.discriminant}) and sqrt({other.discriminant}) "
                        "do not live in a common quadratic field"
                    )
                return QuadExt._new(other.rat_part, other.surd_part * ratio, self.discriminant)
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt._new(_as_fraction(other), _ZERO, self.discriminant)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return QuadExt._new(
            self.rat_part + o.rat_part, self.surd_part + o.surd_part, o.discriminant
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return QuadExt._new(
            self.rat_part - o.rat_part, self.surd_part - o.surd_part, o.discriminant
        )

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return QuadExt._new(-self.rat_part, -self.surd_part, self.discriminant)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        a, b = self.rat_part, self.surd_part
        c, e, d = o.rat_part, o.surd_part, o.discriminant
        return QuadExt._new(a * c + b * e * d, a * e + c * b, d)

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        if not self:
            raise DivisionByZero("0 has no inverse in Q(sqrt(D))")
        a, b, d = self.rat_part, self.surd_part, self.discriminant
        # a*a - b*b*d = 0 with b != 0 would force sqrt(d) rational,
        # which construction already ruled out.
        norm = a * a - b * b * d
        return QuadExt._new(a / norm, -b / norm, d)

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
        base = self if exponent >= 0 else self.inverse()
        (x, y), e = _over_one_denominator((base.rat_part, base.surd_part))
        d = base.discriminant
        x, y, e, _ = power(_Ints((x, y, e, d)), abs(exponent), _Ints((1, 0, 1, d)))
        return QuadExt._new(Fraction(x, e), Fraction(y, e), d)

    def conjugate(self) -> "QuadExt":
        """The field conjugate a - b*sqrt(D)."""
        return QuadExt._new(self.rat_part, -self.surd_part, self.discriminant)

    # -- comparison and rendering ---------------------------------------

    def __bool__(self) -> bool:
        return bool(self.rat_part) or bool(self.surd_part)

    def __eq__(self, other):
        # _lift writes other over self's D; values of two fields differ
        try:
            o = self._lift(other)
        except MixedDiscriminant:
            return False
        if o is None:
            return NotImplemented
        return self.rat_part == o.rat_part and self.surd_part == o.surd_part

    def __hash__(self):
        if not self.surd_part:
            return hash(self.rat_part)
        # b*sqrt(D) is fixed by the sign of b and by b*b*D, whichever D of
        # its field the value was written over
        b = self.surd_part
        return hash((self.rat_part, b > 0, b * b * self.discriminant))

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


_ZERO = Fraction(0)


class _Ints(tuple):
    """(x, y, e, D), (x + y*sqrt(D))/e on ints, for QuadExt.__pow__: a product shifts
    out the power of 2 its ints share, as (1 + sqrt(5))^n/2^n keeps 2^(n-1) in all three.
    A square forms x and y from three products, not four; ``power`` multiplies only by
    the base, so every other product meets the base's small ints."""

    __slots__ = ()

    def __mul__(self, other):
        a, b, e, d = self
        if other is self:
            x, y, e = a * a + b * b * d, (a * b) << 1, e * e
        else:
            c, g, f, _ = other
            x, y, e = a * c + b * g * d, a * g + b * c, e * f
        low = x | y | e
        shift = (low & -low).bit_length() - 1
        return _Ints((x >> shift, y >> shift, e >> shift, d))


def make_quad_roots(p, q) -> tuple[QuadExt, QuadExt]:
    """Both roots of x^2 - p*x + q = 0 as exact elements of Q(sqrt(D)).

    Raises RepeatedRoot when p^2 - 4q = 0 and RationalRoots when the
    discriminant is a nonzero perfect square of a rational (the sequence
    machinery downstream has nothing to adjoin in that case); the
    constructor is what tells the square apart.
    """
    p = _as_fraction(p)
    q = _as_fraction(q)
    disc = p * p - 4 * q

    def poly():  # each sign written once, a zero term not at all: x^2 + 2x + 1, x^2 - 1
        terms = (f" {'-+'[p < 0]} {abs(p)}x" if p else "", f" {'+-'[q < 0]} {abs(q)}" if q else "")
        return "x^2" + "".join(terms)

    if disc == 0:
        raise RepeatedRoot(f"{poly()} has a double root")
    num, den = disc.numerator, disc.denominator
    try:
        # sqrt(num/den) = sqrt(num*den)/den
        half_root = QuadExt(0, Fraction(1, 2 * den), num * den)
    except RationalRoots:
        raise RationalRoots(f"{poly()} splits over the rationals") from None
    return p / 2 + half_root, p / 2 - half_root


# -- parsing ------------------------------------------------------------


def split_terms(text: str) -> list[tuple[int, str]]:
    """Split an expression on top-level + and - (not an exponent's) into (sign, body) pairs."""
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
        elif ch in "+-" and depth == 0 and i != start and s[i - 1] not in "eE":
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
    try:
        disc = parse_fraction(tail[:-1]) if tail.endswith(")") else None
    except ValueError:
        disc = None
    if disc is None or disc.denominator != 1:
        raise ValueError(f"malformed surd term {body!r}")
    head = head.strip()
    if head.endswith("*"):
        head = head[:-1].strip()
    if head in ("", "+", "-"):
        head += "1"
    return parse_fraction(head), disc.numerator


def parse_fraction(text: str) -> Fraction:
    """Parse "n" or "n/d"; on every Python, bad text, a zero denominator, digit underscores,
    inner whitespace and an exponent past int's 4300-digit text limit are ValueErrors."""
    if "_" in text or len(text.split()) > 1:
        raise ValueError(f"Invalid literal for Fraction: {text!r}")
    exponent = re.fullmatch(r"\s*[-+]?(?:\d+(?:\.\d*)?|\.\d+)[eE]([-+]?\d+)\s*", text)
    if exponent and abs(int(exponent[1])) > 4300:
        raise ValueError(f"exponent too large in {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def parse_scalar(text: str):
    """Parse the rendered form of a Rational or QuadExt.

    Accepts "n", "n/d", "a + b*sqrt(D)" and any signed combination of
    those terms.  Returns a Fraction when no surd appears, else a QuadExt.
    The terms are summed as scalars, so QuadExt decides field identity:
    any spelling of one field parses ("sqrt(8) + sqrt(2)" is 3*sqrt(2)),
    and surds of two fields raise MixedDiscriminant.
    """
    value = Fraction(0)
    for sign, body in split_terms(strip_outer_parens(text)):
        if "sqrt(" in body:
            coeff, d = _parse_surd_body(body)
            term = QuadExt(0, sign * coeff, d)
        else:
            term = sign * parse_fraction(body)
        try:
            value = value + term
        except MixedDiscriminant:
            raise MixedDiscriminant(f"mixed surds in {text!r}") from None
    return value
