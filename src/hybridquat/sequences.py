"""Horadam sequences, their named instances, lifts, and exact Binet forms.

A Horadam sequence w_n(w0, w1; p, q) obeys w_n = p*w_{n-1} - q*w_{n-2}, and
w_n = w_0*U_{n+1} + (w_1 - p*w_0)*U_n for every integer n, U being the Lucas
sequence of (p, q) with U_0 = 0, U_1 = 1 and U_{-k} = -U_k/q^k.  A window
w_lo .. w_hi jumps to its start through one pair (U_m, U_{m+1}), built by
doubling (U_k, V_k) with V the companion Lucas sequence, one product and one
square per bit of m (m = -lo - 1 for lo < 0, which needs q != 0), then walks
forward on ints: p, q and the start values are each ints over the lcm of
their denominators.  ``_walk`` writes the terms as ints over one positive
denominator, which the lifts read; ``window`` makes the Fractions, each term
over its own denominator.
Lifts place consecutive terms on the hybrid, quaternion and hybrid-quaternion
bases; ``LIFTS`` gives each one's width and class, and ``_lift`` builds it:

    breve(w)_n = w_n + w_{n+1}*hi + w_{n+2}*eps + w_{n+3}*hh
    tilde(w)_n = w_n + w_{n+1}*i  + w_{n+2}*j   + w_{n+3}*k
    hat(w)_n   = sum over (s, t) of w_{n+s+t} * u_s * v_t

so the quaternion-basis decomposition of hat(w)_n is four consecutive
breve values and the hybrid-basis decomposition is four consecutive
tilde values, simultaneously.

The Binet route goes through the splitting field Q(sqrt(p^2 - 4q)): with
roots alpha, beta and weights A = (w1 - w0*beta)/(alpha - beta),
B = (w0*alpha - w1)/(alpha - beta),

    w_n        = A*alpha^n + B*beta^n
    breve(w)_n = A*alpha_star*alpha^n + B*beta_star*beta^n
    hat(w)_n   = A*alpha_star*alpha_under*alpha^n + B*beta_star*beta_under*beta^n

where alpha_star = 1 + alpha*hi + alpha^2*eps + alpha^3*hh and
alpha_under = 1 + alpha*i + alpha^2*j + alpha^3*k.  The parameters are
rational, so beta = conj(alpha) and B = conj(A) in Q(sqrt(D)), and each
beta term is the alpha term with every coefficient conjugated.  And
coefficient (s, t) of alpha_star*alpha_under is alpha^(s+t), so a lift's
value is the ``_layout`` of the scalar Binet terms 2*rat(A*alpha^k), exactly as
the recurrence lift is of w_k: no surd half and no root product is formed.
Everything is exact, and every value agrees with the recurrence.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .errors import NegativeIndexWithZeroQ
from .hybrid import Hybrid
from .hybrid_quaternion import HybridQuaternion
from .quaternion import Quaternion
from .scalars import _ZERO, QuadExt, _as_fraction, _over_one_denominator, make_quad_roots


class HoradamParams(namedtuple("HoradamParams", "w0 w1 p q")):
    __slots__ = ()

    def __new__(cls, w0, w1, p, q):
        return super().__new__(cls, *map(_as_fraction, (w0, w1, p, q)))

    def label(self) -> str:
        return f"w({self.w0},{self.w1};{self.p},{self.q})"


class SequenceId(namedtuple("SequenceId", "name params")):
    """A named Horadam instance; the name is part of the identity."""

    __slots__ = ()

    def label(self) -> str:
        return self.name


FIBONACCI = SequenceId("Fibonacci", HoradamParams(0, 1, 1, -1))
LUCAS = SequenceId("Lucas", HoradamParams(2, 1, 1, -1))
PELL = SequenceId("Pell", HoradamParams(0, 1, 2, -1))
PELL_LUCAS = SequenceId("PellLucas", HoradamParams(2, 2, 2, -1))
JACOBSTHAL = SequenceId("Jacobsthal", HoradamParams(0, 1, 1, -2))
JACOBSTHAL_LUCAS = SequenceId("JacobsthalLucas", HoradamParams(2, 1, 1, -2))
MERSENNE = SequenceId("Mersenne", HoradamParams(0, 1, 3, 2))
# "Fermat" names w(1,3;3,-2) = 1, 3, 11, 39, ...; these are not the
# classical Fermat numbers 3, 5, 17, 257.  The name is kept as is.
FERMAT = SequenceId("Fermat", HoradamParams(1, 3, 3, -2))


def generalized_fibonacci(p, q) -> SequenceId:
    params = HoradamParams(0, 1, p, q)
    return SequenceId(f"GeneralizedFibonacci({params.p},{params.q})", params)


def generalized_lucas(p, q) -> SequenceId:
    # w1 = p, not 1: the Lucas companion starts 2, p so that A = B = 1
    params = HoradamParams(2, p, p, q)
    return SequenceId(f"GeneralizedLucas({params.p},{params.q})", params)


REGISTRY: dict[str, SequenceId] = {
    "fibonacci": FIBONACCI,
    "lucas": LUCAS,
    "pell": PELL,
    "pell-lucas": PELL_LUCAS,
    "jacobsthal": JACOBSTHAL,
    "jacobsthal-lucas": JACOBSTHAL_LUCAS,
    "mersenne": MERSENNE,
    "fermat": FERMAT,
}


def _params(seq) -> HoradamParams:
    return seq.params if isinstance(seq, SequenceId) else seq


def _jump(params: HoradamParams, n: int, P: int, Q: int, c: int) -> tuple:
    """(a, b, d) with w_n = a/d, w_{n+1} = b/d, for p = P/c and q = Q/c, from
    the pair (u_m, u_{m+1}) of u = U(P, Q*c), m = n or -n-1.  Each bit of m
    doubles u and its companion v = V(P, Q*c) by one product and one square,
    u_2k = u_k*v_k and v_2k = v_k^2 - 2*(Q*c)^k; a 1 bit then steps by halves,
    exact as v_k = P*u_k mod 2.  (Q*c)^k is squared after every doubling but
    the last, which no later step reads.  Over d*c^n for n >= 0, d*Q^-n below."""
    (a, b), d = _over_one_denominator((params.w0, params.w1))
    Qc = Q * c
    D, u, v, r = P * P - 4 * Qc, 0, 2, 1
    bits = bin(n if n >= 0 else ~n)[2:]
    for i, bit in enumerate(bits, 1 - len(bits)):  # i = 0 at the last bit
        u, v = u * v, v * v - 2 * r
        if i:
            r *= r
        if bit == "1":
            u, v, r = (P * u + v) >> 1, (D * u + P * v) >> 1, r * Qc
    v = (P * u + v) >> 1  # u_{m+1}
    if n >= 0:
        return a * v + (c * b - P * a) * u, b * v - Q * a * u, d * c ** n
    return -(Qc * a * u + (c * b - P * a) * v), Q * (a * v - c * b * u), d * Q ** -n


def _terms(seq, lo: int, hi: int) -> tuple:
    """(ints, d, c): w_{lo+j} = ints[j]/(d*c^j) for j = 0 .. hi-lo.  Jump to
    (w_lo, w_{lo+1}) in O(log |lo|) Lucas doublings, then walk on ints: with
    p = P/c, q = Q/c, T_j = w_{lo+j}*d*c^j obeys T_{j+1} = P*T_j - Q*c*T_{j-1}.
    Only the window's terms are kept."""
    params = _params(seq)
    if lo > hi:
        raise ValueError("empty index window")
    if lo < 0 and not params.q:
        raise NegativeIndexWithZeroQ(f"{params.label()} cannot run backwards: q = 0")
    (P, Q), c = _over_one_denominator((params.p, params.q))
    a, b, d = _jump(params, lo, P, Q, c)
    ints, Q = [a, b * c][: hi - lo + 1], Q * c
    while len(ints) <= hi - lo:
        ints.append(P * ints[-1] - Q * ints[-2])
    return ints, d, c


def _walk(seq, lo: int, hi: int) -> tuple:
    """(ints, den): w_lo .. w_hi as ints over one positive den, ``_terms``
    written over d*c^(hi-lo)."""
    ints, d, c = _terms(seq, lo, hi)
    if c > 1:
        ints, d = [t * c ** (hi - lo - j) for j, t in enumerate(ints)], d * c ** (hi - lo)
    if d < 0:  # d*Q^k from the jump, Q < 0 and k odd
        ints, d = [-t for t in ints], -d
    return ints, d


def window(seq, lo: int, hi: int) -> list:
    """Exact values w_lo .. w_hi, the Fractions of ``_terms``: each over its own
    d*c^j, so no gcd meets the c^(hi-lo-j) that one denominator would add."""
    ints, d, c = _terms(seq, lo, hi)
    values = []
    for t in ints:
        values.append(Fraction(t, d))
        d *= c
    return values


def horadam(seq, n: int) -> Fraction:
    return window(seq, n, n)[0]


# lift -> (terms from w_n on that it places on its basis, class; None: the term)
LIFTS = {
    "scalar": (1, None),
    "hybrid": (4, Hybrid),
    "quaternion": (4, Quaternion),
    "hybrid-quaternion": (7, HybridQuaternion),
}


def _layout(terms, lo: int, lift: str, n: int) -> list:
    """The lift's coefficients at n in basis order (flat canonical order
    for the hybrid quaternion), read off terms indexed from lo."""
    i = n - lo
    width = LIFTS[lift][0]
    if i < 0 or i + width > len(terms):
        raise IndexError(f"{lift} lift at {n} reads past the window")
    w = terms[i : i + width]
    if lift == "hybrid-quaternion":
        return [w[s + t] for s in range(4) for t in range(4)]
    return w


def _lift(walk, lo: int, lift: str, n: int):
    """The lift's value at n from walk, ``_walk``'s (ints, den) from w_lo on: its
    ``_layout`` of ints reduced over den, or for the scalar lift one Fraction."""
    ints, den = walk
    coeffs = _layout(ints, lo, lift, n)
    cls = LIFTS[lift][1]
    return cls._reduced(tuple(coeffs), den) if cls else Fraction(coeffs[0], den)


def _point(seq, lift: str, n: int):
    return _lift(_walk(seq, n, n + LIFTS[lift][0] - 1), n, lift, n)


def lift_hybrid(seq, n: int) -> Hybrid:
    return _point(seq, "hybrid", n)


def lift_quaternion(seq, n: int) -> Quaternion:
    return _point(seq, "quaternion", n)


def lift_hybrid_quaternion(seq, n: int) -> HybridQuaternion:
    return _point(seq, "hybrid-quaternion", n)


def _conjugate(value):
    """The element value with every coefficient replaced by its field conjugate."""
    return value._from_values([c.conjugate() for c in value.components()])


class BinetData(
    namedtuple("BinetData", "alpha beta A B alpha_star beta_star alpha_under beta_under")
):
    """The closed-form constants of one parameter set, and the evaluator
    that uses them: build it once (``binet_data``) and read its table
    over as many indices as needed."""

    __slots__ = ()

    def terms(self, lo: int, hi: int) -> list:
        """The Fractions w_lo .. w_hi, each 2*rat(t) = t + conj(t) for
        t = A*alpha^k, with t stepped by one multiply per term."""
        if lo > hi:
            raise ValueError("empty index window")
        t = self.A * self.alpha ** lo
        values = [2 * t.rat_part]
        for _ in range(hi - lo):
            t = t * self.alpha
            values.append(2 * t.rat_part)
        return values

    def table(self, lift: str, lo: int, hi: int) -> list:
        """The lift's values at n = lo .. hi, laid out by ``_layout`` from
        terms that are each written into the roots' field, with zero surd part."""
        if lo > hi:
            raise ValueError("empty index window")
        width, cls = LIFTS[lift]
        D = self.alpha.discriminant
        terms = [QuadExt._new(w, _ZERO, D) for w in self.terms(lo, hi + width - 1)]
        rows = [_layout(terms, lo, lift, n) for n in range(lo, hi + 1)]
        return [cls._new(tuple(row), None) if cls else row[0] for row in rows]


def binet_data(seq) -> BinetData:
    """Roots, weights and root factors, each beta one the conjugate of its alpha one."""
    params = _params(seq)
    alpha, beta = make_quad_roots(params.p, params.q)
    A = (params.w1 - params.w0 * beta) / (alpha - beta)
    square = alpha * alpha
    powers = (1, alpha, square, square * alpha)
    alpha_star, alpha_under = Hybrid(*powers), Quaternion(*powers)
    return BinetData(
        alpha, beta, A, A.conjugate(),
        alpha_star, _conjugate(alpha_star), alpha_under, _conjugate(alpha_under),
    )


def binet_scalar(seq, n: int) -> QuadExt:
    return binet_data(seq).table("scalar", n, n)[0]


def binet_hybrid(seq, n: int) -> Hybrid:
    return binet_data(seq).table("hybrid", n, n)[0]


def binet_quaternion(seq, n: int) -> Quaternion:
    return binet_data(seq).table("quaternion", n, n)[0]


def binet_hybrid_quaternion(seq, n: int) -> HybridQuaternion:
    return binet_data(seq).table("hybrid-quaternion", n, n)[0]
