"""Reference arithmetic the benchmark checks results against.

Nothing here imports hybridquat: the oracles use only ``int``,
``fractions.Fraction`` and unit tables written out below, so a defect in a
layer under measurement cannot confirm itself.

* Horadam values come from 2x2 matrix powers, O(log n) products, for any
  index sign and rational parameters.
* The 4- and 16-dimensional products run over integer vectors with one
  common denominator; a Q(sqrt D) scalar a + b*sqrt(D) travels as the pair
  (a, b) and a vector of them as two integer vectors over one denominator.
* The CLI renderings (csv and json tables, ``mul`` output) are rebuilt
  from those values with ``str(Fraction)`` and ``json.dumps``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm

# Unit products as coefficient vectors on (1, hi, eps, hh): hi^2 = -1,
# eps^2 = 0, hh^2 = 1, hi*hh = -hh*hi = eps + hi.
_HYBRID_TABLE = (
    ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    ((0, 1, 0, 0), (-1, 0, 0, 0), (1, 0, 0, -1), (0, 1, 1, 0)),
    ((0, 0, 1, 0), (1, 0, 0, 1), (0, 0, 0, 0), (0, 0, -1, 0)),
    ((0, 0, 0, 1), (0, -1, -1, 0), (0, 0, 1, 0), (1, 0, 0, 0)),
)
# on (1, i, j, k): i*j = k, j*k = i, k*i = j, squares -1
_QUAT_TABLE = (
    ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    ((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 1), (0, 0, -1, 0)),
    ((0, 0, 1, 0), (0, 0, 0, -1), (-1, 0, 0, 0), (0, 1, 0, 0)),
    ((0, 0, 0, 1), (0, 0, 1, 0), (0, -1, 0, 0), (-1, 0, 0, 0)),
)


def _entries(table):
    return [
        [[(k, c) for k, c in enumerate(table[a][b]) if c] for b in range(4)]
        for a in range(4)
    ]


HYBRID_ENTRIES = _entries(_HYBRID_TABLE)
QUAT_ENTRIES = _entries(_QUAT_TABLE)
# flat index 4*s + t: quaternion unit s slowest, hybrid unit t fastest
HQ_ENTRIES = [
    [
        [
            (4 * r + m, qc * hc)
            for r, qc in QUAT_ENTRIES[x // 4][y // 4]
            for m, hc in HYBRID_ENTRIES[x % 4][y % 4]
        ]
        for y in range(16)
    ]
    for x in range(16)
]


def int_product(entries, x, y):
    """Product of two integer coefficient vectors under a sparse table."""
    acc = [0] * len(x)
    for i, a in enumerate(x):
        if not a:
            continue
        row = entries[i]
        for j, b in enumerate(y):
            if not b:
                continue
            p = a * b
            for k, sign in row[j]:
                acc[k] += sign * p
    return acc


def _over_common_denominator(values):
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def rational_product(entries, x, y):
    """Product of two Fraction vectors; returns Fractions."""
    xi, dx = _over_common_denominator(x)
    yi, dy = _over_common_denominator(y)
    den = dx * dy
    return [Fraction(c, den) for c in int_product(entries, xi, yi)]


def surd_product(entries, x, y, d):
    """Product of two vectors of (rat, surd) Fraction pairs over Q(sqrt d)."""
    xr, xs, dx = _split_pairs(x)
    yr, ys, dy = _split_pairs(y)
    den = dx * dy
    rr = int_product(entries, xr, yr)
    ss = int_product(entries, xs, ys)
    rs = int_product(entries, xr, ys)
    sr = int_product(entries, xs, yr)
    return [
        (Fraction(a + d * b, den), Fraction(c + e, den))
        for a, b, c, e in zip(rr, ss, rs, sr)
    ]


def _split_pairs(pairs):
    ints, den = _over_common_denominator([v for pair in pairs for v in pair])
    return ints[0::2], ints[1::2], den


def int_power(entries, x, e):
    """x ** e for an integer vector, by square and multiply."""
    result = [1] + [0] * (len(x) - 1)
    base = list(x)
    while e:
        if e & 1:
            result = int_product(entries, result, base)
        e >>= 1
        if e:
            base = int_product(entries, base, base)
    return result


# -- Horadam values -------------------------------------------------------


def _mat_mul(a, b):
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def _mat_pow(m, e):
    result = ((1, 0), (0, 1))
    while e:
        if e & 1:
            result = _mat_mul(result, m)
        e >>= 1
        if e:
            m = _mat_mul(m, m)
    return result


def _exact(v):
    """Keep integers as int so the common case never builds a Fraction."""
    v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


def horadam_terms(w0, w1, p, q, n, count):
    """w_n .. w_{n+count-1} of w_k = p*w_{k-1} - q*w_{k-2}, as Fractions.

    (w_{n+1}, w_n) = M^n (w1, w0) with M = [[p, -q], [1, 0]]; negative n
    uses M^-1 = [[0, 1], [-1/q, p/q]].
    """
    w0, w1, p, q = (_exact(v) for v in (w0, w1, p, q))
    if n >= 0:
        m = _mat_pow(((p, -q), (1, 0)), n)
    else:
        m = _mat_pow(((0, 1), (Fraction(-1) / q, Fraction(p) / q)), -n)
    nxt = m[0][0] * w1 + m[0][1] * w0
    cur = m[1][0] * w1 + m[1][1] * w0
    terms = [cur, nxt]
    while len(terms) < count:
        terms.append(p * terms[-1] - q * terms[-2])
    return [Fraction(t) for t in terms[:count]]


# the lift layouts, as index offsets from n into consecutive terms
LIFT_OFFSETS = {
    "scalar": (0,),
    "hybrid": (0, 1, 2, 3),
    "quaternion": (0, 1, 2, 3),
    "hybrid-quaternion": tuple(s + t for s in range(4) for t in range(4)),
}


def lift_values(params, lift, n):
    """The coefficients a recurrence lift of kind ``lift`` has at index n."""
    offsets = LIFT_OFFSETS[lift]
    terms = horadam_terms(*params, n, max(offsets) + 1)
    return [terms[k] for k in offsets]


# -- CLI renderings ---------------------------------------------------------

_QUAT_NAMES = ("1", "i", "j", "k")
_HYBRID_NAMES = ("1", "hi", "eps", "hh")
SEQ_HEADERS = {
    "scalar": ("w",),
    "hybrid": ("a", "b_hi", "c_eps", "d_hh"),
    "quaternion": ("z0", "z1", "z2", "z3"),
    "hybrid-quaternion": tuple(f"c_{u}_{v}" for u in _QUAT_NAMES for v in _HYBRID_NAMES),
}


def render_seq(params, lift, lo, hi, fmt):
    """Expected stdout of ``seq`` over [lo, hi]; method does not matter."""
    offsets = LIFT_OFFSETS[lift]
    terms = horadam_terms(*params, lo, hi - lo + max(offsets) + 1)
    rows = [(n, [terms[n - lo + k] for k in offsets]) for n in range(lo, hi + 1)]
    if fmt == "csv":
        lines = [",".join(("n",) + SEQ_HEADERS[lift])]
        lines += [",".join([str(n)] + [str(c) for c in coeffs]) for n, coeffs in rows]
        return "\n".join(lines) + "\n"
    payload = [{"n": n, "coeffs": [str(c) for c in coeffs]} for n, coeffs in rows]
    return json.dumps(payload, indent=2) + "\n"


def render_mul(x, y, fmt):
    """Expected stdout of ``mul`` for two Fraction operand vectors."""
    coeffs = [str(c) for c in rational_product(HQ_ENTRIES, x, y)]
    if fmt == "csv":
        return ",".join(coeffs) + "\n"
    return json.dumps(coeffs, indent=2) + "\n"
