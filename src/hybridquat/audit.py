"""Mechanical identity audit over exact arithmetic.

Every identity is checked over an inclusive span of integers.  Left-hand
sides are always built from recurrence lifts (plain rationals);
right-hand sides follow the claimed closed forms, over Q(sqrt(D)) where
they call for roots.  The two sides share only the lift layout, which is
the definition of the lifts; a closed-form value is never a recurrence
term.  So an agreement is genuine confirmation and a disagreement
produces an exact witness: the smallest failing index together with both
values and their difference in the canonical 16-term rendering.

Closed forms use three exact identities instead of multiplying factor by
factor: the hybrid and quaternion embeddings are homomorphisms, hybrid
factors commute with quaternion factors, and conjugating every
coefficient in Q(sqrt(D)) is multiplicative (the structure constants are
rational).  So each beta half is its alpha half conjugated, and a Cassini
chain is the outer product of a hybrid pair and a quaternion pair, each
pair multiplied in its printed order: coefficient 4s+t is q_s*z_t.
The Binet forms are read off ``BinetData.table``: Thm 2.1 with the
sequence's own weights, Thm 3.4 with its printed ones as A and B.

Each catalog id declares an order bound r: coefficient by coefficient,
both sides of each of its checks satisfy one linear recurrence of order
at most r with constant coefficients (they are C-finite in n).  So does
their difference, and such a sequence that vanishes at r consecutive
indices vanishes at every later one (Zeilberger, "The C-finite Ansatz",
Ramanujan J. 31, 2013; Kauers & Paule, The Concrete Tetrahedron, 2011,
ch. 4).  The scan therefore evaluates only the first r indices of the
span: agreement there certifies the whole span, and a disagreement there
is already the smallest failing index.  One method, ``_Identity.report``,
evaluates a check: it builds the closed form, scans and makes the witness.

A linear check of Thm 3.1-3.3 is a row of data that ``_linear`` reads: a
chain of sides, each a list of terms (c, seq, lift, k[, op]).  A term is
c * op(E(lift of seq at n + k)), where E embeds a scalar, hybrid or
quaternion lift (``HybridQuaternion.from_<lift>``) and op, if given, is a
unit multiplying from the left or one of the three conjugations.

Closed-form constants depend on the parameters, never on the span, so each
is built once per parameter set for the process: the Binet data, and the
Cassini side together with its negation in the form the scan compares (as
ints when it has no surd).  A constant that raises is not kept.

A claim whose right-hand side cannot be evaluated (rational roots where a
surd is required, or two incompatible surds in one expression) is reported
as UNEVALUABLE with the offending error, not as a verdict either way.
"""

from __future__ import annotations

import json
from collections import namedtuple
from functools import lru_cache, partial, reduce
from operator import add, mul

from .errors import MixedDiscriminant, RationalRoots, RepeatedRoot
from .hybrid_quaternion import HYBRID_UNITS, QUAT_UNITS, HybridQuaternion
from .scalars import QuadExt, unlimited_digits
from .sequences import (
    FIBONACCI,
    LUCAS,
    REGISTRY,
    HoradamParams,
    _conjugate,
    _lift,
    _params,
    _walk,
    binet_data,
    generalized_fibonacci,
    generalized_lucas,
)

DEFAULT_SPAN = (-10, 30)

VERIFIED = "VERIFIED"
REFUTED = "REFUTED"
UNEVALUABLE = "UNEVALUABLE"

# report order for Thm 2.1: the two generalized families first, sampled
# at (p, q) = (3, -1), then the registry in its own order
AUDIT_SEQUENCES = (
    generalized_fibonacci(3, -1), generalized_lucas(3, -1), *REGISTRY.values()
)


FirstFailure = namedtuple("FirstFailure", "n lhs rhs residual")


# sequence is a SequenceId or HoradamParams; first_failure a FirstFailure
_REPORT_FIELDS = "identity_id sequence span status error first_failure"


class IdentityReport(namedtuple("IdentityReport", _REPORT_FIELDS, defaults=(None, None))):
    __slots__ = ()

    def status_label(self) -> str:
        if self.status == UNEVALUABLE:
            return f"{UNEVALUABLE}({self.error})"
        return self.status

    def to_dict(self) -> dict:
        return {
            "identity": self.identity_id,
            "sequence": self.sequence.label(),
            "range": [self.span[0], self.span[1]],
            "status": self.status_label(),
            "first_failure": self.first_failure and self.first_failure._asdict(),
        }


# one report of json.dumps([r.to_dict() for r in reports], indent=2), in its layout
_REPORT = (
    '  {\n    "identity": %s,\n    "sequence": %s,\n    "range": [\n      %d,\n      %d\n    ],'
    '\n    "status": %s,\n    "first_failure": %s\n  }'
)
_FAILURE = '{\n      "n": %d,\n      "lhs": %s,\n      "rhs": %s,\n      "residual": %s\n    }'


def reports_to_json(reports) -> str:
    """The reports' to_dict() as json.dumps(..., indent=2) lays them out, written
    from the templates above; json.dumps (the C encoder) quotes each string."""
    q, rows = json.dumps, []
    for r in reports:
        f = r.first_failure
        failure = "null" if f is None else _FAILURE % (f.n, q(f.lhs), q(f.rhs), q(f.residual))
        label = q(r.status_label())
        rows.append(_REPORT % (q(r.identity_id), q(r.sequence.label()), *r.span, label, failure))
    return "[\n" + ",\n".join(rows) + "\n]" if rows else "[]"


class _Scans:
    """State of one audit call over one span.

    Recurrence terms (one ``_walk`` per sequence: w_{lo-2} up to w_{last+9},
    as far as hat(w)_{last+3}, breve(w)_{last+6} and tilde(w)_{last+6} read,
    where last is the span's R-th index, R the largest declared order) are
    built on first use and shared by this call only; ``lift`` reads them.
    Closed-form constants are kept per parameter set for the process, not
    here (``_binet_constants``, ``_cassini_side``, ``_cassini_signed``).
    """

    def __init__(self, span):
        self.span = lo, hi = span
        if not all(isinstance(b, int) and not isinstance(b, bool) for b in span):
            raise TypeError("span bounds must be integers")
        if lo > hi:
            raise ValueError(f"empty span [{lo}, {hi}]")
        self.last = min(hi, lo + max(ident.order for ident in CATALOG.values()) - 1)
        self._terms = {}

    def lift(self, seq, lift: str):
        lo = self.span[0] - 2
        walk = self._terms.get(seq) or self._terms.setdefault(seq, _walk(seq, lo, self.last + 9))
        return partial(_lift, walk, lo, lift)


# -- Binet forms ------------------------------------------------------------


@lru_cache(maxsize=128)
def _binet_constants(params):
    """binet_data(params) once per parameter set, looked up here at each build."""
    return binet_data(params)


def _binet(seq, weight=None):
    """Thm 2.1: recurrence lift against the Q(sqrt(D)) closed form.

    Thm 3.4 prints that form on the roots of x^2 - x - 1 with its own
    weight: weight(alpha, beta) then stands for A and its conjugate for B."""

    def prepare(s):
        lo = s.span[0]
        data = _binet_constants(_params(seq))
        if weight:
            A = weight(data.alpha, data.beta)
            data = data._replace(A=A, B=A.conjugate())
        rows = data.table("hybrid-quaternion", lo, s.last)
        hat = s.lift(seq, "hybrid-quaternion")
        return lambda n: [hat(n), rows[n - lo]]

    return prepare


# -- linear relations -----------------------------------------------------------

_EMBED = {"scalar": HybridQuaternion.from_scalar, "hybrid": HybridQuaternion.from_hybrid,
          "quaternion": HybridQuaternion.from_quaternion}


def _linear(*sides):
    """prepare(scans) for a row side_1 = side_2 = ... (module docstring).  A side
    sums its terms of one (seq, lift) in that lift's own algebra, c = 1 and -1
    as an add and a subtract, and embeds that sum once."""
    index, grouped = {}, []  # (seq, lift) -> its lift's position; per side, its groups
    for side in sides:
        groups = {}
        for c, seq, lift, k, *op in side:
            i = index.setdefault((seq, lift), len(index))
            group = groups.setdefault(i, (i, _EMBED.get(lift), []))
            group[2].append((c, k, op[0] if op else None))
        grouped.append(groups.values())

    def prepare(s):
        at = [s.lift(seq, lift) for seq, lift in index]

        def summed(i, embed, terms, n):
            acc, lift = None, at[i]
            for c, k, op in terms:
                v = op(lift(n + k)) if op else lift(n + k)
                v = v if c in (1, -1) else abs(c) * v
                acc = (v if c > 0 else -v) if acc is None else (acc + v if c > 0 else acc - v)
            return embed(acc) if embed else acc

        return lambda n: [reduce(add, [summed(*g, n) for g in groups]) for groups in grouped]

    return prepare


# -- Cassini ------------------------------------------------------------------


@lru_cache(maxsize=128)
def _cassini_side(seq, p, q):
    """The right side's constant: bracket/(alpha - beta), or sqrt(5)*bracket
    for Lucas, the factor lifted into the roots' field (or raising) first.
    By the module docstring's identities, alpha times the bracket's first
    chain alpha* beta* alpha_under beta_under is the outer product v of
    z = alpha*(alpha* beta*) and y = alpha_under beta_under, whose hybrid
    coefficient of u_s is z*y_s, and the bracket is v - conj(v)."""
    data = _binet_constants(HoradamParams(0, 1, p, q))
    alpha = data.alpha
    factor = alpha._lift(QuadExt(0, 1, 5) if seq == LUCAS else (alpha - data.beta).inverse())
    z, y = alpha * (data.alpha_star * data.beta_star), data.alpha_under * data.beta_under
    v = HybridQuaternion.from_quaternion_basis(*(z * s for s in y.components()))
    return factor * (v - _conjugate(v))


@lru_cache(maxsize=128)
def _cassini_signed(seq, p, q):
    """(side, -side), the compared constant at even and odd n: _cassini_side,
    in int storage when it has no surd."""
    side = _cassini_side(seq, p, q)
    if not any(v.surd_part for v in side.components()):  # compare it as ints
        side = HybridQuaternion([v.rat_part for v in side.components()])
    return side, -side


def _cassini(seq, p, q):
    def prepare(s):
        signed, hat = _cassini_signed(seq, p, q), s.lift(seq, "hybrid-quaternion")
        return lambda n: [hat(n + 1) * hat(n - 1) - hat(n) * hat(n), signed[n % 2]]

    return prepare


# -- the catalog ----------------------------------------------------------------


class _Identity:
    """One catalog id, the order bound of its checks, and the (sequence,
    prepare) checks reported under it.

    Calling it with a span runs only these checks: ``CATALOG[id](span)``.
    """

    def __init__(self, identity_id, order, *checks):
        self.identity_id = identity_id
        self.order = order
        self.checks = checks

    def __call__(self, span) -> list:
        scans = _Scans(span)
        return [self.report(scans, *check) for check in self.checks]

    def report(self, scans, sequence, prepare) -> IdentityReport:
        """prepare(scans) builds the right side's constants (UNEVALUABLE if it
        cannot) and returns values(n), a claimed chain lhs = rhs1 = ... of
        HybridQuaternions, each side C-finite of order at most self.order.
        The first failing adjacent pair at the smallest failing n is the witness."""
        made = partial(IdentityReport, self.identity_id, sequence, scans.span)
        try:
            values_fn = prepare(scans)
        except (RationalRoots, RepeatedRoot, MixedDiscriminant) as exc:
            return made(UNEVALUABLE, error=type(exc).__name__)
        lo, hi = scans.span
        for n in range(lo, min(hi, lo + self.order - 1) + 1):
            values = values_fn(n)
            for left, right in zip(values, values[1:]):
                if left != right:
                    with unlimited_digits():
                        failure = FirstFailure(n, str(left), str(right), str(left - right))
                    return made(REFUTED, first_failure=failure)
        return made(VERIFIED)


# Both sides of a linear id are linear in the w_{n+k} and in alpha^n,
# beta^n, so they lie in span{alpha^n, beta^n} of the sequence's own
# x^2 - px + q: order 2.
_LINEAR = 2
# A Cassini left coefficient sums products w_{n+a} w_{n+b}, in
# span{alpha^2n, (alpha beta)^n, beta^2n}; the right side is (-1)^n times a
# constant, and (alpha beta)^n = q^n = (-1)^n: order 3.
_CASSINI = 3
# Both orders rest on q != 0 for every sequence a check reads: then w_n is
# defined on all of Z, the recurrence runs both ways, and alpha, beta are nonzero.

# the rows of Thm 3.1-3.3 (module docstring): id -> its sides
_F, _L, _HQ = FIBONACCI, LUCAS, "hybrid-quaternion"
_I, _J, _K = (partial(mul, HybridQuaternion.unit(u, "1")) for u in QUAT_UNITS[1:])
_HI, _EPS, _HH = (partial(mul, HybridQuaternion.unit("1", v)) for v in HYBRID_UNITS[1:])
_CQ, _CH = HybridQuaternion.conj_quaternion, HybridQuaternion.conj_hybrid
_TOTAL = [(1, _F, _HQ, 0), (1, _F, _HQ, 0, HybridQuaternion.conj_total)]
_TAIL = [(-2, _F, "scalar", 0), (-8, _F, "scalar", 1)]  # Thm 3.3.iii: -2F_n - 8F_{n+1}
_ROWS = {
    "Thm3.1.i": ([(1, _F, _HQ, 0), (1, _F, _HQ, 1)], [(1, _F, _HQ, 2)]),
    "Thm3.1.ii": (
        [(1, _F, _HQ, 0), (-1, _F, _HQ, 1, _I), (-1, _F, _HQ, 2, _J), (-1, _F, _HQ, 3, _K)],
        [(1, _F, "hybrid", k) for k in (0, 2, 4, 6)], [(1, _L, "hybrid", k) for k in (1, 5)],
    ),
    "Thm3.1.iii": (
        [(1, _F, _HQ, 0), (-1, _F, _HQ, 1, _HI), (-1, _F, _HQ, 2, _EPS), (-1, _F, _HQ, 3, _HH)],
        [(c, _F, "quaternion", k) for c, k in ((1, 0), (-1, 2), (-2, 3), (1, 6))],
    ),
    "Thm3.2.i": ([(1, _F, _HQ, -1), (1, _F, _HQ, 1)], [(1, _L, _HQ, 0)]),
    "Thm3.2.ii": ([(1, _F, _HQ, 2), (-1, _F, _HQ, -2)], [(1, _L, _HQ, 0)]),
    "Thm3.3.i": ([(1, _F, _HQ, 0), (1, _F, _HQ, 0, _CQ)], [(2, _F, "hybrid", 0)]),
    "Thm3.3.ii": ([(1, _F, _HQ, 0), (1, _F, _HQ, 0, _CH)], [(2, _F, "quaternion", 0)]),
    "Thm3.3.iii-hat": (_TOTAL, [*_TAIL, *((2, _F, _HQ, k) for k in (1, 2, 3))]),
    "Thm3.3.iii-breve": (_TOTAL, [*_TAIL, *((2, _F, "hybrid", k) for k in (1, 2, 3))]),
}

CATALOG = {
    ident.identity_id: ident
    for ident in (
        _Identity("Thm2.1", _LINEAR, *((seq, _binet(seq)) for seq in AUDIT_SEQUENCES)),
        *(_Identity(key, _LINEAR, (_F, _linear(*sides))) for key, sides in _ROWS.items()),
        # the printed Binet displays; A = 1/(alpha - beta), B = conj(A) = -A in i
        # and A = B = 1 in ii:
        # i:  hat(F)_n = (alpha_star alpha_under alpha^n - beta_star beta_under beta^n) / (alpha - beta)
        # ii: hat(L)_n = alpha_star alpha_under alpha^n + beta_star beta_under beta^n
        _Identity("Thm3.4.i", _LINEAR, (FIBONACCI, _binet(FIBONACCI, lambda a, b: 1 / (a - b)))),
        _Identity("Thm3.4.ii", _LINEAR, (LUCAS, _binet(LUCAS, lambda a, b: 1))),
        _Identity("C1@x^2-x-1", _CASSINI, (FIBONACCI, _cassini(FIBONACCI, 1, -1))),
        _Identity("C2@x^2-x-1", _CASSINI, (LUCAS, _cassini(LUCAS, 1, -1))),
        _Identity("C1@x^2-2x-1", _CASSINI, (FIBONACCI, _cassini(FIBONACCI, 2, -1))),
        _Identity("C2@x^2-2x-1", _CASSINI, (LUCAS, _cassini(LUCAS, 2, -1))),
    )
}


def _run(identity_ids, span) -> list:
    """The reports of the given ids in order, sharing one call's state."""
    scans = _Scans(span)
    return [CATALOG[i].report(scans, *check) for i in identity_ids for check in CATALOG[i].checks]


# -- entry points ---------------------------------------------------------------


def check_binet(seq, span=DEFAULT_SPAN) -> IdentityReport:
    """Recurrence lift against the Q(sqrt(D)) closed form, coefficientwise."""
    return _Identity("Thm2.1", CATALOG["Thm2.1"].order, (seq, _binet(seq)))(span)[0]


def check_fibonacci_relations(span=DEFAULT_SPAN) -> list:
    """Sum recurrence and the two mixed-basis combination claims."""
    return _run(("Thm3.1.i", "Thm3.1.ii", "Thm3.1.iii"), span)


def check_lucas_relations(span=DEFAULT_SPAN) -> list:
    """hat(F) combinations that should reproduce hat(L)."""
    return _run(("Thm3.2.i", "Thm3.2.ii"), span)


def check_conjugate_relations(span=DEFAULT_SPAN) -> list:
    """The three conjugate sums; the total-conjugate claim is read two ways.

    The printed right-hand side of the third item switches notation
    between statement (hat) and proof (breve), so each literal reading is
    audited as its own identity.
    """
    return _run(("Thm3.3.i", "Thm3.3.ii", "Thm3.3.iii-hat", "Thm3.3.iii-breve"), span)


def check_cassini(span=DEFAULT_SPAN) -> list:
    """Both Cassini products against the printed closed forms.

    Each closed form is evaluated under both candidate quadratics,
    x^2 - x - 1 = 0 and x^2 - 2x - 1 = 0; the left-hand sides are always
    the Fibonacci and Lucas products.  The sqrt(5) prefactor of the
    second form is literal, so under the second quadratic it cannot be
    combined with sqrt(2) values and that report is UNEVALUABLE.
    """
    return _run(("C1@x^2-x-1", "C2@x^2-x-1", "C1@x^2-2x-1", "C2@x^2-2x-1"), span)


def audit_all(span=DEFAULT_SPAN) -> list:
    """Every identity in the catalog, in a fixed order."""
    return _run(CATALOG, span)
