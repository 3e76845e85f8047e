"""Exact arithmetic for hybrid numbers, quaternions and hybrid quaternions,
with a Horadam sequence engine, Binet evaluators over Q(sqrt(D)), and a
mechanical identity auditor."""

from .audit import (
    AUDIT_SEQUENCES,
    CATALOG,
    DEFAULT_SPAN,
    FirstFailure,
    IdentityReport,
    audit_all,
    check_binet,
    check_cassini,
    check_conjugate_relations,
    check_fibonacci_relations,
    check_lucas_relations,
    reports_to_json,
)
from .errors import (
    DivisionByZero,
    HybridQuatError,
    MixedDiscriminant,
    NegativeIndexWithZeroQ,
    RationalRoots,
    RepeatedRoot,
)
from .hybrid import (
    EPS,
    HH,
    HI,
    ONE,
    Hybrid,
)
from .hybrid_quaternion import (
    CANONICAL_PAIRS,
    COLUMN_NAMES,
    HYBRID_UNITS,
    QUAT_UNITS,
    HybridQuaternion,
    hq_cross,
    hq_dot,
    hq_mul,
    mul_via_scalar_vector,
    parse_hybrid_quaternion,
    scalar_vector_form,
)
from .quaternion import (
    I,
    J,
    K,
    QONE,
    Quaternion,
)
from .scalars import (
    QuadExt,
    Rational,
    make_quad_roots,
    parse_scalar,
)
from .sequences import (
    FERMAT,
    FIBONACCI,
    JACOBSTHAL,
    JACOBSTHAL_LUCAS,
    LUCAS,
    MERSENNE,
    PELL,
    PELL_LUCAS,
    REGISTRY,
    BinetData,
    HoradamParams,
    SequenceId,
    binet_data,
    binet_hybrid,
    binet_hybrid_quaternion,
    binet_quaternion,
    binet_scalar,
    generalized_fibonacci,
    generalized_lucas,
    horadam,
    lift_hybrid,
    lift_hybrid_quaternion,
    lift_quaternion,
    window,
)

__version__ = "0.1.0"

# the public names are the ones imported above, less the submodules
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and type(value) is not type(errors)
)
