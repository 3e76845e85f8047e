"""The package's public names: what `from hybridquat import *` binds.

`__all__` is derived from the import block of `hybridquat/__init__.py`, so
the list below is the one written copy of it.  A new export, or a helper
that leaks into the package namespace, is a deliberate change here.
"""

import sys

import hybridquat

PUBLIC_NAMES = [
    "AUDIT_SEQUENCES",
    "BinetData",
    "CANONICAL_PAIRS",
    "CATALOG",
    "COLUMN_NAMES",
    "DEFAULT_SPAN",
    "DivisionByZero",
    "EPS",
    "FERMAT",
    "FIBONACCI",
    "FirstFailure",
    "HH",
    "HI",
    "HYBRID_UNITS",
    "HoradamParams",
    "Hybrid",
    "HybridQuatError",
    "HybridQuaternion",
    "I",
    "IdentityReport",
    "J",
    "JACOBSTHAL",
    "JACOBSTHAL_LUCAS",
    "K",
    "LUCAS",
    "MERSENNE",
    "MixedDiscriminant",
    "NegativeIndexWithZeroQ",
    "ONE",
    "PELL",
    "PELL_LUCAS",
    "QONE",
    "QUAT_UNITS",
    "QuadExt",
    "Quaternion",
    "REGISTRY",
    "Rational",
    "RationalRoots",
    "RepeatedRoot",
    "SequenceId",
    "audit_all",
    "binet_data",
    "binet_hybrid",
    "binet_hybrid_quaternion",
    "binet_quaternion",
    "binet_scalar",
    "check_binet",
    "check_cassini",
    "check_conjugate_relations",
    "check_fibonacci_relations",
    "check_lucas_relations",
    "generalized_fibonacci",
    "generalized_lucas",
    "horadam",
    "hq_cross",
    "hq_dot",
    "hq_mul",
    "lift_hybrid",
    "lift_hybrid_quaternion",
    "lift_quaternion",
    "make_quad_roots",
    "mul_via_scalar_vector",
    "parse_hybrid_quaternion",
    "parse_scalar",
    "reports_to_json",
    "scalar_vector_form",
    "window",
]


def test_all_is_the_pinned_list():
    assert len(PUBLIC_NAMES) == 67
    assert PUBLIC_NAMES == sorted(hybridquat.__all__)


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from hybridquat import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC_NAMES
    assert all(namespace[name] is getattr(hybridquat, name) for name in PUBLIC_NAMES)


def test_no_export_is_a_module():
    assert not [name for name in hybridquat.__all__ if type(getattr(hybridquat, name)) is type(sys)]


def test_all_is_unchanged_by_a_later_cli_import():
    import hybridquat.cli

    # the submodule is now a package attribute, but not an export
    assert "cli" in vars(hybridquat)
    assert sorted(hybridquat.__all__) == PUBLIC_NAMES


def test_version_is_set_and_not_exported():
    assert hybridquat.__version__ == "0.1.0"
    assert "__version__" not in hybridquat.__all__
