"""Spans around calls into hybridquat, recorded from outside the package.

``Tracer.install()`` replaces module and class attributes of the imported
hybridquat modules with timing wrappers; nothing under ``src/`` is edited.
Every binding of a wrapped function is replaced where it is looked up, so
``cli.window``, ``sequences.window`` and ``hybridquat.window`` all report
to the same span name.  ``uninstall()`` restores the originals.

Each span records name, start, end, parent span and op id.  Spans are kept
in memory (the first ``cap`` of them; the rest are counted, not stored) and
written out by ``write()``.  Aggregates - calls, self time, and the counters
below - are updated as each span ends, so they cover every span whether
stored or not.  Self time is a span's duration minus the durations of its
child spans.  Only calls made inside an op, between ``begin_op`` and
``end_op``, are recorded.
"""

from __future__ import annotations

import json
import sys
from array import array
from fractions import Fraction
from time import perf_counter

# span name -> (module, attribute) bindings to wrap; a module attribute is
# replaced in every hybridquat module that binds the same object
FUNCTION_SPANS = {
    "sequences.window": ("hybridquat.sequences", ("window",)),
    "sequences.lift": (
        "hybridquat.sequences",
        ("horadam", "lift_hybrid", "lift_quaternion", "lift_hybrid_quaternion"),
    ),
    "sequences.binet_data": ("hybridquat.sequences", ("binet_data",)),
    "sequences.binet_eval": (
        "hybridquat.sequences",
        ("binet_scalar", "binet_hybrid", "binet_quaternion", "binet_hybrid_quaternion"),
    ),
    "scalars.split_square": ("hybridquat.scalars", ("split_square",)),
    "audit.report": ("hybridquat.audit", ("IdentityReport",)),
    "cli.parse": ("hybridquat.cli", ("build_parser", "_config_from_args", "parse_scalar")),
    "cli.render": ("hybridquat.cli", ("_emit_table", "reports_to_json")),
}
# span name -> (module, class, methods)
METHOD_SPANS = {
    "scalars.quadext": (
        "hybridquat.scalars",
        "QuadExt",
        (
            "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
            "__rmul__", "inverse", "__truediv__", "__rtruediv__", "__pow__",
            "conjugate", "__eq__",
        ),
    ),
    "hybrid.mul": ("hybridquat.hybrid", "Hybrid", ("__mul__", "__rmul__")),
    "quaternion.mul": ("hybridquat.quaternion", "Quaternion", ("__mul__", "__rmul__")),
    "hybrid_quaternion.mul": (
        "hybridquat.hybrid_quaternion",
        "HybridQuaternion",
        ("__mul__", "__rmul__"),
    ),
    "hybrid_quaternion.pow": ("hybridquat.hybrid_quaternion", "HybridQuaternion", ("__pow__",)),
}
HQ_MUL_CLASSES = ("int", "frac", "quad", "pow")


def _bits(value) -> int:
    """Largest numerator or denominator bit length inside a result."""
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    if isinstance(value, int):
        return value.bit_length()
    if hasattr(value, "rat_part"):
        return max(_bits(value.rat_part), _bits(value.surd_part))
    if hasattr(value, "coeffs"):
        return max(map(_bits, value.coeffs))
    if hasattr(value, "components"):
        return max(map(_bits, value.components()))
    if isinstance(value, (list, tuple)):
        return max(map(_bits, value), default=0)
    return 0


def _has_surd(coeffs) -> bool:
    return any(hasattr(c, "rat_part") for c in coeffs)


def _hq_class(x, y) -> str:
    coeffs = x.coeffs + y.coeffs
    if _has_surd(coeffs):
        return "quad"
    if all(c.denominator == 1 for c in coeffs):
        return "int"
    return "frac"


class Tracer:
    def __init__(self, cap: int = 200_000):
        self.cap = cap
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.spans_seen = 0
        self.op = -1
        # stack entries: [span id, name index, child time]
        self._stack: list[list] = []
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.hq_class_us: dict[str, list] = {c: [0, 0.0] for c in HQ_MUL_CLASSES}
        self.max_bits = 0
        self.split_useful = 0
        self.window_terms = 0
        self.reports_built = 0
        self.binet_keys: set = set()
        self.binet_distinct = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _name(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
            self.self_s[name] = 0.0
        return self._index[name]

    def begin_op(self, op_id: int) -> None:
        self.op = op_id

    def end_op(self) -> None:
        """Calls made between ops - the benchmark building operands or
        checking results - are not recorded."""
        self.op = -1
        self.binet_distinct += len(self.binet_keys)
        self.binet_keys = set()

    def wrap(self, name: str, fn, observe=None):
        idx = self._name(name)
        stack = self._stack

        def traced(*args, **kwargs):
            if self.op < 0:
                return fn(*args, **kwargs)
            span_id = self.spans_seen
            self.spans_seen += 1
            parent = stack[-1] if stack else None
            frame = [span_id, idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                duration = t1 - t0
                if parent is not None:
                    parent[2] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - frame[2]
                if span_id < self.cap:
                    self.span_name.append(idx)
                    self.span_start.append(t0)
                    self.span_end.append(t1)
                    self.span_parent.append(parent[0] if parent is not None else -1)
                    self.span_op.append(self.op)
            if observe is not None:
                observe(args, result, duration, parent)
            return result

        traced.__wrapped__ = fn
        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span of its own (the benchmark's op spans)."""
        return self.wrap(name, fn)(*args, **kwargs)

    # -- observers: counters taken where the work happens ---------------------

    def _observe_bits(self, args, result, duration, parent):
        bits = _bits(result)
        if bits > self.max_bits:
            self.max_bits = bits

    def _observe_hq_mul(self, args, result, duration, parent):
        self._observe_bits(args, result, duration, parent)
        x, y = args
        if not (hasattr(x, "coeffs") and hasattr(y, "coeffs")):
            return  # scaling by a scalar, not a 16-dim product
        if parent is not None and self.names[parent[1]] == "hybrid_quaternion.pow":
            kind = "pow"
        else:
            kind = _hq_class(x, y)
        entry = self.hq_class_us[kind]
        entry[0] += 1
        entry[1] += duration * 1e6

    def _observe_split(self, args, result, duration, parent):
        if result[0] != 1:
            self.split_useful += 1

    def _observe_window(self, args, result, duration, parent):
        self.window_terms += len(result)
        self._observe_bits(args, result, duration, parent)

    def _observe_binet_data(self, args, result, duration, parent):
        seq = args[0]
        self.binet_keys.add(getattr(seq, "params", seq))

    def _observe_report(self, args, result, duration, parent):
        self.reports_built += 1

    def _observe_parse(self, args, result, duration, parent):
        if hasattr(result, "parse_args"):  # the parser build_parser made
            result.parse_args = self.wrap("cli.parse", result.parse_args)

    # -- installing wrappers --------------------------------------------------

    def _observer(self, name):
        return {
            "sequences.window": self._observe_window,
            "sequences.lift": self._observe_bits,
            "sequences.binet_eval": self._observe_bits,
            "sequences.binet_data": self._observe_binet_data,
            "scalars.split_square": self._observe_split,
            "audit.report": self._observe_report,
            "cli.parse": self._observe_parse,
            "hybrid.mul": self._observe_bits,
            "quaternion.mul": self._observe_bits,
            "hybrid_quaternion.mul": self._observe_hq_mul,
        }.get(name)

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> list[str]:
        """Wrap every binding; returns the bindings that were not found."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "hybridquat"]
        missing = []
        for name, (home, attrs) in FUNCTION_SPANS.items():
            for attr in attrs:
                target = getattr(sys.modules[home], attr, None)
                if target is None:
                    missing.append(f"{home}.{attr}")
                    continue
                wrapper = self.wrap(name, target, self._observer(name))
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is target:
                            self._set(module, key, wrapper)
        for name, (home, cls_name, methods) in METHOD_SPANS.items():
            cls = getattr(sys.modules[home], cls_name)
            wrappers: dict[int, object] = {}
            for method in methods:
                target = cls.__dict__.get(method)
                if target is None:
                    missing.append(f"{home}.{cls_name}.{method}")
                    continue
                # __rmul__ = __mul__ aliases share one wrapper
                if id(target) not in wrappers:
                    wrappers[id(target)] = self.wrap(name, target, self._observer(name))
                self._set(cls, method, wrappers[id(target)])
        self._wrap_cli_json()
        return missing

    def _wrap_cli_json(self):
        # cli renders json through its module global ``json``; give it a
        # stand-in whose dumps is timed, leaving the json module untouched
        cli = sys.modules.get("hybridquat.cli")
        real = getattr(cli, "json", None)
        if real is None:
            return

        class _Json:
            def __getattr__(self, attr):
                return getattr(real, attr)

        stand_in = _Json()
        stand_in.dumps = self.wrap("cli.render", real.dumps)
        self._set(cli, "json", stand_in)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- output ---------------------------------------------------------------

    def write(self, path) -> None:
        """One JSON line per stored span: [name, start, end, parent, op]."""
        with open(path, "w") as out:
            header = {
                "names": self.names,
                "spans_seen": self.spans_seen,
                "spans_stored": len(self.span_name),
            }
            out.write(json.dumps(header) + "\n")
            for row in zip(
                self.span_name, self.span_start, self.span_end, self.span_parent, self.span_op
            ):
                out.write(json.dumps([self.names[row[0]], *row[1:]]) + "\n")
