"""hybridquat benchmark: one workload, one seed, one result line.

Run from the repository root:

    python3 perfbench/run.py --workload products --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics: operations run back to back
by one caller (a closed loop), each checked against an oracle outside its
timed interval.  ``--trace 1`` runs the same ops twice in this process,
first plain and then with every hybridquat layer wrapped by ``tracer.Tracer``,
and reports the per-layer metrics and the tracing overhead.  The last line
of stdout is one JSON object: correct, attempted, failed and metrics.  A
fuller record, with the environment, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
WORKLOADS = ("products", "audit", "lifts", "cli")
MIN_OPS = 100  # so that at least ten samples lie beyond the 90th percentile
PHASE_WALL_LIMIT_S = 70.0  # no op starts after this, so a run ends within 180 s
SETUP_STARTS = 7
SPAN_CAP = 200_000
# probe task times on the machine the benchmark was defined on (2 vCPUs of
# an Intel Xeon at 2.0 GHz, Python 3.11.7): the median of the probe medians
# of its runs of seeds 1-10
FRACTION_TASK_REFERENCE_S = 0.0036
RECURRENCE_TASK_REFERENCE_S = 0.0049
SPAWN_TASK_REFERENCE_S = 0.017

END_TO_END = (
    ("ops_per_s", "op/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
AUDIT_IDS = (
    "Thm2.1", "Thm3.1.i", "Thm3.1.ii", "Thm3.1.iii", "Thm3.2.i", "Thm3.2.ii",
    "Thm3.3.i", "Thm3.3.ii", "Thm3.3.iii-hat", "Thm3.3.iii-breve", "Thm3.4.i",
    "Thm3.4.ii", "C1@x^2-x-1", "C2@x^2-x-1", "C1@x^2-2x-1", "C2@x^2-2x-1",
)
# spans reported as <span>_calls and <span>_s (self time), per op
TIMED_LAYERS = (
    "hybrid_quaternion.mul",
    "hybrid.mul",
    "quaternion.mul",
    "scalars.quadext",
    "scalars.split_square",
    "sequences.window",
    "sequences.binet_data",
    "sequences.binet_eval",
)


def metric_name(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", text)


def per_layer_metrics():
    out = []
    for prefix in TIMED_LAYERS:
        out.append((f"{prefix}_calls", "calls/op", "lower"))
        out.append((f"{prefix}_s", "s/op", "lower"))
        if prefix == "hybrid_quaternion.mul":
            out += [(f"hybrid_quaternion.mul_us.{c}", "us", "lower") for c in ("int", "frac", "quad", "pow")]
        if prefix == "scalars.split_square":
            out.append(("scalars.split_square_useful_ratio", "ratio", "higher"))
        if prefix == "sequences.window":
            out.append(("sequences.window_terms", "terms/op", "lower"))
        if prefix == "sequences.binet_data":
            out.append(("sequences.binet_data_distinct_ratio", "ratio", "higher"))
    out.append(("scalars.max_coeff_bits", "bits", "lower"))
    out += [(f"audit.{metric_name(i)}.s", "s", "lower") for i in AUDIT_IDS]
    out += [
        ("audit.reports_computed", "reports/op", "lower"),
        ("audit.reports_useful_ratio", "ratio", "higher"),
        ("cli.import_s", "s", "lower"),
        ("cli.parse_s", "s/op", "lower"),
        ("cli.render_s", "s/op", "lower"),
        ("cli.output_bytes", "bytes/op", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return tuple(out)


PER_LAYER = per_layer_metrics()
UNMEASURED = {
    "sequences.window_useful_ratio": (
        "terms computed happen inside window's loop; from outside src/ only "
        "the terms returned (sequences.window_terms) can be counted"
    ),
}


# -- environment ------------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def src_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(root: Path, seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "git_commit": git_commit(root),
        "src_sha256": src_digest(root),
        "seed": seed,
    }


# -- fresh interpreters --------------------------------------------------------------


def fresh_starts(root: Path, code: str, count: int) -> list[tuple[float, float, str]]:
    """Per start: seconds from spawn to the first line printed, the same
    rescaled by a spawn SpeedProbe, and that line.

    One extra start first is discarded, so every timed start finds the
    bytecode cache written.
    """
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    probe = SpeedProbe(_spawn_task, SPAWN_TASK_REFERENCE_S, 0.0)
    starts = []
    for i in range(count + 1):
        probe.refresh()
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", code], stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, env=env, cwd=root, text=True,
        )
        with proc.stdout:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.read()
        if proc.wait() != 0 or not line:
            raise RuntimeError(f"fresh interpreter failed running {code!r}")
        if i:
            starts.append((elapsed, t0 + elapsed / 2, line))
    probe.refresh()
    return [(elapsed, elapsed * probe.factor_at(mid), line) for elapsed, mid, line in starts]


# the first op of audit and cli needs the command-line module too
SETUP_CODE = {
    "products": "import hybridquat; print('ready', flush=True)",
    "lifts": "import hybridquat; print('ready', flush=True)",
    "audit": "import hybridquat.cli; print('ready', flush=True)",
    "cli": "import hybridquat.cli; print('ready', flush=True)",
}
IMPORT_CLI_CODE = (
    "import time; t = time.perf_counter(); import hybridquat.cli; "
    "print(time.perf_counter() - t)"
)


# -- machine speed ---------------------------------------------------------------------


def _fraction_task():
    a, s = Fraction(1, 3), Fraction(0)
    for i in range(1, 300):
        s = s + a * Fraction(i, i + 1) - Fraction(1, i + 2)


def _recurrence_task():
    # the loop of sequences.window written out here: Pell numbers, every term kept
    values, a, b = {0: 0, 1: 1}, 0, 1
    for k in range(2, 6001):
        a, b = b, 2 * b + a
        values[k] = b


def _spawn_task():
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)


class SpeedProbe:
    """Rescales measured times to a reference machine speed.

    On a shared machine the speed of this process changes by up to 1.8x
    for seconds to minutes at a time, with load from other tenants that it
    cannot see (no steal time shows); all ops speed up and slow down with
    it, though not all by the same share.  A fixed task that runs no
    hybridquat code is timed (best of two) at most every ``interval_s``
    between ops, and a time measured at t is multiplied by
    ``factor_at(t)``: reference_s over the median task time within WINDOW_S
    of t, i.e. the time as it would be where the task takes
    ``reference_s``.  The in-process task is Fraction arithmetic, except
    for lifts: lift ops spend their time in a recurrence over long integers,
    which speeds up less than Fraction arithmetic when the machine does, so
    they are rescaled by such a recurrence (probe_trial.py compares the
    two).  Process starts are rescaled by the time to start and stop an
    interpreter.
    """

    WINDOW_S = 1.0

    def __init__(self, task, reference_s: float, interval_s: float):
        self.task = task
        self.reference_s = reference_s
        self.interval_s = interval_s
        self.at: list[float] = []
        self.took: list[float] = []

    def _time_task(self) -> float:
        t0 = perf_counter()
        self.task()
        return perf_counter() - t0

    def refresh(self, force: bool = False) -> None:
        if force or not self.at or perf_counter() - self.at[-1] >= self.interval_s:
            self.took.append(min(self._time_task(), self._time_task()))
            self.at.append(perf_counter())

    def factor_at(self, t: float) -> float:
        lo = bisect_left(self.at, t - self.WINDOW_S)
        near = self.took[lo:bisect_right(self.at, t + self.WINDOW_S)]
        return self.reference_s / statistics.median(near or [self.took[min(lo, len(self.took) - 1)]])

    def factor(self) -> float:
        """The factor for a whole phase, from the median of all its probes."""
        return self.reference_s / statistics.median(self.took)


def fraction_probe():
    return SpeedProbe(_fraction_task, FRACTION_TASK_REFERENCE_S, 0.25)


def recurrence_probe():
    return SpeedProbe(_recurrence_task, RECURRENCE_TASK_REFERENCE_S, 0.25)


def speed_probe(workload: str, trace: int) -> SpeedProbe:
    if workload == "cli" and not trace:  # ops are children, start to exit
        return SpeedProbe(_spawn_task, SPAWN_TASK_REFERENCE_S, 0.5)
    if workload == "lifts":
        return recurrence_probe()
    return fraction_probe()


# -- the closed loop -------------------------------------------------------------------


class Phase:
    def __init__(self, probe: SpeedProbe):
        self.probe = probe
        self.samples: list[tuple[str, str, float, float]] = []  # (class, label, seconds, midpoint)
        self.rounds: list[range] = []  # sample indices of each whole round
        self.busy = 0.0
        self.failed = 0
        self.failures: list[str] = []
        self.output_bytes = 0
        self.reports_printed = 0

    def latencies(self, rescale: bool = True) -> list[float]:
        if not rescale:
            return [s[2] for s in self.samples]
        return [s[2] * self.probe.factor_at(s[3]) for s in self.samples]

    def ops_per_s(self, rescale: bool = True) -> float:
        """Ops per second of op time: the median over whole rounds, so that a
        burst of load from elsewhere on the machine moves it less."""
        latencies = self.latencies(rescale)
        rates = [len(r) / sum(latencies[i] for i in r) for r in self.rounds]
        if rates:
            return statistics.median(rates)
        return len(latencies) / sum(latencies) if latencies else 0.0


def run_phase(workload, seed: int, seconds: float, min_ops: int, probe: SpeedProbe,
              tracer=None) -> Phase:
    """Run whole rounds until ``seconds`` of op time and ``min_ops`` ops."""
    rng = random.Random(seed)
    phase = Phase(probe)
    deadline = perf_counter() + PHASE_WALL_LIMIT_S
    while (phase.busy < seconds or len(phase.samples) < min_ops) and perf_counter() < deadline:
        ops = workload.round(rng)
        first = len(phase.samples)
        for op in ops:
            if perf_counter() > deadline:
                break
            probe.refresh()
            op_id = len(phase.samples)
            error = None
            if tracer is not None:
                tracer.begin_op(op_id)
            t0 = perf_counter()
            try:
                if tracer is None:
                    result = op.call()
                else:
                    result = tracer.span(f"op.{op.cls}", op.call)
            except Exception as exc:  # any raise is a failed op, the loop goes on
                result, error = None, f"raised {type(exc).__name__}: {exc}"
            elapsed = perf_counter() - t0
            if tracer is not None:
                tracer.end_op()
            phase.busy += elapsed
            phase.samples.append((op.cls, op.label, elapsed, t0 + elapsed / 2))
            if error is None:
                error = op.check(result)
                _count_output(phase, op, result)
            if error is not None:
                phase.failed += 1
                if len(phase.failures) < 5:
                    phase.failures.append(f"{op.label}: {error}")
        else:
            phase.rounds.append(range(first, len(phase.samples)))
    probe.refresh(force=True)  # so the last ops have a probe after them too
    return phase


def _count_output(phase: Phase, op, result) -> None:
    if not (isinstance(result, tuple) and len(result) == 2 and isinstance(result[1], str)):
        return
    code, out = result
    phase.output_bytes += len(out.encode())
    if op.label.startswith("audit") or op.cls == "identity":
        if code in (0, 1) and out:
            phase.reports_printed += len(json.loads(out))


def quantile_90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def end_to_end(phase: Phase, setup: list[float], rss_kb: int, rescale: bool = True) -> dict:
    """The run's metrics, times rescaled to the reference speed unless
    ``rescale`` is false (see SpeedProbe)."""
    latencies = phase.latencies(rescale)
    return {
        "ops_per_s": phase.ops_per_s(rescale),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": quantile_90(latencies) * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_kb / 1024,
    }


def per_layer(tracer, plain: Phase, traced: Phase, import_s: list[float]) -> dict:
    """Per-layer metrics; times rescaled by their phase's SpeedProbe."""
    ops = max(len(traced.samples), 1)
    scale = traced.probe.factor()
    values = {}
    for span in TIMED_LAYERS:
        values[f"{span}_calls"] = tracer.calls.get(span, 0) / ops
        values[f"{span}_s"] = tracer.self_s.get(span, 0.0) * scale / ops
    for kind, (count, total_us) in tracer.hq_class_us.items():
        values[f"hybrid_quaternion.mul_us.{kind}"] = total_us * scale / count if count else 0.0
    splits = tracer.calls.get("scalars.split_square", 0)
    values["scalars.split_square_useful_ratio"] = tracer.split_useful / splits if splits else 0.0
    values["scalars.max_coeff_bits"] = tracer.max_bits
    values["sequences.window_terms"] = tracer.window_terms / ops
    data_calls = tracer.calls.get("sequences.binet_data", 0)
    values["sequences.binet_data_distinct_ratio"] = tracer.binet_distinct / data_calls if data_calls else 0.0
    by_label: dict[str, list[float]] = {}
    for (cls, label, _, _), seconds in zip(plain.samples, plain.latencies()):
        if cls == "identity":
            by_label.setdefault(label, []).append(seconds)
    for ident in AUDIT_IDS:
        times = by_label.get(ident)
        values[f"audit.{metric_name(ident)}.s"] = statistics.median(times) if times else 0.0
    values["audit.reports_computed"] = tracer.reports_built / ops
    values["audit.reports_useful_ratio"] = (
        traced.reports_printed / tracer.reports_built if tracer.reports_built else 0.0
    )
    values["cli.import_s"] = statistics.median(import_s)
    values["cli.parse_s"] = tracer.self_s.get("cli.parse", 0.0) * scale / ops
    values["cli.render_s"] = tracer.self_s.get("cli.render", 0.0) * scale / ops
    values["cli.output_bytes"] = traced.output_bytes / ops
    values["trace.overhead_ratio"] = 1 - traced.ops_per_s() / plain.ops_per_s()
    return {name: values[name] for name, _, _ in PER_LAYER}


# -- main ----------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "hybridquat" / "__init__.py").is_file():
        print(f"error: no hybridquat sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(HERE)]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    env = environment(root, args.seed)
    setup = fresh_starts(root, SETUP_CODE[args.workload], SETUP_STARTS)

    import workloads
    import tracer as tracing

    units = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
    workload = workloads.make(args.workload, root, subprocess=not args.trace)
    plain = run_phase(workload, args.seed, args.seconds, MIN_OPS, speed_probe(args.workload, args.trace))
    phases = [plain]
    if args.trace == 0:
        if args.workload == "cli":
            rss_kb = workload.child_rss_kb
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = end_to_end(plain, [rescaled for _, rescaled, _ in setup], rss_kb)
        extra = {"as_measured": end_to_end(plain, [raw for raw, _, _ in setup], rss_kb, rescale=False)}
    else:
        tracer = tracing.Tracer(SPAN_CAP)
        missing = tracer.install()
        try:
            traced = run_phase(workload, args.seed, args.seconds, 1,
                               speed_probe(args.workload, args.trace), tracer)
        finally:
            tracer.uninstall()
        phases.append(traced)
        trace_path = out_dir / f"trace-{args.workload}-s{args.seed}.jsonl"
        tracer.write(trace_path)
        import_s = [
            float(line) * rescaled / raw
            for raw, rescaled, line in fresh_starts(root, IMPORT_CLI_CODE, SETUP_STARTS)
        ]
        metrics = per_layer(tracer, plain, traced, import_s)
        extra = {
            "untraced_ops_per_s": plain.ops_per_s(),
            "traced_ops_per_s": traced.ops_per_s(),
            "spans_seen": tracer.spans_seen,
            "spans_stored": len(tracer.span_name),
            "trace_file": str(trace_path.relative_to(root)),
            "unwrapped_bindings": missing,
            "unmeasured": UNMEASURED,
        }

    attempted = sum(len(p.samples) for p in phases)
    failed = sum(p.failed for p in phases)
    class_counts: dict[str, int] = {}
    for cls, *_ in plain.samples:
        class_counts[cls] = class_counts.get(cls, 0) + 1
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("ops per class " + " ".join(f"{k}={v}" for k, v in sorted(class_counts.items())))
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {units[name]}")
    print(f"  {'samples':<40} {len(plain.samples):>16d} ops")
    print(f"  {'failed_ops_ratio':<40} {failed / attempted:>16.6g} ratio ({failed}/{attempted})")
    for key, value in extra.items():
        print(f"  {key}: {value}")
    for failure in (f for p in phases for f in p.failures):
        print(f"FAILED {failure}", file=sys.stderr)

    extra["probe_median_s"] = [statistics.median(p.probe.took) for p in phases]
    extra["probe_reference_s"] = plain.probe.reference_s
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "ops_per_class": class_counts,
        "attempted": attempted,
        "failed": failed,
        "failed_ops_ratio": failed / attempted,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        **extra,
    }
    (out_dir / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
