"""Which probe task tracks the speed of lift ops?  Run from the repository root:

    python3 perfbench/probe_trial.py

For seeds 1 to 10 it runs one untraced lifts phase of the benchmark's length
while both in-process probe tasks of ``run.py`` - Fraction arithmetic and
the long-integer recurrence - are timed side by side between the ops.  It
prints, per metric, the spread over the ten runs of the values as measured
and as rescaled by each task, and the correlation across runs between the
log of a task's median time and the log of the measured op time; a task
that tracks the machine's speed as the lift ops feel it narrows the spread.
The figures go to perfbench/trajectory/lifts-probes.json.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from pathlib import Path

import run

SEEDS = range(1, 11)
METRICS = ("ops_per_s", "op_p50_ms", "op_p90_ms")


class Probes:
    """Refreshes every probe; rescales by the one named in ``use``."""

    def __init__(self):
        self.probes = {"fraction": run.fraction_probe(), "recurrence": run.recurrence_probe()}
        self.use = "fraction"

    def refresh(self, force: bool = False) -> None:
        for probe in self.probes.values():
            probe.refresh(force)

    def factor_at(self, t: float) -> float:
        return self.probes[self.use].factor_at(t)


def one_run(workload, seed: int, seconds: float) -> dict:
    probes = Probes()
    phase = run.run_phase(workload, seed, seconds, run.MIN_OPS, probes)

    def metrics(rescale=True):
        latencies = phase.latencies(rescale)
        return {
            "ops_per_s": phase.ops_per_s(rescale),
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_p90_ms": run.quantile_90(latencies) * 1e3,
        }

    out = {"seed": seed, "ops": len(phase.samples), "failed": phase.failed}
    out["as_measured"] = metrics(rescale=False)
    for name in probes.probes:
        probes.use = name
        out[name] = metrics()
        out[f"{name}_median_s"] = statistics.median(probes.probes[name].took)
    return out


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import workloads

    bench = json.loads((root / "BENCHMARK.json").read_text())
    workload = workloads.make("lifts", root)
    runs = []
    for seed in SEEDS:
        runs.append(one_run(workload, seed, bench["run_seconds"]))
        print(json.dumps(runs[-1]), flush=True)
    summary = {}
    for name in METRICS:
        measured = [r["as_measured"][name] for r in runs]
        # op time: the inverse of a rate
        log_time = [math.log(v) if name != "ops_per_s" else -math.log(v) for v in measured]
        summary[name] = {"as_measured_spread": spread(measured)}
        for probe in ("fraction", "recurrence"):
            summary[name][f"{probe}_spread"] = spread([r[probe][name] for r in runs])
            summary[name][f"{probe}_correlation"] = statistics.correlation(
                [math.log(r[f"{probe}_median_s"]) for r in runs], log_time
            )
    for name, row in summary.items():
        print(f"{name:<10} " + " ".join(f"{k}={v:.3f}" for k, v in row.items()))
    point = {"environment": run.environment(root, SEEDS[0]), "summary": summary, "runs": runs}
    del point["environment"]["seed"]
    path = run.HERE / "trajectory" / "lifts-probes.json"
    path.write_text(json.dumps(point, indent=1) + "\n")
    print(f"wrote {path.relative_to(root)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
