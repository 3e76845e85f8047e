"""Steadiness report: repeated runs of one commit, one seed per run.

    python3 perfbench/steady.py [--trajectory perfbench/trajectory/<name>.json]
                                [--against perfbench/trajectory/<earlier>.json]

It runs seeds 1 to 10 on each workload.  For every workload x end-to-end
metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``), the spread - the interquartile
distance as a share of the median - whether that spread fits the metric's
bound in BENCHMARK.json, and the spread of the same runs' values as
measured, before rescaling to the reference speed.  ``--trajectory`` also
writes those figures, with the environment of the first run, as a point of
the performance trajectory.  ``--against`` compares each median with the
one in an earlier point and says whether it is worse by more than the
bound.  Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = range(1, 11)


def run_once(command, workload, seed, seconds):
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"run failed ({done.returncode}): {' '.join(argv)}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trajectory", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args(argv)

    bench = json.loads(Path("BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lower_is_better = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    report = {}
    for workload in names:
        runs, measured = [], []
        for seed in SEEDS:
            result = run_once(bench["command"], workload, seed, bench["run_seconds"])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} ops failed")
            runs.append(result)
            record = json.loads((HERE / "out" / f"result-{workload}-s{seed}-t0.json").read_text())
            measured.append(record["as_measured"])
            print(f"  {workload} seed={seed} " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        report[workload] = {
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": {
                name: summarise([r["metrics"][name]["value"] for r in runs]) for name in bounds
            },
            # the same runs before rescaling to the reference speed
            "as_measured": {name: summarise([m[name] for m in measured]) for name in bounds},
        }

    print(f"\n{'workload':<10} {'metric':<12} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
          f"{'bound':>6}  fits  {'as measured':>11}")
    for workload, entry in report.items():
        for name, s in entry["metrics"].items():
            fits = "yes" if s["spread"] <= bounds[name] else "NO"
            print(f"{workload:<10} {name:<12} {s['median']:>12.5g} {s['q1']:>12.5g} {s['q3']:>12.5g} "
                  f"{s['spread']:>8.4f} {bounds[name]:>6}  {fits:<4}  "
                  f"{entry['as_measured'][name]['spread']:>11.4f}")

    if args.against:
        earlier = json.loads(args.against.read_text())["workloads"]
        print(f"\nagainst {args.against}: change of the median, worse if positive")
        print(f"{'workload':<10} {'metric':<12} {'earlier':>12} {'now':>12} {'worse by':>9} {'bound':>6}  fits")
        for workload, entry in report.items():
            for name, s in entry["metrics"].items():
                before = earlier[workload]["metrics"][name]["median"]
                worse = (s["median"] - before) / before
                if not lower_is_better[name]:
                    worse = -worse
                fits = "yes" if worse <= bounds[name] else "NO"
                print(f"{workload:<10} {name:<12} {before:>12.5g} {s['median']:>12.5g} "
                      f"{worse:>9.4f} {bounds[name]:>6}  {fits}")

    if args.trajectory:
        first = json.loads((HERE / "out" / f"result-{names[0]}-s{SEEDS[0]}-t0.json").read_text())
        point = {
            "environment": {k: v for k, v in first["environment"].items() if k != "seed"},
            "seeds": [SEEDS[0], SEEDS[-1]],
            "run_seconds": bench["run_seconds"],
            "workloads": report,
        }
        for workload in names:
            result = json.loads((HERE / "out" / f"result-{workload}-s{SEEDS[0]}-t0.json").read_text())
            report[workload]["ops_per_class"] = result["ops_per_class"]
        args.trajectory.parent.mkdir(parents=True, exist_ok=True)
        args.trajectory.write_text(json.dumps(point, indent=1) + "\n")
        print(f"wrote {args.trajectory}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
