"""The benchmark's own tests.  From the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import hybridquat
import reference as ref
import run
import tracer as tracing
import workloads
from conftest import BENCH, ROOT


def test_benchmark_json_lists_the_metrics_run_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert sorted(workloads.load_goldens()["audit"]) == sorted(run.AUDIT_IDS)


def test_reference_horadam_runs_both_ways():
    assert ref.horadam_terms(0, 1, 1, -1, -6, 8) == [-8, 5, -3, 2, -1, 1, 0, 1]
    assert ref.horadam_terms(0, 1, 3, 2, 10, 1) == [2**10 - 1]
    assert ref.horadam_terms(0, 1, Fraction(1, 2), -1, 2, 1) == [Fraction(1, 2)]


def test_reference_products_match_the_unit_tables():
    i, j, k = ([0] * 16 for _ in range(3))
    i[4], j[8], k[12] = 1, 1, 1
    assert ref.int_product(ref.HQ_ENTRIES, i, j) == k
    hi, hh = [0, 1, 0, 0], [0, 0, 0, 1]
    assert ref.int_product(ref.HYBRID_ENTRIES, hi, hh) == [0, 1, 1, 0]
    assert ref.int_product(ref.HYBRID_ENTRIES, hh, hi) == [0, -1, -1, 0]


def _workload(name, subprocess=True):
    return workloads.make(name, ROOT, subprocess=subprocess)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_one_round_of_each_workload_passes(name):
    phase = run.run_phase(_workload(name), seed=3, seconds=0, min_ops=1, probe=run.fraction_probe())
    assert phase.samples
    assert phase.failed == 0, phase.failures


def _corrupt(result):
    if isinstance(result, tuple):
        code, out = result
        return code, out + " "
    if hasattr(result, "coeffs"):
        return type(result)((result.coeffs[0] + 1,) + tuple(result.coeffs[1:]))
    if hasattr(result, "components"):
        first, *rest = result.components()
        return type(result)(first + 1, *rest)
    return result + 1


class _Corrupting:
    """The first ops of a round with every result deliberately corrupted."""

    def __init__(self, inner, count=3):
        self.inner, self.count = inner, count

    def round(self, rng):
        return [
            workloads.Op(op.cls, op.label, lambda call=op.call: _corrupt(call()), op.check)
            for op in self.inner.round(rng)[: self.count]
        ]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_a_corrupted_result_counts_as_failed(name):
    inner = _workload(name, subprocess=False)
    phase = run.run_phase(_Corrupting(inner), seed=3, seconds=0, min_ops=1, probe=run.fraction_probe())
    assert phase.samples
    assert phase.failed == len(phase.samples)


def test_an_op_that_raises_counts_as_failed():
    class Raising:
        def round(self, rng):
            return [workloads.Op("x", "x", lambda: 1 / 0, lambda r: None)]

    phase = run.run_phase(Raising(), seed=1, seconds=0, min_ops=2, probe=run.fraction_probe())
    assert phase.failed == len(phase.samples) == 2
    assert "ZeroDivisionError" in phase.failures[0]


def test_traced_run_reports_every_per_layer_metric_and_restores_bindings():
    original = hybridquat.lift_hybrid
    workload = _workload("lifts")
    tracer = tracing.Tracer(cap=1000)
    assert tracer.install() == []
    try:
        assert hybridquat.lift_hybrid is not original
        traced = run.run_phase(workload, seed=1, seconds=0, min_ops=1, probe=run.fraction_probe(), tracer=tracer)
    finally:
        tracer.uninstall()
    assert hybridquat.lift_hybrid is original
    assert traced.failed == 0
    metrics = run.per_layer(tracer, traced, traced, [0.1])
    assert set(metrics) == {name for name, _, _ in run.PER_LAYER}
    assert metrics["sequences.window_calls"] > 0
    assert metrics["scalars.split_square_calls"] > 0
    assert tracer.spans_seen > len(tracer.span_name) == 1000


def test_calls_made_between_ops_are_not_recorded():
    tracer = tracing.Tracer(cap=1000)
    tracer.install()
    try:
        hybridquat.QuadExt(1, 1, 5)  # the benchmark building an operand
        tracer.begin_op(0)
        hybridquat.QuadExt(1, 1, 5)
        tracer.end_op()
        hybridquat.QuadExt(1, 1, 5)  # the benchmark checking a result
    finally:
        tracer.uninstall()
    assert tracer.calls["scalars.split_square"] == 1
    assert list(tracer.span_op) == [0]


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "products", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""
