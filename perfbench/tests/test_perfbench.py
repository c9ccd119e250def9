"""The benchmark's own tests: percentile rule, fail counting, seeds, smoke runs.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import metrics
import run
import worker
import xchan.dilation
from spans import NullTracer, self_times
from stats import beyond, percentile, tail_ok
from workloads import WORKLOADS, Gate, GateFailure, bind, item_seed

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERFBENCH)


def test_p90_needs_ten_samples_beyond_it():
    assert beyond(100, 90) == 10 and tail_ok(100, 90)
    assert beyond(99, 90) == 9 and not tail_ok(99, 90)
    assert tail_ok(20, 50) and not tail_ok(19, 50)


def test_percentile_is_nearest_rank():
    samples = list(range(100, 0, -1))
    assert percentile(samples, 90) == 90
    assert percentile(samples, 50) == 50
    assert percentile([3.0], 90) == 3.0


def test_gate_counts_a_wrong_residual_as_failure():
    gate = Gate()
    gate.check("channels", 2, "round trip", 1e-12, 1e-9)
    with pytest.raises(GateFailure):
        gate.check("channels", 2, "round trip", 2e-9, 1e-9)
    with pytest.raises(GateFailure):
        gate.check("channels", 2, "round trip", float("nan"), 1e-9)
    assert gate.by_layer()["channels"] == float("inf")


def test_injected_residual_fails_every_item(tmp_path, monkeypatch):
    original = xchan.dilation.evolve_via_dilation

    def skewed(model, rho):
        out = original(model, rho).mat.copy()
        out[0, 0] += 1e-6
        out[-1, -1] -= 1e-6
        return xchan.DensityMatrix(out)

    monkeypatch.setattr(xchan.dilation, "evolve_via_dilation", skewed)
    wl = WORKLOADS["population"](0, str(tmp_path))
    wl.setup()
    phase = worker.run_phase(wl, 0.0, NullTracer())
    assert phase.items == 3
    assert len(phase.failures) == 3
    assert all("dilation agreement" in f for f in phase.failures)


def recorded_inputs(seed, path):
    """Arguments of every xchan call in one population cycle at this seed."""
    wl = WORKLOADS["population"](seed, path)
    wl.setup()
    calls = []
    api = bind()
    for name, fn in vars(api).items():
        def record(*args, _name=name, _fn=fn, **kwargs):
            calls.append((_name, [a for a in args if isinstance(a, (int, float))],
                          sorted(kwargs.items())))
            return _fn(*args, **kwargs)
        setattr(api, name, record)
    wl.api = api
    for i in range(wl.cycle):
        wl.item(i)
    return calls


def test_seed_fixes_the_inputs(tmp_path):
    assert item_seed(5, 7) == item_seed(5, 7) != item_seed(6, 7)
    a, b, c = (recorded_inputs(seed, str(tmp_path)) for seed in (5, 5, 6))
    assert a == b
    assert [name for name, *_ in a] == [name for name, *_ in c]
    assert a != c


def test_self_time_subtracts_covered_child_intervals():
    spans = [["bench.item", 0.0, 10.0, -1, 0, 2, 2],
             ["channels.choi", 1.0, 4.0, 0, 0, 2, 2],
             ["channels.apply", 3.0, 6.0, 0, 0, 2, 2]]
    assert self_times(spans) == [5.0, 3.0, 3.0]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_one_cycle_per_workload(name, tmp_path):
    wl = WORKLOADS[name](1, str(tmp_path))
    wl.setup()
    phase = worker.run_phase(wl, 0.0, NullTracer())
    assert phase.items == wl.cycle
    assert phase.failures == []


def test_traced_metrics_are_named_in_the_scheme(tmp_path, monkeypatch):
    monkeypatch.setattr(worker, "OUT_DIR", str(tmp_path))
    wl = WORKLOADS["population"](1, str(tmp_path))
    wl.setup()
    got, phases = worker.traced_result(wl, 0.2, "test-population")
    known = {name for name, *_ in metrics.PER_LAYER}
    # Call times are reported only at the N listed in metrics.US_P50_AT.
    timed = {name for name in got if ".us_p50.n" in name}
    assert set(got) - timed <= known
    assert "channels.apply.us_p50.n3" in timed & known
    assert got["channels.apply.calls"] > 0 and got["states.busy_share"] > 0
    assert all(not p.failures for p in phases)
    rows = json.loads((tmp_path / "test-population.rows.json").read_text())
    pairs = {(r["function"], r["N"]) for r in rows}
    assert {("apply", n) for n in (2, 3, 4)} | {("bloch_affine", 2)} <= pairs
    assert {n for _, n in pairs} == {2, 3, 4}


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(metrics.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == list(run.WORKLOADS)


def run_bench(cwd, workload="population", seconds="0.3"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", seconds, "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_run_prints_the_end_to_end_metrics_last():
    proc = run_bench(ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [name for name, *_ in metrics.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
