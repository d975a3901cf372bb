"""Tests of the benchmark itself: smoke runs, tamper detection, traced = untraced work."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run._import_package()

import tracing  # noqa: E402
import workloads  # noqa: E402


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload, trace", [("steer-verify", 0), ("shape-fuel", 0), ("export-cli", 1)])
def test_smoke_runs_every_workload(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3", "--trace", str(trace), "--smoke"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 9
    # the only failure is the fixed shooting probe, once per smoke round
    assert result["failed"] == (1 if workload == "steer-verify" else 0), proc.stderr
    if trace:
        assert list(result["metrics"]) == [name for name, _, _ in tracing.PER_LAYER]
        for name in ("cli.main.self_ms", "dynamics.Trajectory.to_csv.self_ms", "cli.bytes_out_mb"):
            assert result["metrics"][name]["value"] > 0, name


def test_tampered_results_fail_their_checks():
    rng = np.random.default_rng(11)
    fuel = workloads.fuel_op(rng, "chebyshev_second", 3, workloads.SHIFTED)
    report = fuel.run()
    assert fuel.check(report) == []
    assert fuel.check(dataclasses.replace(report, c1=report.c1 * (1.0 + 1e-6)))

    plan = workloads.nhi_op(rng, "legendre", workloads.CANONICAL)
    predicted, terminal = plan.run()
    assert plan.check((predicted, terminal)) == []
    shifted = dict(terminal, x3=terminal["x3"] + 1e-6 * max(1.0, abs(terminal["x3"])))
    assert plan.check((predicted, shifted))

    attitude = workloads.so3_constant_op(rng)
    params, g_end = attitude.run()
    assert attitude.check((params, g_end)) == []
    assert attitude.check((params, workloads.oracle.rodrigues([0.0, 0.0, 1e-6]) @ g_end))


@pytest.mark.parametrize("workload, layer", [("steer-verify", "steering.plan_nhi"), ("shape-fuel", "fuel_l1.fuel_min")])
def test_traced_and_untraced_runs_attempt_the_same_operations(workload, layer):
    def attempted(tracer):
        with run._OutDir() as ctx:
            m = run.measure(workload, 5, 0.0, ctx, tracer=tracer, smoke=True, max_rounds=2)
        return m.labels, m.failed

    tracer = tracing.Tracer()
    assert attempted(None) == attempted(tracer)
    assert layer in {name for name, *_ in tracer.spans}


def test_harrell_davis_estimates_quantiles():
    x = np.random.default_rng(2).normal(10.0, 1.0, 4000)
    assert run.harrell_davis(x, 0.5) == pytest.approx(np.median(x), abs=0.02)
    assert run.harrell_davis(x, 0.9) == pytest.approx(np.percentile(x, 90), abs=0.03)
    assert run.harrell_davis([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == pytest.approx(3.0)


def test_benchmark_json_lists_what_the_harness_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.ROUNDS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    metrics = tracing.Tracer().metrics(1, {}, 0.2, 1.0)
    assert list(metrics) == [m["name"] for m in spec["per_layer"]]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "steer-verify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
