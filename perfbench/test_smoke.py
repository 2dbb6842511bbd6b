"""Smoke test of the benchmark: every workload's code path, the output
checks and the traced run, at h = 0.1 so the whole file runs in seconds.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import speed
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _names(kind):
    return [m["name"] for m in SPEC[kind]]


def test_spec_matches_the_metrics_the_workloads_report():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.SIZES)
    assert ["setup_s", *workloads.END_TO_END] == _names("end_to_end")
    assert list(workloads.PER_LAYER) == _names("per_layer")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.SIZES))
def test_workload_runs_and_passes_its_checks(name, trace, tmp_path):
    summary = workloads.run(name, seed=1, seconds=0, trace=bool(trace), smoke=True, work=tmp_path)
    assert summary["failures"] == []
    assert summary["jobs"] == (2 if trace else 1)
    metrics = {k: v["value"] for k, v in summary["metrics"].items()}
    assert list(metrics) == list(workloads.PER_LAYER if trace else workloads.END_TO_END)
    assert all(np.isfinite(v) for v in metrics.values())
    if not trace:
        assert all(v > 0 for v in metrics.values())
        return
    spans = summary["spans"]
    assert {s["name"] for s in spans} >= {"bench.job", "cmd.invert", "inverse.minimize", "inverse.grad"}
    assert all(s["end"] >= s["start"] for s in spans)
    assert metrics["inverse.unknowns"] > 0 and metrics["serialize.bytes"] > 0
    shares = sum(metrics[f"{layer}.self_share"] for layer in workloads.tracing.LAYERS)
    assert shares == pytest.approx(1.0, abs=1e-6)
    if name == "descent-prod":
        assert metrics["inverse.converged"] == 1 and metrics["forward.solve_s"] == 0
    else:
        assert metrics["forward.sweeps"] > 0 and metrics["forward.ballistic_s"] > 0
    if name == "study-desk":
        assert metrics["carleman.objective_calls"] > 0


def test_reference_check_allows_roundoff_and_catches_real_changes(tmp_path):
    cfg = workloads.RunConfig(**workloads.SIZES["study-desk"]["smoke"], seed=5)
    workloads.CliSession("study-desk", "smoke", tmp_path)
    assert workloads.rtetomo.cli.main(
        ["forward", "--config", str(tmp_path / "session.cfg"), "--seed", "5", "--out", str(tmp_path)]
    ) == 0
    bds = workloads.read_boundary(tmp_path / "boundary.csv")
    assert workloads.reference_failures(bds, cfg) == []
    top = bds.g["top"].copy()
    bds.g["top"] = top * (1.0 + 1e-12)
    assert workloads.reference_failures(bds, cfg) == []
    bds.g["top"] = top * (1.0 + 1e-7)
    assert len(workloads.reference_failures(bds, cfg)) == 1


def test_a_failed_job_counts_against_the_run(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "DESCENT_TOL", 1e-30)
    original = workloads.tracing.rtetomo.inverse.minimize

    def capped(objective, **kwargs):
        return original(objective, **{**kwargs, "max_iters": 3})

    monkeypatch.setattr(workloads.tracing.rtetomo.inverse, "minimize", capped)
    summary = workloads.run("descent-prod", seed=1, seconds=0, trace=False, smoke=True, work=tmp_path)
    assert summary["failed"] == summary["jobs"] == 1
    assert "descent stopped" in summary["failures"][0]


def test_speed_probe_samples_during_the_job_and_removes_its_own_time():
    with speed.SpeedProbe() as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 3.5 * speed.PROBE_PERIOD_S:
            sum(range(1000))
        wall = time.perf_counter() - t0
    assert len(probe.samples) >= 3 and probe.spent > 0
    want = (wall - probe.spent) * speed.PROBE_REF_S / statistics.median(probe.samples)
    assert probe.scaled(wall) == pytest.approx(want)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond_it():
    assert workloads.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)
    values = [float(v) for v in range(1, 21)]
    assert workloads.tail(values) == (50.0, 10.0)


def test_run_prints_the_result_line_last():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "descent-prod", "--seed", "2",
         "--seconds", "0", "--trace", "0", "--smoke"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 1 and result["failed"] == 0
    assert list(result["metrics"]) == _names("end_to_end")
    assert all(set(m) == {"value", "unit"} for m in result["metrics"].values())


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "study-desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
