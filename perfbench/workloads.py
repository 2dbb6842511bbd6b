"""One benchmark workload in its own process: inputs, job loop, checks.

``run.py`` starts this file in a fresh interpreter with the BLAS/OpenMP
thread count pinned, so the peak RSS read here belongs to this workload
alone.  Every workload is a closed loop with one client: a job starts
when the previous one ends, and jobs start until ``--seconds`` have
passed (at least one; with ``--trace 1`` at least one untraced and one
traced, alternating).  Untraced job times are scaled to a reference
machine speed by :mod:`speed`.  Output checks run after each job,
outside its timed interval.  The last stdout line is one JSON object.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/workloads.py \
        --workload study-desk --seed 1 --seconds 10 --trace 0
"""

import argparse
import contextlib
import importlib.util
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import rtetomo.cli
from rtetomo.boundary import add_noise
from rtetomo.config import RunConfig, config_hash, geometry_of
from rtetomo.forward import default_ds
from rtetomo.geometry import GridSet
from rtetomo.serialize import read_boundary, read_iterations, read_keyvalues

import speed
import tracing
from run import THREADS

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
# Relative tolerance on synthesized boundary data against the reference:
# wide enough for a re-ordered quadrature (documented at <= 1e-12), far
# below any change in the physics or the discretization.
REFERENCE_RTOL = 1e-9
DESCENT_TOL = 1e-5

# Config keys per workload and size; "smoke" is the h = 0.1 variant the
# smoke test runs in seconds.  Keys absent here keep the CLI defaults
# (noiseless letter A at the production parameters).
SIZES = {
    "study-desk": {
        "full": {"h_forward": 0.05, "h_inverse": 0.1, "delta": 0.05},
        "smoke": {"h_forward": 0.1, "h_inverse": 0.1, "delta": 0.05},
    },
    "synth-prod": {
        "full": {"h_forward": 0.025, "h_inverse": 0.05},
        "smoke": {"h_forward": 0.1, "h_inverse": 0.1},
    },
    "descent-prod": {
        "full": {"h_forward": 0.05, "h_inverse": 0.05},
        "smoke": {"h_forward": 0.1, "h_inverse": 0.1},
    },
}
SMOKE_VERIFY = ["--pairs", "4", "--samples", "4"]

END_TO_END = {
    "job_s.p50": "s",
    "job_s.tail": "s",
    "peak_rss_mb": "MB",
    "contrast_err": "1",
    "l2_rel": "1",
    "centroid_offset_cells": "cells",
}
PER_LAYER = {
    "cmd.forward_s": "s",
    "cmd.invert_s": "s",
    "cmd.score_s": "s",
    "cmd.verify_s": "s",
    "forward.solve_s": "s",
    "forward.sweeps": "count",
    "forward.ballistic_s": "s",
    "forward.sweep_s": "s",
    "forward.samples": "count",
    "forward.samples_per_s": "1/s",
    "forward.field_mb": "MB",
    "inverse.unknowns": "count",
    "inverse.build_s": "s",
    "inverse.minimize_s": "s",
    "inverse.steps": "count",
    "inverse.value_calls": "count",
    "inverse.grad_calls": "count",
    "inverse.accept_ratio": "1",
    "inverse.value_s": "s",
    "inverse.grad_s": "s",
    "inverse.converged": "count",
    "carleman.gradient_check_s": "s",
    "carleman.convexity_s": "s",
    "carleman.estimate_s": "s",
    "carleman.objective_calls": "count",
    "serialize.write_s": "s",
    "serialize.read_s": "s",
    "serialize.bytes": "B",
    "boundary.s": "s",
    "recovery.s": "s",
    "setup.build_s": "s",
    **{f"{layer}.self_s": "s" for layer in tracing.LAYERS},
    **{f"{layer}.self_share": "1" for layer in tracing.LAYERS},
    "trace.overhead": "1",
}


class Job:
    """One closed-loop job: timings, outcome fields read back, failures.

    ``wall`` is the job's wall time; for untraced jobs ``seconds`` is that
    time scaled to the reference speed (:mod:`speed`) and ``probe_s`` the
    median probe time during the job.
    """

    def __init__(self, index, seed, tracer):
        self.index = index
        self.seed = seed
        self.tracer = tracer
        self.wall = None
        self.seconds = None
        self.probe_s = None
        self.cmd = {}
        self.failures = []
        self.boundary = None
        self.history = None
        self.quality = None
        self.verify_passed = None
        self.converged = None

    @contextlib.contextmanager
    def phase(self, name):
        t0 = time.perf_counter()
        span = self.tracer.span(f"cmd.{name}") if self.tracer else contextlib.nullcontext()
        with span:
            yield
        self.cmd[name] = self.cmd.get(name, 0.0) + time.perf_counter() - t0


def _cli(job, command, argv):
    out = io.StringIO()
    with job.phase(command), contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        rc = rtetomo.cli.main([command, *argv])
    if rc != 0:
        job.failures.append(f"{command} exited {rc}: {out.getvalue().strip()[-400:]}")
    return rc == 0


def _quality(body):
    return {
        "contrast_err": abs(float(body["contrast"]) - float(body["true_contrast"]))
        / float(body["true_contrast"]),
        "l2_rel": float(body["l2_rel"]),
        "centroid_offset_cells": float(body["centroid_offset_cells"]),
    }


class CliSession:
    """Jobs that run whole CLI commands through ``rtetomo.cli.main``."""

    def __init__(self, name, size, work):
        self.keys = SIZES[name][size]
        self.commands = ("forward", "invert", "score", "verify") if name == "study-desk" else (
            "forward", "invert", "score")
        self.verify_args = SMOKE_VERIFY if size == "smoke" else []
        self.work = work
        self.cfg_path = work / "session.cfg"
        self.cfg_path.write_text("".join(f"{k}={v!r}\n" for k, v in self.keys.items()))
        self.cfg = RunConfig(**self.keys)
        self.input_failures = []

    def job(self, job, lib):
        run = self.work / f"job{job.index}"
        common = ["--config", str(self.cfg_path), "--seed", str(job.seed)]
        argv = {
            "forward": [*common, "--out", str(run / "run")],
            "invert": [*common, "--out", str(run / "run")],
            "score": ["--run", str(run / "run")],
            "verify": [*common, "--out", str(run / "lab"), *self.verify_args],
        }
        with tracing.patched_cli(lib) if job.tracer else contextlib.nullcontext():
            for command in self.commands:
                if not _cli(job, command, argv[command]):
                    break

    def collect(self, job):
        """Read back what the commands wrote; a failed command leaves the
        later files missing, and :func:`check` reports the failure."""
        run = self.work / f"job{job.index}"
        files = {name: run / "run" / name for name in ("boundary.csv", "iterations.csv", "metrics.txt")}
        files["report.txt"] = run / "lab" / "report.txt"
        if files["boundary.csv"].exists():
            job.boundary = read_boundary(files["boundary.csv"])
        if files["iterations.csv"].exists():
            job.history = read_iterations(files["iterations.csv"])[:, 1]
        if files["metrics.txt"].exists():
            job.quality = _quality(read_keyvalues(files["metrics.txt"])[0])
        if files["report.txt"].exists():
            job.verify_passed = read_keyvalues(files["report.txt"])[0].get("passed") == "true"
        shutil.rmtree(run, ignore_errors=True)


class Descent:
    """Production-grid inversion to the study tolerance, in ``cmd_invert``'s order.

    The input is noiseless data synthesized before any timing; it counts
    toward no metric.
    """

    commands = ("invert",)

    def __init__(self, name, size, work, seed):
        self.cfg = RunConfig(**SIZES[name][size], seed=seed)
        self.work = work
        self.data = work / "data" / "boundary.csv"
        lib = tracing.library()
        cfg = self.cfg
        grid = lib.GridSet.uniform(geometry_of(cfg), cfg.h_forward)
        phantom = lib.make_phantom(cfg.letter, cfg.c_a, grid, cfg.mu_s)
        source = lib.SourceModel.build(cfg.sigma)
        kernel = lib.KernelModel(anisotropy=cfg.anisotropy, aperture_half_width=cfg.source_half_width)
        field = lib.solve_forward(phantom, source, kernel, grid)
        bds = lib.derive_boundary_data(
            lib.extract_boundary(field), grid, kernel, mu_s_value=cfg.mu_s, delta=cfg.delta, seed=cfg.seed
        )
        lib.write_boundary(bds, self.data, meta={"config_hash": config_hash(cfg)})
        self.input_failures = reference_failures(bds, cfg)

    def job(self, job, lib):
        cfg = self.cfg
        out = self.work / f"job{job.index}"
        with job.phase("invert"):
            bds = lib.read_boundary(self.data)
            coarse = lib.downsample_boundary(bds, cfg.downsample_factor)
            kernel = lib.KernelModel(anisotropy=cfg.anisotropy, aperture_half_width=cfg.source_half_width)
            objective = lib.CarlemanObjective(
                coarse, kernel, mu_s_value=cfg.mu_s, lam=cfg.lam, gamma=cfg.gamma, epsilon=cfg.epsilon
            )
            state = lib.minimize(objective, grad_tol=DESCENT_TOL)
            rec = lib.recover_attenuation(state.pair, kernel, mu_s_value=cfg.mu_s)
            mask = lib.make_phantom(cfg.letter, cfg.c_a, coarse.grid, cfg.mu_s).medium_block("mask")
            metrics = lib.score(rec, mask, cfg.c_a, mu_s_value=cfg.mu_s)
            meta = {"config_hash": config_hash(cfg)}
            lib.write_iterations(state.history, out / "iterations.csv", meta=meta)
            lib.write_pair(state.pair, out / "pair.csv", meta=meta)
            lib.write_reconstruction(rec, out / "reconstruction.csv", meta=meta)
            lib.write_keyvalues(
                out / "metrics.txt",
                {
                    **metrics,
                    "iterations": state.iterations,
                    "objective": state.value,
                    "grad_inf": state.grad_norm,
                    "converged": str(bool(state.converged)).lower(),
                },
                meta=meta,
            )
            lib.write_manifest(cfg, out / "manifest.txt")
        job.history = state.history[:, 1]
        job.quality = _quality(metrics)
        job.converged = bool(state.converged)

    def collect(self, job):
        shutil.rmtree(self.work / f"job{job.index}", ignore_errors=True)


def reference_failures(bds, cfg):
    """Compare the clean traces behind ``bds`` with the stored reference.

    Noisy data are divided by the noise factor the seed implies, which
    :func:`rtetomo.boundary.add_noise` reproduces from a unit trace.
    """
    ref = json.loads(REFERENCE.read_text())["h_forward"].get(repr(float(cfg.h_forward)))
    if ref is None:
        return [f"no reference for h_forward={cfg.h_forward}"]
    faces = bds.g
    if bds.delta > 0.0:
        factor = add_noise({k: np.ones_like(v) for k, v in faces.items()}, bds.delta, bds.seed)
        faces = {k: v / factor[k] for k, v in faces.items()}
    failures = []
    for face, want in ref.items():
        flat = faces[face].ravel()
        got = np.append(flat[want["index"]], np.abs(flat).sum())
        exp = np.append(want["g"], want["abs_sum"])
        err = float(np.max(np.abs(got - exp) / np.abs(exp)))
        if not err <= REFERENCE_RTOL:
            failures.append(f"boundary face {face!r} differs from the reference by {err:.3e} (relative)")
    return failures


def check(job, workload):
    """Append the output-check failures of a finished job."""
    if job.failures:
        return
    if job.boundary is not None:
        job.failures += reference_failures(job.boundary, workload.cfg)
    job.failures += workload.input_failures
    hist = job.history
    if hist is None or hist.size == 0 or not np.all(np.isfinite(hist)):
        job.failures.append("J history is empty or not finite")
    elif np.any(np.diff(hist) > 0.0):
        job.failures.append("J history increases")
    if job.verify_passed is False:
        job.failures.append("verify reported passed=false")
    if job.converged is False:
        job.failures.append(f"descent stopped before grad_tol={DESCENT_TOL}")
    if job.quality is None or not all(math.isfinite(v) for v in job.quality.values()):
        job.failures.append(f"quality metrics missing or not finite: {job.quality}")


def tail(values):
    """(percentile, value): the highest nearest-rank percentile with at
    least ten samples above it, or the maximum (p100) with fewer than 11."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    pct = math.floor(100.0 * (n - 10) / n)
    rank = max(1, math.ceil(pct / 100.0 * n))
    return float(pct), ordered[rank - 1]


def samples_per_sweep(grid):
    """Ray samples one sweep computes (from the quadrature's step rule):
    every (medium node above the floor, source) ray gets
    max(ceil(segment / ds) + 1, 2) samples."""
    floor = grid.geometry.slab_bottom
    ds = default_ds(grid)
    x1, z = grid.spatial_mesh("medium")
    keep = z.ravel() > floor + 1e-12
    tx, tz = x1.ravel()[keep], z.ravel()[keep]
    ell = np.hypot(tx[:, None] - grid.alpha[None, :], tz[:, None])
    seg = ell * (1.0 - floor / tz[:, None])
    return int(np.maximum(np.ceil(seg / ds).astype(np.int64) + 1, 2).sum())


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(tracer, traced, untraced, ballistic, cfg, commands):
    """Per-layer metrics: medians over traced jobs of per-job sums."""
    spans = tracer.spans
    own = tracer.self_times()
    per_job = []
    for job in traced:
        idx = [i for i, s in enumerate(spans) if s[4] == job.index]
        total = sum(spans[i][2] - spans[i][1] for i in idx if spans[i][0] == "bench.job")
        m = {f"{layer}.self_s": 0.0 for layer in tracing.LAYERS}
        m.update({k: 0.0 for k in PER_LAYER if k.startswith(("cmd.", "serialize.", "carleman."))})
        solve = sweeps = 0.0
        build = minimize = steps = converged = unknowns = values = grads = 0.0
        value_s, grad_s = [], []
        for i in idx:
            name, start, end, _, _, attrs = spans[i]
            layer = name.split(".")[0]
            dur = end - start
            up = tracer.ancestors(i)
            m[f"{layer}.self_s"] += own[i]
            if layer == "cmd":
                m[f"{name}_s"] += dur
            elif name == "forward.solve" and "cmd.forward" in up:
                solve += dur
                sweeps += attrs["sweeps"]
            elif name == "inverse.build" and "cmd.invert" in up:
                build += dur
                unknowns = attrs["unknowns"]
            elif name == "inverse.minimize":
                minimize += dur
                steps += attrs["steps"]
                converged = float(attrs["converged"])
            elif name in ("inverse.value", "inverse.grad"):
                (value_s if name == "inverse.value" else grad_s).append(dur)
                if "inverse.minimize" in up:
                    values += name == "inverse.value"
                    grads += name == "inverse.grad"
                if any(a.startswith("carleman.") for a in up):
                    m["carleman.objective_calls"] += 1
            elif name.startswith("carleman."):
                m[f"{name}_s"] += dur
            elif layer == "serialize":
                m[f"{name}_s"] += dur
                m["serialize.bytes"] += attrs.get("bytes", 0)
        for layer in tracing.LAYERS:
            m[f"{layer}.self_share"] = m[f"{layer}.self_s"] / total if total > 0 else 0.0
        m["boundary.s"] = m["boundary.self_s"]
        m["recovery.s"] = m["recovery.self_s"]
        m["setup.build_s"] = m["setup.self_s"]
        m.update({
            "forward.solve_s": solve,
            "forward.sweeps": sweeps,
            "inverse.unknowns": unknowns,
            "inverse.build_s": build,
            "inverse.minimize_s": minimize,
            "inverse.steps": steps,
            "inverse.value_calls": values,
            "inverse.grad_calls": grads,
            "inverse.accept_ratio": steps / values if values else 0.0,
            "inverse.value_s": _median(value_s),
            "inverse.grad_s": _median(grad_s),
            "inverse.converged": converged,
        })
        per_job.append(m)
    out = {k: _median([m[k] for m in per_job]) for k in per_job[0]}
    synth = "forward" in commands
    grid = GridSet.uniform(geometry_of(cfg), cfg.h_forward)
    samples = samples_per_sweep(grid) if synth else 0
    marching = out["forward.solve_s"] - ballistic
    out.update({
        "forward.ballistic_s": ballistic,
        "forward.sweep_s": marching / out["forward.sweeps"] if out["forward.sweeps"] else 0.0,
        "forward.samples": float(samples),
        "forward.samples_per_s": samples * out["forward.sweeps"] / marching if synth and marching > 0 else 0.0,
        "forward.field_mb": float(np.prod(grid.shape_hull)) * 8 / 1e6 if synth else 0.0,
        "trace.overhead": _median([j.wall for j in traced]) / _median([j.wall for j in untraced]) - 1.0,
    })
    return {k: out[k] for k in PER_LAYER}


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    backend = getattr(rtetomo.cli, "active_backend", None)
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "backend": backend() if backend else "n/a",
        "numba": importlib.util.find_spec("numba") is not None,
        "threads": {k: os.environ.get(k, "unset") for k in THREADS},
    }


def run(name, seed, seconds, trace, smoke, work):
    size = "smoke" if smoke else "full"
    if name == "descent-prod":
        workload = Descent(name, size, work, seed)
    else:
        workload = CliSession(name, size, work)
    tracer = tracing.Tracer() if trace else None
    traced_lib = tracing.library(tracer) if trace else None
    plain_lib = tracing.library()
    jobs = []
    start = time.perf_counter()
    while True:
        # With tracing, jobs alternate untraced/traced so both sides see the
        # same machine state; their ratio is the tracing overhead.
        traced = trace and len(jobs) % 2 == 1
        job = Job(len(jobs), seed, tracer if traced else None)
        lib = traced_lib if traced else plain_lib
        if traced:
            tracer.job = job.index
        # Untraced jobs carry the speed probe; traced ones keep their spans clean.
        probe = contextlib.nullcontext() if traced else speed.SpeedProbe()
        with probe:
            t0 = time.perf_counter()
            try:
                with tracer.span("bench.job") if traced else contextlib.nullcontext():
                    workload.job(job, lib)
            except Exception:  # a job boundary: record and keep measuring
                job.failures.append(traceback.format_exc(limit=3).strip())
            job.wall = time.perf_counter() - t0
        if traced:
            tracer.job = None
        else:
            job.seconds = probe.scaled(job.wall)
            job.probe_s = statistics.median(probe.samples)
        try:
            workload.collect(job)
            check(job, workload)
        except Exception:
            job.failures.append(traceback.format_exc(limit=3).strip())
        jobs.append(job)
        enough = len(jobs) >= (2 if trace else 1)
        if enough and time.perf_counter() - start >= seconds:
            break

    ballistic = 0.0
    if trace and "forward" in workload.commands:
        # forward.ballistic_s: one traced u0_field call at the synthesis grid.
        cfg = workload.cfg
        tracer.job = "ballistic"
        grid = traced_lib.GridSet.uniform(geometry_of(cfg), cfg.h_forward)
        phantom = traced_lib.make_phantom(cfg.letter, cfg.c_a, grid, cfg.mu_s)
        source = traced_lib.SourceModel.build(cfg.sigma)
        with tracer.span("bench.ballistic"):
            traced_lib.u0_field(phantom, source, grid)
        ballistic = next(
            e - s for n, s, e, _, j, _ in tracer.spans if n == "forward.ballistic" and j == "ballistic"
        )

    failed = [j for j in jobs if j.failures]
    scored = [j for j in jobs if j.quality is not None]
    times = [j.seconds for j in jobs if j.tracer is None]
    pct, tail_value = tail(times)
    cmd = {c: _median([j.cmd[c] for j in jobs if c in j.cmd and j.tracer is None]) for c in workload.commands}
    if trace:
        metrics = layer_metrics(
            tracer, [j for j in jobs if j.tracer], [j for j in jobs if j.tracer is None],
            ballistic, workload.cfg, workload.commands,
        )
        units = PER_LAYER
    else:
        metrics = {
            "job_s.p50": _median(times),
            "job_s.tail": tail_value,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        for key in ("contrast_err", "l2_rel", "centroid_offset_cells"):
            metrics[key] = _median([j.quality[key] for j in scored]) if scored else float("nan")
        units = END_TO_END
    summary = {
        "workload": name,
        "seed": seed,
        "size": size,
        "trace": int(trace),
        "environment": environment(),
        "jobs": len(jobs),
        "untraced_jobs": len(times),
        "failed": len(failed),
        "error_rate": len(failed) / len(jobs),
        "job_s_tail_percentile": pct,
        "job_wall_s": [round(j.wall, 6) for j in jobs],
        "job_s": [round(j.seconds, 6) for j in jobs if j.tracer is None],
        "job_probe_s": [round(j.probe_s, 7) for j in jobs if j.tracer is None],
        "job_wall_s.p50": _median([j.wall for j in jobs if j.tracer is None]),
        "job_cmd_s": [{c: round(t, 6) for c, t in j.cmd.items()} for j in jobs],
        "cmd_s": cmd,
        "failures": [f"job {j.index}: {j.failures[0]}" for j in failed],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    if trace:
        summary["spans"] = tracer.rows()
    return summary


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SIZES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="h = 0.1 inputs that run in seconds")
    ap.add_argument("--workdir", required=True, help="directory that holds the job artifacts")
    args = ap.parse_args(argv)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.workdir))
    try:
        summary = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
