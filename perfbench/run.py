"""Benchmark entry point: one workload per fresh, thread-pinned process.

    python3 perfbench/run.py --workload study-desk --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Run from the root of a source checkout; nothing is installed, the
package is imported from ``src``.  ``setup_s`` is the median time of
fresh interpreters that import ``rtetomo.cli`` (after one discarded
start that fills the bytecode cache), scaled like every job time to a
reference machine speed (``speed.py``).  The workload then runs in its own
interpreter (``workloads.py``).  Human-readable lines go to stdout and
the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full record, spans included, is written
to ``.perfbench_out/``.  Exit status is nonzero, with no result line,
when the source tree is missing or the workload process fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("study-desk", "synth-prod", "descent-prod")
# One BLAS/OpenMP thread: on a 2-core machine, two threads made the desk
# forward solve range over 1.88-2.51 s between runs.
THREADS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMBA_NUM_THREADS": "1",
}
SETUP_STARTS = 3
DEADLINE_S = 170.0


def environment():
    env = dict(os.environ, **THREADS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def setup_seconds(env):
    """Median set-up time of fresh interpreters importing ``rtetomo.cli``.

    Each interpreter then runs the speed probe; its wall time, less the
    probing, is scaled by its own probe times (see ``speed.py``).
    """
    env = dict(env, PYTHONPATH=str(HERE) + os.pathsep + env["PYTHONPATH"])
    cmd = [sys.executable, "-c", "import rtetomo.cli, speed; speed.report_after_import()"]
    times = []
    for i in range(SETUP_STARTS + 1):
        t0 = time.perf_counter()
        out = subprocess.run(
            cmd, env=env, cwd=ROOT, check=True, timeout=60, stdout=subprocess.PIPE, text=True
        ).stdout
        wall = time.perf_counter() - t0
        *samples, spent = (float(v) for v in out.split())
        if i:
            times.append(speed.scale(wall, samples, spent))
    return statistics.median(times)


def run_workload(name, args, env, deadline):
    setup = setup_seconds(env)
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    cmd = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--workdir", str(work),
    ] + (["--smoke"] if args.smoke else [])
    proc = subprocess.run(
        cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload {name} exited {proc.returncode}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = setup
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    path = out / f"{name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n")

    metrics = dict(record["metrics"])
    if not args.trace:
        metrics = {"setup_s": {"value": setup, "unit": "s"}, **metrics}
    env_rec = record["environment"]
    print(f"== {name}  seed={args.seed}  seconds={args.seconds}  trace={args.trace}"
          f"{'  smoke' if args.smoke else ''}")
    print("   env: " + ", ".join(f"{k}={v}" for k, v in env_rec.items() if k != "threads"))
    print("   threads: " + ", ".join(f"{k}={v}" for k, v in env_rec["threads"].items()))
    print(f"   jobs: {record['jobs']} attempted, {record['failed']} failed, "
          f"error_rate {record['error_rate']:.3g} (1)")
    print(f"   job_s.tail is p{record['job_s_tail_percentile']:g} "
          f"of {record['untraced_jobs']} untraced job(s); job wall time p50 "
          f"{record['job_wall_s.p50']:.6g} s before scaling by the speed probe")
    for command, seconds in record["cmd_s"].items():
        print(f"   cmd.{command}_s = {seconds:.6g} s (median, untraced)")
    for key, entry in metrics.items():
        print(f"   {key} = {entry['value']:.6g} {entry['unit']}")
    for failure in record["failures"]:
        print(f"   FAILED {failure}", file=sys.stderr)
    print(f"   record: {path.relative_to(ROOT)}")
    return {
        "correct": record["failed"] == 0,
        "attempted": record["jobs"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="h = 0.1 inputs that run in seconds")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "rtetomo" / "__init__.py").is_file():
        print(f"error: no rtetomo source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = environment()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    try:
        results = {name: run_workload(name, args, env, deadline) for name in names}
    except (subprocess.SubprocessError, RuntimeError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
