"""sqdist benchmark: closed-loop workloads timed end to end, or traced per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload scan|query|verify --seed N \
        --seconds S --trace 0|1

Each run is a single-process closed loop with one client: the next op starts
only when the previous one has returned.  Ops call the public entry points in
process: ``sqdist.cli.run(argv)`` with stdout captured, or
``sqdist.oracle.verify_partition`` plus the BFS cross-check.  Every output is
checked against the reference recorded at the seed commit (see checks.py).
Workloads and why each exists are described in ops.py and README.md.

This launcher pins the environment (BLAS/OpenMP threads 1, no SQDIST_*
variables, sqdist imported from this checkout's ``src``), then starts fresh
interpreters running worker.py: several that only set up, to time set-up,
and one that runs the workload.  It prints a readable summary and, as the
last line, the JSON result.  With ``--trace 0`` the metrics are the
end-to-end ones, with ``--trace 1`` the per-layer ones.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("scan", "query", "verify")
SETUP_RUNS = 9  # set-up is timed this many times per run; the median counts
DEADLINE_S = 170

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
)
CLEARED_VARS = ("SQDIST_THREADS", "SQDIST_PURE_NUMPY")
UNITS = {"items_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms", "peak_rss_mb": "MB"}


def pinned_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_VARS}
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def environment_record(env) -> dict:
    probe = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return {
        "python": platform.python_version(),
        "numpy": probe.stdout.strip(),
        "numba_present": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "pinned": {k: env[k] for k in THREAD_VARS},
        "cleared": list(CLEARED_VARS),
    }


class WorkerFailed(Exception):
    pass


def start_worker(args, env, setup_only: bool, deadline: float):
    """Start a worker and wait for READY; returns it and its set-up time."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    t1 = perf_counter()
    if line.strip() != "READY":
        finish(proc, deadline)
        raise WorkerFailed(f"worker did not get ready (exit code {proc.returncode})")
    return proc, t0, t1


def time_setups(args, env, deadline: float) -> list[float]:
    """Set-up times of SETUP_RUNS set-up-only workers, as measured.

    Unlike op times these are not scaled to the reference speed: process
    start and imports follow the probe less closely than computation does,
    and scaling widened their spread.
    """
    setups = []
    for _ in range(SETUP_RUNS):
        proc, t0, t1 = start_worker(args, env, True, deadline)
        finish(proc, deadline)
        if proc.returncode != 0:
            raise WorkerFailed(f"set-up worker exited with {proc.returncode}")
        setups.append(t1 - t0)
    return setups


def finish(proc, deadline: float) -> str:
    """Wait for a worker within the deadline; returns the rest of its stdout."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerFailed("worker ran past the deadline and was killed")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description="sqdist benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "sqdist", "__init__.py")):
        print(f"error: no sqdist sources under {SRC}", file=sys.stderr)
        return 2
    deadline = perf_counter() + DEADLINE_S
    env = pinned_env()
    try:
        setups = time_setups(args, env, deadline)
        proc, _, _ = start_worker(args, env, False, deadline)
        out = finish(proc, deadline)
        if proc.returncode != 0:
            raise WorkerFailed(f"worker exited with {proc.returncode}")
        raw = json.loads(out.strip().splitlines()[-1])
        record = environment_record(env)
    except (WorkerFailed, OSError, ValueError, IndexError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        import spans

        metrics = {k: {"value": raw["metrics"][k], "unit": spans.unit_of(k)} for k in spans.PER_LAYER}
    else:
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in raw["metrics"].items()}
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    attempted, failed = raw["attempted"], raw["failed"]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + json.dumps(record))
    print("info " + json.dumps(raw["info"]))
    if not args.trace:
        print("setup s " + json.dumps([round(s, 4) for s in setups]))
    for failure in raw["failures"]:
        print(f"FAILED {failure}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'fail_ratio':32s} {failed / attempted:>16.6g} 1")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
