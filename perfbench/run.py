#!/usr/bin/env python3
"""Benchmark of qdkd: simulated sessions and exact oracle queries.

Run from the root of a source checkout; the package is imported from ./src
and nothing is installed:

    python3 perfbench/run.py --workload long-session --seed 1 --seconds 30 --trace 0

Workloads: long-session, short-sessions, oracle-abort (see NOTES.md). The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the end-to-end
metrics of BENCHMARK.json, measured untraced; with --trace 1 they are the
per-layer metrics of a separate traced run of one fixed cycle. The line
before it holds the details: machine, sample counts and failures.
"""

import os

# The workloads are single-threaded closed loops; keep numpy's BLAS and
# OpenMP pools at one thread, here and in the set-up child processes.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import pathlib
import platform
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("long-session", "short-sessions", "oracle-abort")
SETUP_RUNS = 7

# Child process of one setup_s sample: import qdkd, make the workload's
# warm-up call, print the seconds both took and the median time of the
# reference work that converts them to nominal seconds. Importing the
# benchmark's own modules in between is not timed.
SETUP_CHILD = """
import statistics, sys, time
t0 = time.perf_counter()
import qdkd
t1 = time.perf_counter()
sys.path.insert(0, {bench!r})
import workloads
t2 = time.perf_counter()
workloads.warm_up({workload!r})
elapsed = t1 - t0 + time.perf_counter() - t2
print(elapsed, statistics.median(workloads.time_reference() for _ in range(5)))
"""


def setup_seconds(workload: str, runs: int) -> tuple[float, float]:
    """Median over fresh processes of import plus one warm-up call, in
    nominal and in wall seconds. One unmeasured process first fills the
    bytecode and file caches."""
    import workloads

    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = SETUP_CHILD.format(bench=str(pathlib.Path(__file__).resolve().parent), workload=workload)
    nominal, wall = [], []
    for i in range(runs + 1):
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True
        )
        if i:
            elapsed, reference = map(float, out.stdout.split()[-2:])
            nominal.append(elapsed * workloads.REFERENCE_NOMINAL_S / reference)
            wall.append(elapsed)
    return statistics.median(nominal), statistics.median(wall)


def machine() -> dict:
    import numpy
    import qdkd

    info = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "qdkd": getattr(qdkd, "__version__", None),
    }
    if hasattr(qdkd, "active_backend"):
        info["active_backend"] = qdkd.active_backend()
    return info


def parse_args(argv):
    parser = argparse.ArgumentParser(description="qdkd benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"), help="tiny: for the benchmark's tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qdkd" / "__init__.py").is_file():
        print(f"error: no qdkd sources at {SRC}; run from the root of a qdkd checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.trace:
        tally, metrics, details = workloads.trace(args.workload, args.size, args.seed)
    else:
        setup = setup_seconds(args.workload, 3 if args.size == "tiny" else SETUP_RUNS)
        tally, details = workloads.measure(args.workload, args.size, args.seed, args.seconds)
        metrics, samples = workloads.end_to_end(tally, setup, details.pop("peak_rss_mb"))
        details.update(samples)
    details.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        machine=machine(),
        op_failure_rate=tally.failed / tally.attempted,
        failures=tally.failures,
    )
    for failure in tally.failures:
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps({"details": details}))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
