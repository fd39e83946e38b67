#!/usr/bin/env python3
"""Re-measure the numbers of the ROADMAP Baseline table.

    python3 perfbench/baseline.py

Run from the root of a source checkout. Prints, as in the ROADMAP (each
timing the best of 3 runs with time.perf_counter):

- µs per round of a 50k-round session: honest at control_prob 0.5, and
  backward-IR-Z with message rounds only;
- seconds of abort_probability for backward-IR-Z at check fraction 0.1,
  n in {100, 200} x thr in {0, 3} (one run each);
- the share of cProfile'd session time under TwoQubitState.__post_init__;
- peak RSS of a report-only honest run at 50k and 200k rounds, each in a
  fresh process.

It takes about two minutes on a 2-CPU machine.
"""

import cProfile
import os
import pathlib
import pstats
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import qdkd  # noqa: E402

BACKWARD_Z = qdkd.InterceptResend(qdkd.ChannelLeg.BACKWARD, qdkd.EveBasisPolicy.Z)
ROUNDS = 50_000

RSS_CHILD = """
import resource, qdkd
qdkd.run_simulation(qdkd.SimConfig(rounds={rounds}, seed=5))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


def us_per_round(config) -> float:
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        qdkd.run_simulation(config)
        best = min(best, time.perf_counter() - t0)
    return best / config.rounds * 1e6


def validation_share(config) -> float:
    profile = cProfile.Profile()
    profile.runcall(qdkd.run_simulation, config)
    stats = pstats.Stats(profile)
    inside = sum(
        row[3] for (filename, _line, name), row in stats.stats.items() if name == "__post_init__" and filename.endswith("quantum.py")
    )
    return inside / stats.total_tt


def peak_rss_mb(rounds: int) -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, "-c", RSS_CHILD.format(rounds=rounds)], env=env, capture_output=True, text=True, check=True
    )
    return float(out.stdout.strip())


def main():
    honest = qdkd.SimConfig(rounds=ROUNDS, control_prob=0.5, seed=5)
    backward = qdkd.SimConfig(rounds=ROUNDS, control_prob=0.0, check_fraction=0.0, attack=BACKWARD_Z, seed=5)
    print(f"session, honest, control_prob 0.5: {us_per_round(honest):.1f} us/round")
    print(f"session, backward-IR-Z, message rounds only: {us_per_round(backward):.1f} us/round")
    for n in (100, 200):
        for thr in (0, 3):
            t0 = time.perf_counter()
            qdkd.abort_probability(BACKWARD_Z, qdkd.KeyCheckPolicy(0.1, thr), n)
            print(f"abort_probability, backward-IR-Z, n={n} thr={thr}: {time.perf_counter() - t0:.2f} s")
    share = validation_share(qdkd.SimConfig(rounds=20_000, control_prob=0.5, seed=5))
    print(f"share of profiled session time in TwoQubitState.__post_init__: {share:.0%}")
    for rounds in (50_000, 200_000):
        print(f"peak RSS, report-only honest run, {rounds} rounds: {peak_rss_mb(rounds):.0f} MB")


if __name__ == "__main__":
    main()
