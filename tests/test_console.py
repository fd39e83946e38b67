"""Console tests: the command line as a user runs it, in a fresh process.

Each test runs `python -m qdkd` and, when shutil.which finds one, the
installed `qdkd` script of [project.scripts] too. The checks cover the
exact oracle's 20 s limits at large n, the peak RSS of a 10^6-round run,
exit codes, a check fraction counted as written, and report bytes that
equal json.dumps's and do not depend on the string hash seed.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

RUNNERS = {"module": [sys.executable, "-m", "qdkd"]}
if (script := shutil.which("qdkd")) is not None:
    RUNNERS["script"] = [script]

# Runs the command in its argv, with stdout discarded, and prints its exit
# code and peak RSS in MB. A fresh small process is the parent, so the peak
# is the command's own: a child's ru_maxrss starts from its parent's at fork.
PEAK_RSS = """
import resource, subprocess, sys
code = subprocess.call(sys.argv[1:], stdout=subprocess.DEVNULL)
print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)
"""


@pytest.fixture(params=list(RUNNERS))
def qdkd(request):
    """The argv prefix that runs the command line."""
    return RUNNERS[request.param]


def run(command, *args, **kwargs):
    """Run the command line with args; stdout and stderr are bytes."""
    return subprocess.run([*command, *args], capture_output=True, **kwargs)


@pytest.mark.parametrize(
    "args",
    [
        ("table",),
        ("oracle", "--attack", "backward-ir", "--message-rounds", "10"),
        ("oracle", "--key-mode", "single", "--message-rounds", "10"),
        ("run", "--rounds", "200", "--seed", "7"),
        ("run", "--rounds", "200", "--seed", "7", "--key-mode", "single"),
    ],
    ids=["table", "oracle-backward", "oracle-single", "run", "run-single"],
)
def test_command_exits_0(qdkd, args):
    proc = run(qdkd, *args)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("message_rounds", [10_000, 40_000])
def test_oracle_answers_large_n_within_20_s(qdkd, message_rounds):
    # About 0.3 and 0.8 s, start-up included, on 2 shared CPUs.
    args = ("--attack", "backward-ir", "--eve-basis", "random", "--message-rounds")
    proc = run(qdkd, "oracle", *args, str(message_rounds), timeout=20)
    assert proc.returncode == 0, proc.stderr


def test_control_prob_1_runs_only_control_rounds(qdkd):
    proc = run(qdkd, "run", "--rounds", "200", "--seed", "7", "--control-prob", "1")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["control_rounds"] == 200


@pytest.mark.parametrize(
    "args",
    [
        ("--attack", "backward-ir", "--eve-basis", "random", "--check-fraction", "0"),
        # The forward-random session walks the largest round table.
        ("--attack", "forward-ir", "--eve-basis", "random", "--control-prob", "0",
         "--check-fraction", "0"),
    ],
    ids=["backward-random", "forward-random"],
)
def test_report_bytes_are_json_dumps_under_any_hash_seed(qdkd, args):
    """A seeded report does not depend on the process's string hash seed,
    and its bytes are what json.dumps(indent=2) writes, plus a newline."""
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = run(qdkd, "run", "--rounds", "400", "--seed", "3", *args, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0] == (json.dumps(json.loads(outputs[0]), indent=2) + "\n").encode()


def test_check_fraction_counts_as_written(qdkd):
    # 50 message rounds give 200 key bits. 0.035 of them is 7, though the
    # double product 0.035 * 200 lies above 7.
    args = ("run", "--rounds", "50", "--control-prob", "0", "--check-fraction", "0.035")
    proc = run(qdkd, *args)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["final_key_length"] == 193


def test_forward_attack_exits_2(qdkd):
    proc = run(qdkd, "run", "--rounds", "200", "--seed", "7", "--attack", "forward-ir")
    assert proc.returncode == 2, proc.stderr


def test_million_round_run_aborts_within_100_mb(qdkd):
    """A report-only backward attack of 10^6 rounds (4M-bit keys) aborts
    with exit code 2 in at most 100 MB of peak RSS, since keys are stored
    as bytes."""
    args = ("run", "--rounds", "1000000", "--control-prob", "0", "--attack", "backward-ir",
            "--seed", "1")
    proc = run([sys.executable, "-c", PEAK_RSS], *qdkd, *args, check=True)
    code, peak_mb = proc.stdout.split()
    code, peak_mb = int(code), float(peak_mb)
    print(f"qdkd run, 10^6 rounds: exit code {code}, peak RSS {peak_mb:.0f} MB")
    assert code == 2
    assert peak_mb <= 100


def test_bad_option_exits_1_without_traceback(qdkd):
    """A bad option exits 1 with a usage error and no traceback, which the
    exit code alone cannot tell apart."""
    proc = run(qdkd, "oracle", "--check-fraction", "2")
    stderr = proc.stderr.decode()
    assert proc.returncode == 1
    assert any(line.startswith("qdkd: error:") for line in stderr.splitlines())
    assert "Traceback" not in stderr
