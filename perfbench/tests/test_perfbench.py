"""Tests of the benchmark itself. From the root of the checkout:

    python -m pytest perfbench/tests -q
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _run(workload, trace, cwd=ROOT):
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "1"]
    command += ["--trace", str(trace), "--size", "tiny"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    out = _run(workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    values = [v["value"] for v in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) for v in values)
    if trace == 0:
        assert all(v > 0 for v in values)


def test_wrong_recorded_oracle_value_raises_failure_rate(monkeypatch):
    point = workloads.ABORT_POINTS[0]
    monkeypatch.setitem(gate.RECORDED_ABORT, point.key(workloads.SIZES["tiny"]), "1/3")
    tally, _ = workloads.measure("oracle-abort", "tiny", seed=3, seconds=0)
    assert tally.failed / tally.attempted > 0
    assert any(point.label in failure for failure in tally.failures)


def test_correct_recorded_values_pass():
    tally, _ = workloads.measure("oracle-abort", "tiny", seed=3, seconds=0)
    assert tally.failed == 0, tally.failures


def test_missing_function_is_reported_not_observed(monkeypatch):
    layers = tracer.LAYERS + (("protocol", "qdkd.protocol", ("no_such_function",)),)
    monkeypatch.setattr(tracer, "LAYERS", layers)
    with tracer.Tracer() as t:
        pass
    assert t.not_observed == ["protocol.no_such_function"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("long-session", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
