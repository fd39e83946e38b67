"""CLI surface tests: subcommands, report output, exit codes."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdkd import KeyCheckPolicy, abort_probability
from qdkd.adversary import ChannelLeg, EveBasisPolicy, InterceptResend
from qdkd.cli import _scientific


def qdkd(*args):
    return subprocess.run(
        [sys.executable, "-m", "qdkd", *args], capture_output=True, text=True
    )


class TestRun:
    def test_honest_run_json(self):
        proc = qdkd("run", "--rounds", "200", "--seed", "7")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["rounds_total"] == 200
        assert report["aborted"] is False

    def test_forward_attack_exits_2(self):
        proc = qdkd("run", "--rounds", "300", "--seed", "7", "--attack", "forward-ir")
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["aborted"] is True

    def test_backward_attack_with_check_exits_2(self):
        proc = qdkd(
            "run", "--rounds", "300", "--seed", "7", "--attack", "backward-ir",
            "--check-fraction", "0.1",
        )
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["abort_cause"] == "key-check-mismatch"

    def test_csv_format(self):
        proc = qdkd("run", "--rounds", "50", "--seed", "1", "--format", "csv")
        assert proc.returncode == 0
        header, row = proc.stdout.splitlines()
        assert header.startswith("rounds_total,")
        assert len(row.split(",")) == len(header.split(","))

    def test_out_file(self, tmp_path):
        path = tmp_path / "report.json"
        proc = qdkd("run", "--rounds", "50", "--seed", "1", "--out", str(path))
        assert proc.returncode == 0
        assert proc.stdout == ""
        assert json.loads(path.read_text())["rounds_total"] == 50

    def test_single_key_mode(self):
        proc = qdkd("run", "--rounds", "200", "--seed", "7", "--key-mode", "single")
        assert json.loads(proc.stdout)["capacity_bits_per_message_round"] == 2.0

    def test_byte_identical_reruns(self):
        args = ("run", "--rounds", "150", "--seed", "99", "--attack", "backward-ir")
        assert qdkd(*args).stdout == qdkd(*args).stdout


class TestUsageErrors:
    def test_bad_flag_value_exits_1(self):
        proc = qdkd("run", "--rounds", "notanumber")
        assert proc.returncode == 1

    def test_unknown_subcommand_exits_1(self):
        proc = qdkd("frobnicate")
        assert proc.returncode == 1

    def test_config_error_exits_1(self):
        proc = qdkd("run", "--rounds", "10", "--control-prob", "1.5")
        assert proc.returncode == 1
        assert "error" in proc.stderr

    def test_unwritable_out_path_exits_1(self, tmp_path):
        proc = qdkd("run", "--rounds", "5", "--out", str(tmp_path / "no" / "dir" / "r.json"))
        assert proc.returncode == 1
        assert "cannot write report" in proc.stderr


class TestClosedStdout:
    @pytest.mark.parametrize("args", [
        ("run", "--rounds", "50"),
        ("oracle", "--attack", "backward-ir"),
        ("table",),
    ])
    def test_closed_pipe_exits_1_quietly(self, args):
        # A reader that is already gone: every write to the pipe fails.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "qdkd", *args],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == ""


class TestOracle:
    def test_forward_detection_value(self):
        proc = qdkd("oracle", "--attack", "forward-ir")
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert data["detection_prob_per_control_round"] == 0.25
        assert data["detection_prob_per_control_round_exact"] == "1/4"
        assert data["abort_probability"] is None
        assert data["acceptance_probability_sci"] is None

    def test_backward_with_abort_context(self):
        proc = qdkd(
            "oracle", "--attack", "backward-ir", "--check-fraction", "0.1",
            "--message-rounds", "40",
        )
        data = json.loads(proc.stdout)
        assert data["key_error_rate_phase_bit"] == 0.5
        assert data["abort_probability"] > 0.95
        assert data["abort_probability_exact"].count("/") == 1

    def test_acceptance_keeps_its_magnitude(self):
        # 1 - P is ~1e-49 here, so the float abort probability reads 1.0.
        proc = qdkd(
            "oracle", "--attack", "backward-ir", "--eve-basis", "random",
            "--message-rounds", "1000",
        )
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert data["abort_probability"] == 1.0
        accept = 1 - Fraction(data["abort_probability_exact"])
        assert data["acceptance_probability_sci"] == "1.2675e-49" == f"{float(accept):.4e}"

    @pytest.mark.parametrize("flags", [
        ("--message-rounds", "-5"),
        ("--message-rounds", "10", "--check-fraction", "2"),
        ("--message-rounds", "10", "--check-fraction", "-0.5"),
        ("--message-rounds", "10", "--check-fraction", "nan"),
        ("--message-rounds", "10", "--mismatch-threshold", "-1"),
        ("--check-fraction", "2"),
        ("--mismatch-threshold", "-1"),
    ])
    def test_bad_abort_query_exits_1(self, flags):
        proc = qdkd("oracle", "--attack", "backward-ir", *flags)
        assert proc.returncode == 1
        assert "qdkd: error:" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""


class TestScientific:
    @pytest.mark.parametrize("value,want", [
        (Fraction(0), "0.0000e+00"),
        (Fraction(1), "1.0000e+00"),
        (Fraction(1, 10**400), "1.0000e-400"),
        (Fraction(999995, 10**6), "1.0000e+00"),  # an exact tie rounds to even
        (Fraction(123456, 1000), "1.2346e+02"),
    ])
    def test_values(self, value, want):
        assert _scientific(value) == want

    def test_matches_float_at_1000_rounds(self):
        attack = InterceptResend(ChannelLeg.BACKWARD, EveBasisPolicy.RANDOM)
        accept = 1 - abort_probability(attack, KeyCheckPolicy(0.1, 0), 1000)
        assert 0 < float(accept) < 1e-40
        assert _scientific(accept) == f"{float(accept):.4e}"


# Non-negative fractions over a wide range of magnitudes, and exact ties
# halfway between two 5-digit mantissas.
_FRACTIONS = st.one_of(
    st.builds(
        lambda num, den, exp: Fraction(num, den) * Fraction(10) ** exp,
        st.integers(0, 10**30), st.integers(1, 10**30), st.integers(-400, 400),
    ),
    st.builds(
        lambda mantissa, exp: Fraction(2 * mantissa + 1, 2) * Fraction(10) ** exp,
        st.integers(10**4, 10**5 - 1), st.integers(-400, 400),
    ),
)


class TestScientificProperties:
    @settings(max_examples=400, deadline=None)
    @given(value=_FRACTIONS)
    def test_correctly_rounded_half_to_even(self, value):
        text = _scientific(value)
        head, exp = text.split("e")
        mantissa = int(head.replace(".", ""))
        assert len(head) == 6 and head[1] == "."
        if not value:
            assert text == "0.0000e+00"
            return
        assert 10**4 <= mantissa < 10**5
        unit = Fraction(10) ** (int(exp) - 4)  # one unit of the 5th digit
        error = abs(mantissa * unit - value)
        assert error <= unit / 2
        if error == unit / 2:
            assert mantissa % 2 == 0


class TestTable:
    def test_table_prints_grid(self):
        proc = qdkd("table")
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert len(lines) == 5
        assert lines[1].split()[-4:] == ["Ψ+", "Ψ−", "Φ+", "Φ−"]
