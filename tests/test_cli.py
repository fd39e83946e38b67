"""CLI surface tests: subcommands, report output, exit codes."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdkd import (
    KeyCheckPolicy,
    SimConfig,
    abort_probability,
    cli,
    run_simulation,
    serialize_report,
)
from qdkd.adversary import ChannelLeg, EveBasisPolicy, InterceptResend
from qdkd.cli import _scientific, build_parser


def run_main(capsys, *args):
    """cli.main(args) in this process: its exit code and what it printed."""
    code = cli.main(list(args))
    return code, capsys.readouterr().out


def run_main_err(capsys, *args):
    """cli.main(args) in this process: its exit code, stdout and stderr."""
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    """`qdkd run` in this process; tests/test_console.py runs it in a fresh one."""

    def test_honest_run_json(self, capsys):
        code, out = run_main(capsys, "run", "--rounds", "200", "--seed", "7")
        assert code == 0
        report = json.loads(out)
        assert report["rounds_total"] == 200
        assert report["aborted"] is False

    def test_forward_attack_exits_2(self, capsys):
        code, out = run_main(
            capsys, "run", "--rounds", "300", "--seed", "7", "--attack", "forward-ir"
        )
        assert code == 2
        assert json.loads(out)["aborted"] is True

    def test_backward_attack_with_check_exits_2(self, capsys):
        code, out = run_main(
            capsys, "run", "--rounds", "300", "--seed", "7", "--attack", "backward-ir",
            "--check-fraction", "0.1",
        )
        assert code == 2
        assert json.loads(out)["abort_cause"] == "key-check-mismatch"

    @pytest.mark.parametrize("attack,config", [
        ([], SimConfig(rounds=300)),
        (["--attack", "backward-ir"], SimConfig(300, attack=InterceptResend(ChannelLeg.BACKWARD))),
    ])
    def test_defaults_are_the_library_defaults(self, attack, config, capsys):
        """Every flag left out takes SimConfig's or InterceptResend's default."""
        code, out = run_main(capsys, "run", "--rounds", "300", *attack)
        assert out.encode() == serialize_report(run_simulation(config))

    def test_csv_format(self, capsys):
        code, out = run_main(capsys, "run", "--rounds", "50", "--seed", "1", "--format", "csv")
        assert code == 0
        header, row = out.splitlines()
        assert header.startswith("rounds_total,")
        assert len(row.split(",")) == len(header.split(","))

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out = run_main(capsys, "run", "--rounds", "50", "--seed", "1", "--out", str(path))
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["rounds_total"] == 50

    def test_single_key_mode(self, capsys):
        code, out = run_main(
            capsys, "run", "--rounds", "200", "--seed", "7", "--key-mode", "single"
        )
        assert json.loads(out)["capacity_bits_per_message_round"] == 2.0

    def test_byte_identical_reruns(self, capsys):
        args = ("run", "--rounds", "150", "--seed", "99", "--attack", "backward-ir")
        assert run_main(capsys, *args)[1] == run_main(capsys, *args)[1]


class TestUsageErrors:
    """In this process; tests/test_console.py checks a usage error in a fresh one."""

    def test_bad_flag_value_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--rounds", "notanumber"])
        assert exc.value.code == 1
        assert "qdkd run: error: argument --rounds" in capsys.readouterr().err

    def test_unknown_subcommand_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 1
        assert "qdkd: error: argument command: invalid choice" in capsys.readouterr().err

    def test_config_error_exits_1(self, capsys):
        code, _, err = run_main_err(capsys, "run", "--rounds", "10", "--control-prob", "1.5")
        assert code == 1
        assert "error" in err

    def test_unwritable_out_path_exits_1(self, capsys, tmp_path):
        code, _, err = run_main_err(
            capsys, "run", "--rounds", "5", "--out", str(tmp_path / "no" / "dir" / "r.json")
        )
        assert code == 1
        assert "cannot write report" in err


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
    def test_forward_detection_value(self, capsys):
        code, out = run_main(capsys, "oracle", "--attack", "forward-ir")
        assert code == 0
        data = json.loads(out)
        assert data["detection_prob_per_control_round"] == 0.25
        assert data["detection_prob_per_control_round_exact"] == "1/4"
        assert data["abort_probability"] is None
        assert data["acceptance_probability_sci"] is None

    def test_backward_with_abort_context(self, capsys):
        _, out = run_main(
            capsys, "oracle", "--attack", "backward-ir", "--check-fraction", "0.1",
            "--message-rounds", "40",
        )
        data = json.loads(out)
        assert data["key_error_rate_phase_bit"] == 0.5
        assert data["abort_probability"] > 0.95
        assert data["abort_probability_exact"].count("/") == 1

    def test_acceptance_keeps_its_magnitude(self, capsys):
        # 1 - P is ~1e-49 here, so the float abort probability reads 1.0.
        code, out = run_main(
            capsys, "oracle", "--attack", "backward-ir", "--eve-basis", "random",
            "--message-rounds", "1000",
        )
        assert code == 0
        data = json.loads(out)
        assert data["abort_probability"] == 1.0
        accept = 1 - Fraction(data["abort_probability_exact"])
        assert data["acceptance_probability_sci"] == "1.2675e-49" == f"{float(accept):.4e}"

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
    )
    def test_int_str_limit_restored(self, capsys):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            assert cli.main(["oracle", "--attack", "backward-ir", "--message-rounds", "10"]) == 0
            assert sys.get_int_max_str_digits() == 4300
        finally:
            sys.set_int_max_str_digits(saved)
        assert json.loads(capsys.readouterr().out)["abort_probability"] > 0

    @pytest.mark.parametrize("flags", [
        ("--message-rounds", "-5"),
        ("--message-rounds", "10", "--check-fraction", "2"),
        ("--message-rounds", "10", "--check-fraction", "-0.5"),
        ("--message-rounds", "10", "--check-fraction", "nan"),
        ("--message-rounds", "10", "--mismatch-threshold", "-1"),
        ("--check-fraction", "2"),
        ("--mismatch-threshold", "-1"),
    ])
    def test_bad_abort_query_exits_1(self, flags, capsys):
        code, out, err = run_main_err(capsys, "oracle", "--attack", "backward-ir", *flags)
        assert code == 1
        assert "qdkd: error:" in err
        assert "Traceback" not in err
        assert out == ""


def _oracle_matrix():
    """Every attack and Eve basis (the basis is ignored without an attack),
    both key modes and four key lengths, then the default query and three
    refused ones."""
    attacks = [("none", basis) for basis in ("z", "x", "random")] + [
        (attack, basis) for attack in ("forward-ir", "backward-ir") for basis in ("z", "x", "random")
    ]
    for attack, basis in attacks:
        for key_mode in ("combined", "single"):
            for rounds in (None, "0", "37", "400"):
                args = ["oracle", "--attack", attack, "--eve-basis", basis, "--key-mode", key_mode]
                yield args if rounds is None else args + ["--message-rounds", rounds]
    yield ["oracle"]
    yield ["oracle", "--check-fraction", "2"]
    yield ["oracle", "--message-rounds", "-5"]
    yield ["oracle", "--mismatch-threshold", "-1", "--message-rounds", "3"]


class TestOracleOutput:
    def test_matrix_digest(self, capsys):
        # The bytes and exit codes the command printed when exact_oracle also
        # computed the abort probability; recomposing the output keeps them.
        digest = hashlib.sha256()
        for args in _oracle_matrix():
            code = cli.main(args)
            captured = capsys.readouterr()
            digest.update(f"{' '.join(args)}\n{code}\n{captured.out}{captured.err}".encode())
        assert digest.hexdigest() == (
            "d6cf97f41aaf3516f6307d3b466468631db5eacdd734ea6aaa02637a40ec7f79"
        )


# Per subcommand, an invocation in which every option matters. An option with
# choices is tried at each of its other choices, any other one at the value
# below (None: the option left out).
_LIVE_BASE = {
    "run": {
        "--rounds": "300", "--control-prob": "0.2", "--attack": "backward-ir", "--seed": "3",
    },
    "oracle": {"--attack": "backward-ir", "--message-rounds": "10"},
}
_LIVE_OTHER = {
    "--rounds": "301",
    "--control-prob": "0.3",
    "--check-fraction": "0.3",
    "--mismatch-threshold": "100",
    "--seed": "4",
    "--out": "report.json",
    "--message-rounds": None,
}


def _liveness_cases():
    parser = build_parser()
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command, base in _LIVE_BASE.items():
        for action in subcommands.choices[command]._actions:
            option = action.option_strings[-1]
            if option == "--help":
                continue
            if action.choices:
                others = [c for c in action.choices if c != base.get(option, action.default)]
            else:
                others = [_LIVE_OTHER[option]]
            for other in others:
                yield pytest.param(command, option, other, id=f"{command} {option} {other}")


def _argv(command, options):
    argv = [command]
    for option, value in options.items():
        if value is not None:
            argv += [option, str(value)]
    return argv


class TestFlagLiveness:
    """Every option changes what its subcommand prints."""

    @pytest.mark.parametrize("command,option,other", _liveness_cases())
    def test_option_changes_output(self, command, option, other, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        outputs = []
        for options in (_LIVE_BASE[command], {**_LIVE_BASE[command], option: other}):
            assert cli.main(_argv(command, options)) in (0, 2)
            outputs.append(capsys.readouterr().out)
        assert outputs[0] != outputs[1]


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
    def test_table_prints_grid(self, capsys):
        code, out = run_main(capsys, "table")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 5
        assert lines[1].split()[-4:] == ["Ψ+", "Ψ−", "Φ+", "Φ−"]
