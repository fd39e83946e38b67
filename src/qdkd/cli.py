"""Command-line interface.

Subcommands:
  run     execute a seeded protocol session and emit the report
  oracle  print exact enumeration statistics for an attack strategy
  table   print the deterministic unitary/Bell-outcome table

Exit codes: 0 on accept, 2 when the run aborted (eavesdropper detected or
key check failed), 1 on usage or configuration errors and when stdout is
closed before the output is written.
"""

import argparse
import decimal
import json
import os
import sys
from dataclasses import fields
from fractions import Fraction

from .adversary import ChannelLeg, EveBasisPolicy, InterceptResend, NoAttack
from .errors import ConfigError
from .oracle import OracleResult, abort_probability, exact_oracle
from .protocol import KeyCheckPolicy, KeyMode, require_policy
from .simulate import SimConfig, render_unitary_table, run_simulation, serialize_report

USAGE_ERROR = 1
ABORT_EXIT = 2

# The single key modes differ only in whose bits are kept, and a round's
# mismatch mask is k ^ a ^ b from either side, so both print the same report
# and abort probability; the CLI offers one of them.
_KEY_MODES = {"combined": KeyMode.COMBINED, "single": KeyMode.SINGLE_ALICE}
# The library's defaults, which the flags' defaults are read from.
_DEFAULTS = {f.name: f.default for cls in (SimConfig, InterceptResend) for f in fields(cls)}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; this tool reserves 2 for
    # protocol aborts.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _add_attack_flags(parser):
    parser.add_argument(
        "--attack",
        choices=["none", "forward-ir", "backward-ir"],
        default="none",
        help="channel adversary: intercept-resend on a leg, or none (default)",
    )
    parser.add_argument(
        "--eve-basis",
        choices=["z", "x", "random"],
        default=_DEFAULTS["basis_policy"].value,
        help="basis policy of the intercept-resend measurement (default %(default)s)",
    )


def _add_key_flags(parser):
    parser.add_argument(
        "--key-mode",
        choices=list(_KEY_MODES),
        default="combined",
        help="keep both parties' bits (combined, default) or one party's (single)",
    )
    parser.add_argument(
        "--check-fraction",
        type=float,
        default=_DEFAULTS["check_fraction"],
        help="key fraction compared publicly (default %(default)s)",
    )
    parser.add_argument(
        "--mismatch-threshold",
        type=int,
        default=_DEFAULTS["mismatch_threshold"],
        help="mismatches the key check tolerates before aborting (default %(default)s)",
    )


def _build_attack(args):
    if args.attack == "none":
        return NoAttack()
    leg = ChannelLeg.FORWARD if args.attack == "forward-ir" else ChannelLeg.BACKWARD
    return InterceptResend(leg, EveBasisPolicy(args.eve_basis))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qdkd", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a seeded protocol session")
    run.add_argument("--rounds", type=int, default=1000, help="protocol rounds (default 1000)")
    run.add_argument(
        "--control-prob",
        type=float,
        default=_DEFAULTS["control_prob"],
        help="per-round control-mode probability (default %(default)s)",
    )
    _add_key_flags(run)
    _add_attack_flags(run)
    run.add_argument(
        "--seed", type=int, default=_DEFAULTS["seed"], help="session seed (default %(default)s)"
    )
    run.add_argument("--format", choices=["json", "csv"], default="json")
    run.add_argument("--out", metavar="PATH", default=None, help="write the report to a file")

    oracle = sub.add_parser("oracle", help="print exact enumeration statistics")
    _add_attack_flags(oracle)
    _add_key_flags(oracle)
    oracle.add_argument(
        "--message-rounds",
        type=int,
        default=None,
        help="key length context for the exact abort probability (omitted: not computed)",
    )

    sub.add_parser("table", help="print the unitary/Bell-outcome table")
    return parser


def _cmd_run(args) -> int:
    config = SimConfig(
        rounds=args.rounds,
        control_prob=args.control_prob,
        key_mode=_KEY_MODES[args.key_mode],
        check_fraction=args.check_fraction,
        mismatch_threshold=args.mismatch_threshold,
        attack=_build_attack(args),
        seed=args.seed,
    )
    report = run_simulation(config)
    payload = serialize_report(report, args.format)
    if args.out:
        try:
            with open(args.out, "wb") as fh:
                fh.write(payload)
        except OSError as exc:
            raise ConfigError(f"cannot write report to {args.out!r}: {exc}") from exc
    else:
        sys.stdout.write(payload.decode())
    return ABORT_EXIT if report.aborted else 0


def _fraction_fields(value: Fraction | None, name: str) -> dict:
    if value is None:
        return {name: None, f"{name}_exact": None}
    return {name: float(value), f"{name}_exact": str(value)}


def _scientific(value: Fraction) -> str:
    """A non-negative fraction to 5 significant digits in the format of
    f"{x:.4e}", correctly rounded half to even from the exact value, so that
    a value far below the smallest float keeps its magnitude."""
    context = decimal.Context(
        prec=5, rounding=decimal.ROUND_HALF_EVEN, Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX
    )
    rounded = context.divide(decimal.Decimal(value.numerator), value.denominator)
    digits = "".join(map(str, rounded.as_tuple().digits)).ljust(5, "0")
    return f"{digits[0]}.{digits[1:]}e{rounded.adjusted():+03d}"


def _cmd_oracle(args) -> int:
    attack = _build_attack(args)
    policy = KeyCheckPolicy(args.check_fraction, args.mismatch_threshold)
    require_policy(policy)  # also without --message-rounds
    result = exact_oracle(attack)
    abort = None
    if args.message_rounds is not None:
        abort = abort_probability(attack, policy, args.message_rounds, _KEY_MODES[args.key_mode])
    # An exact abort probability at 10**4 message rounds has thousands of
    # digits, more than Python (3.10.7 and later) converts to str by default.
    # The limit is lifted only while the output is written.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        out = {}
        for f in fields(OracleResult):
            out.update(_fraction_fields(getattr(result, f.name), f.name))
        out.update(_fraction_fields(abort, "abort_probability"))
        out["acceptance_probability_sci"] = None if abort is None else _scientific(1 - abort)
        print(json.dumps(out, indent=2))
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            code = _cmd_run(args)
        elif args.command == "oracle":
            code = _cmd_oracle(args)
        else:
            print(render_unitary_table())
            code = 0
        sys.stdout.flush()  # a closed pipe surfaces here, not at interpreter exit
        return code
    except ConfigError as exc:
        print(f"qdkd: error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except BrokenPipeError:
        # The reader closed stdout early. Point stdout at devnull so the
        # flush of the unwritten rest at interpreter exit stays silent.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
