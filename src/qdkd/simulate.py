"""Monte Carlo harness: runs seeded protocol sessions, aggregates statistics,
and serializes reports.

A session is fully determined by its SimConfig (including the seed): the
protocol stream and the public key-check stream are both derived from it, so
identical configs produce byte-identical serialized reports. A control-round
detection aborts the session immediately; otherwise the public key check runs
once at the end.
"""

import csv
import io
import json
import math
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .adversary import (
    AttackStrategy,
    ChannelLeg,
    EveRecord,
    InterceptResend,
    NoAttack,
    apply_attack,
)
from .errors import ConfigError
from .protocol import (
    BellOutcome,
    CheckVerdict,
    ClassicalMessage,
    ControlOutcome,
    ControlVerdict,
    KeyCheckPolicy,
    KeyMode,
    LocalUnitary,
    MessageOutcome,
    RoundMode,
    accumulate_key,
    alice_prepare,
    bob_choose_mode,
    is_int,
    key_check,
    require_probability,
    run_control_round,
    run_message_round,
)
from .quantum import QubitId, apply_local, bell_state, prob_bell

ABORT_CONTROL = "control-round-detection"
ABORT_KEY_CHECK = "key-check-mismatch"
_Z95 = 1.96  # standard normal quantile of a two-sided 95% interval


@dataclass(frozen=True)
class SimConfig:
    """Everything that determines a run; equal configs give equal reports."""

    rounds: int
    control_prob: float = 0.5
    key_mode: KeyMode = KeyMode.COMBINED
    check_fraction: float = 0.1
    mismatch_threshold: int = 0
    attack: AttackStrategy = NoAttack()
    seed: int = 0

    def validate(self) -> "SimConfig":
        if not is_int(self.rounds) or self.rounds < 0:
            raise ConfigError(f"rounds must be a non-negative integer, got {self.rounds!r}")
        require_probability("control_prob", self.control_prob)
        if not isinstance(self.key_mode, KeyMode):
            raise ConfigError(f"key_mode must be a KeyMode, got {self.key_mode!r}")
        KeyCheckPolicy(self.check_fraction, self.mismatch_threshold).validate()
        if not isinstance(self.attack, (NoAttack, InterceptResend)):
            raise ConfigError(f"unsupported attack strategy: {self.attack!r}")
        if not is_int(self.seed) or not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        return self


@dataclass(frozen=True)
class SimulationReport:
    """Aggregated statistics of one session.

    Error rates compare the parties' pre-check keys; the amplitude/phase
    split follows bit-position parity inside each 2-bit label (even offsets
    separate Psi from Phi, odd offsets + from -).
    """

    rounds_total: int
    control_rounds: int
    message_rounds: int
    detections: int
    detection_prob: float
    detection_ci_low: float
    detection_ci_high: float
    key_error_rate_overall: float
    key_error_rate_amplitude_bit: float
    key_error_rate_phase_bit: float
    aborted: bool
    abort_cause: str | None
    final_key_length: int
    capacity_bits_per_message_round: float
    publicly_inferable_bits: int


@dataclass(frozen=True)
class RoundRecord:
    """One protocol round: its index, Alice's unitary and the round's outcome."""

    index: int
    u_a: LocalUnitary
    outcome: ControlOutcome | MessageOutcome


@dataclass
class SessionResult:
    """Report plus the raw material tests and analyses need."""

    report: SimulationReport
    records: list[RoundRecord] = field(default_factory=list)
    transcript: list[ClassicalMessage] = field(default_factory=list)
    eve: EveRecord = field(default_factory=EveRecord)
    alice_pre_check: tuple[int, ...] = ()
    bob_pre_check: tuple[int, ...] = ()
    alice_final: tuple[int, ...] = ()
    bob_final: tuple[int, ...] = ()


def _binomial_ci(successes: int, trials: int) -> tuple[float, float, float]:
    """Point estimate and 95% Wilson score interval of a binomial proportion.

    Unlike the normal approximation, the interval keeps a nonzero width at 0
    and at all successes. The upper end is taken as 1 minus the lower end of
    the failure count, which is the same value and makes it exactly 1 at
    successes == trials.
    """
    if trials == 0:
        return 0.0, 0.0, 0.0
    return (
        successes / trials,
        _wilson_low(successes, trials),
        1.0 - _wilson_low(trials - successes, trials),
    )


def _wilson_low(successes: int, trials: int) -> float:
    """Lower end of the 95% Wilson score interval; exactly 0 at 0 successes."""
    z2 = _Z95 * _Z95
    spread = _Z95 * math.sqrt(successes * (trials - successes) / trials + z2 / 4)
    return (successes + z2 / 2 - spread) / (trials + z2)


def _error_rates(alice_key, bob_key) -> tuple[float, float, float]:
    """(overall, amplitude-position, phase-position) mismatch frequencies."""
    n = len(alice_key)
    if n == 0:
        return 0.0, 0.0, 0.0
    overall = amp = phase = 0
    for i, (a, b) in enumerate(zip(alice_key, bob_key)):
        if a != b:
            overall += 1
            if i % 2 == 0:
                amp += 1
            else:
                phase += 1
    half = n // 2
    return (
        overall / n,
        amp / half if half else 0.0,
        phase / half if half else 0.0,
    )


def run_session(config: SimConfig, keep_records: bool = False) -> SessionResult:
    """Execute one protocol session and return the report plus raw material."""
    config.validate()
    root = np.random.SeedSequence(config.seed)
    proto_ss, check_ss = root.spawn(2)
    rng = np.random.default_rng(proto_ss)
    # Eve sees every public message: her transcript is the session's list.
    transcript: list[ClassicalMessage] = []
    eve = EveRecord(transcript=transcript)
    result = SessionResult(report=None, transcript=transcript, eve=eve)  # report filled in below
    publish = transcript.extend
    alice_key: list[int] = []
    bob_key: list[int] = []
    control_rounds = message_rounds = detections = 0
    aborted = False
    abort_cause = None

    # Binds the adversary to the returning photon; reads the current round's
    # index when a message round calls it.
    def return_channel(s):
        s2, obs2 = apply_attack(s, ChannelLeg.BACKWARD, config.attack, rng, index)
        if obs2 is not None:
            eve.observations.append(obs2)
        return s2

    for index in range(config.rounds):
        state, u_a = alice_prepare(rng)
        state, obs = apply_attack(state, ChannelLeg.FORWARD, config.attack, rng, index)
        if obs is not None:
            eve.observations.append(obs)
        mode = bob_choose_mode(config.control_prob, rng)
        if mode is RoundMode.CONTROL:
            control_rounds += 1
            outcome = run_control_round(u_a, state, rng)
        else:
            message_rounds += 1
            outcome = run_message_round(u_a, state, rng, return_channel)
            accumulate_key(alice_key, u_a.label, outcome.alice_view.label, config.key_mode)
            accumulate_key(bob_key, outcome.bob_view.label, outcome.u_b.label, config.key_mode)
        publish(outcome.transcript)
        if keep_records:
            result.records.append(RoundRecord(index, u_a, outcome))
        if mode is RoundMode.CONTROL and outcome.verdict is ControlVerdict.EVE_DETECTED:
            detections += 1
            aborted = True
            abort_cause = ABORT_CONTROL
            break

    alice_pre = tuple(alice_key)
    bob_pre = tuple(bob_key)
    overall, amp_rate, phase_rate = _error_rates(alice_pre, bob_pre)

    checked = 0
    alice_final = alice_pre
    bob_final = bob_pre
    if not aborted:
        policy = KeyCheckPolicy(config.check_fraction, config.mismatch_threshold)
        check = key_check(alice_pre, bob_pre, policy, np.random.default_rng(check_ss))
        publish(check.transcript)
        checked = len(check.positions)
        alice_final = check.alice_final
        bob_final = check.bob_final
        if check.verdict is CheckVerdict.ABORT:
            aborted = True
            abort_cause = ABORT_KEY_CHECK

    detection_prob, ci_low, ci_high = _binomial_ci(detections, control_rounds)
    capacity = len(alice_pre) / message_rounds if message_rounds else 0.0
    result.report = SimulationReport(
        rounds_total=control_rounds + message_rounds,
        control_rounds=control_rounds,
        message_rounds=message_rounds,
        detections=detections,
        detection_prob=detection_prob,
        detection_ci_low=ci_low,
        detection_ci_high=ci_high,
        key_error_rate_overall=overall,
        key_error_rate_amplitude_bit=amp_rate,
        key_error_rate_phase_bit=phase_rate,
        aborted=aborted,
        abort_cause=abort_cause,
        final_key_length=len(alice_pre) - checked,
        capacity_bits_per_message_round=capacity,
        publicly_inferable_bits=2 * message_rounds,
    )
    result.alice_pre_check = alice_pre
    result.bob_pre_check = bob_pre
    result.alice_final = alice_final
    result.bob_final = bob_final
    return result


def run_simulation(config: SimConfig) -> SimulationReport:
    """Execute one session and return its report (deterministic given seed)."""
    return run_session(config).report


def derive_seed(master_seed: int, index: int) -> int:
    """Stable per-run seed for independent trials of one experiment."""
    return int(np.random.SeedSequence([master_seed, index]).generate_state(1, np.uint64)[0])


def run_batch(config: SimConfig, n_runs: int) -> list[SimulationReport]:
    """Independent sessions with per-run seeds split off the config seed."""
    return [
        run_simulation(replace(config, seed=derive_seed(config.seed, i))) for i in range(n_runs)
    ]


# --- Report serialization ---


def serialize_report(report: SimulationReport, fmt: str = "json") -> bytes:
    """Render a report as JSON (lossless round-trip) or single-row CSV."""
    data = asdict(report)
    if fmt == "json":
        return (json.dumps(data, indent=2) + "\n").encode()
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(data.keys())
        writer.writerow(_csv_cell(v) for v in data.values())
        return buf.getvalue().encode()
    raise ConfigError(f"unknown report format {fmt!r}")


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else value


def parse_report(data: bytes) -> SimulationReport:
    """Inverse of serialize_report for the JSON format."""
    raw = json.loads(data.decode())
    names = {f.name for f in fields(SimulationReport)}
    if set(raw) != names:
        raise ConfigError("JSON fields do not match the report schema")
    return SimulationReport(**raw)


# --- Table rendering ---


def unitary_outcome_table() -> list[list[BellOutcome]]:
    """The 4x4 deterministic Bell outcomes of honest message rounds.

    Cell (i, j) composes Alice's u_i before Bob's u_j on the travel photon of
    Psi+ and reads off the certain Bell-measurement outcome.
    """
    table = []
    for a in LocalUnitary:
        row = []
        for b in LocalUnitary:
            state = apply_local(apply_local(bell_state(BellOutcome.PSI_PLUS), QubitId.T, a), QubitId.T, b)
            probs = prob_bell(state)
            k = max(range(4), key=probs.__getitem__)
            if probs[k] < 1.0 - 1e-12:
                raise AssertionError(f"honest composite not deterministic: {probs}")
            row.append(BellOutcome(k))
        table.append(row)
    return table


def render_unitary_table() -> str:
    """Human-readable rendering of the outcome table."""
    table = unitary_outcome_table()
    header = ["", *(f"u{int(b)} ({int(b) >> 1}{int(b) & 1})" for b in LocalUnitary)]
    lines = ["  ".join(f"{cell:>8}" for cell in header)]
    for a, row in zip(LocalUnitary, table):
        cells = [f"u{int(a)} ({int(a) >> 1}{int(a) & 1})", *(outcome.symbol for outcome in row)]
        lines.append("  ".join(f"{cell:>8}" for cell in cells))
    return "\n".join(lines)
