"""Monte Carlo harness: runs seeded protocol sessions, aggregates statistics,
and serializes reports.

A session is fully determined by its SimConfig (including the seed): the
protocol stream and the public key-check stream are both derived from it, so
identical configs produce byte-identical serialized reports. A control-round
detection aborts the session immediately; otherwise the public key check runs
once at the end.

The two streams are the children of SeedSequence(seed).spawn(2), built
directly as SeedSequence(seed, spawn_key=(i,)); the second is built only
when the key check runs, which draws default_rng(second child).permutation.
The rounds read the raw 64-bit words of PCG64(first child) in order:

- a 32-bit draw takes the low half of a fresh word, and the next 32-bit draw
  takes the high half of that word; uniforms drawn in between leave the
  buffered half in place;
- a unitary (u_A, u_B) is the top 2 bits of a 32-bit draw, a basis its top
  bit;
- a uniform is (word >> 11) * 2**-53, taken from a fresh word.

These are the values numpy's Generator returns for integers(4), integers(2)
and random() on PCG64, so a session equals the scalar round functions of
qdkd.protocol and qdkd.adversary driven by default_rng(first child). Each
round draws, in order: u_A; on the forward leg, Eve's basis (random policy
only) and her uniform; the mode uniform (a control round iff it is below
control_prob); in a control round, Bob's basis, Bob's uniform and Alice's
uniform; in a message round, u_B, then on the backward leg Eve's basis
(random policy only) and her uniform, then the uniform of the Bell
measurement. A qubit measurement gives bit 0 iff its uniform is below p0; a
Bell measurement gives the first outcome whose cumulative probability
exceeds its uniform.

run_session walks each round through tables of the round automaton: the
few dozen two-qubit states a session can reach under one attack, with the
kernels' probabilities and successor states precomputed per state. It draws
the words in chunks that double from 64 to 4096 and decodes each chunk once
with numpy into three lists, one entry per word: the top 2 bits of the low
half, the top 2 bits of the high half and the uniform. The loop then draws
by index, keeping the index of the next fresh word and the buffered high
half's 2-bit value, and decides each measurement by comparing the uniform
with the table's thresholds in place. The build probes the kernels at the smallest
and the largest stream uniform, 0 and 1 - 2**-53. Each decision is monotone
in its uniform, so the probes reach every branch a draw can select, and a
kernel that refuses one (a collapse onto a ~zero branch, or a Bell outcome 3
of ~zero probability) raises DegenerateBranchError during the build. The
loop needs no check of its own.
"""

import csv
import functools
import io
import json
import math
import operator
import struct
from dataclasses import dataclass, field, fields, replace
from json.encoder import encode_basestring_ascii

import numpy as np

from . import _kernels_py as kernels
from .adversary import (
    AttackStrategy,
    ChannelLeg,
    EveObservation,
    NoAttack,
    eve_bases,
    validate_attack,
)
from .errors import ConfigError
from .protocol import (
    BellOutcome,
    CheckVerdict,
    ClassicalMessage,
    ControlOutcome,
    ControlVerdict,
    Correlation,
    KeyCheckPolicy,
    KeyMode,
    LocalUnitary,
    MessageOutcome,
    accumulate_key,
    expected_correlation,
    is_int,
    key_array,
    key_check,
    require_count,
    require_key_mode,
    require_policy,
    require_probability,
)
from .oracle import unitary_outcome_table
from .quantum import MeasBasis, QubitId


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
        require_count("rounds", self.rounds)
        require_probability("control_prob", self.control_prob)
        require_key_mode(self.key_mode)
        require_policy(KeyCheckPolicy(self.check_fraction, self.mismatch_threshold))
        validate_attack(self.attack)
        _require_seed("seed", self.seed)
        return self


def _require_seed(name: str, value) -> None:
    if not is_int(value) or not 0 <= value < 2**64:
        raise ConfigError(f"{name} must be an unsigned 64-bit integer, got {value!r}")


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
    """Report and keys, plus the raw material tests and analyses need.

    records, transcript and observations are filled only by run_session(...,
    keep_records=True); otherwise they are empty. Eve's view is her
    observations plus the transcript: she sees every public message.
    """

    report: SimulationReport
    records: list[RoundRecord] = field(default_factory=list)
    transcript: list[ClassicalMessage] = field(default_factory=list)
    observations: list[EveObservation] = field(default_factory=list)
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
    differs = key_array(alice_key) != key_array(bob_key)
    amp = int(np.count_nonzero(differs[0::2]))
    phase = int(np.count_nonzero(differs[1::2]))
    half = n // 2
    return (
        (amp + phase) / n,
        amp / half if half else 0.0,
        phase / half if half else 0.0,
    )


# --- The protocol stream and the round automaton ---

_MAX_CHUNK_WORDS = 4096
_ROUND_WORDS = 8  # no round reads more fresh words than this
_LAST_UNIFORM = 1.0 - 2.0**-53  # the largest stream uniform


def _decode_words(words) -> tuple[list, list, list]:
    """(lo2, hi2, uni) of raw 64-bit words, one entry per word: the top 2 bits
    of the low half, the top 2 bits of the high half and the uniform."""
    lo2 = ((words >> np.uint64(30)) & np.uint64(3)).tolist()
    hi2 = (words >> np.uint64(62)).tolist()
    uni = ((words >> np.uint64(11)).astype(np.float64) * 2.0**-53).tolist()
    return lo2, hi2, uni


class _RoundTables:
    """The round automaton under one attack, with every value from the kernels.

    States are interned by the exact bytes of their amplitudes (so -0.0 and
    0.0 differ) and numbered in the order first met. Only states on protocol
    paths get entries:

    - measure[qubit][s][basis] = (p0, successor of bit 0, successor of bit 1),
      where the successor of a bit no stream uniform selects is None;
    - encode[s][u] = the state after u on the travel photon;
    - bell[s] = kernels.bell_thresholds(amps), the cumulative thresholds
      kernels.measure_bell itself compares its uniform with.

    The successors are the kernels' own collapses at the smallest and the
    largest stream uniform (smallest first, which fixes the numbering), and
    kernels.measure_bell runs at the largest. A kernel raises
    DegenerateBranchError at a probe that selects a branch it refuses, so a
    walk through the tables never meets one.
    """

    def __init__(self, forward: tuple[MeasBasis, ...], backward: tuple[MeasBasis, ...]):
        self.amps: list[tuple] = []
        self._ids: dict[bytes, int] = {}
        self.measure: tuple[list, list] = ([], [])
        self.encode: list = []
        self.bell: list = []
        self.prepared = tuple(
            self._intern(kernels.apply_u(kernels.BELL_AMPS[0], QubitId.T, u)) for u in range(4)
        )
        at_bob = {s for prepared in self.prepared for s in self._leg(prepared, forward)}
        for s in at_bob:
            for basis in MeasBasis:
                for after_bob in self._branches(s, QubitId.T, basis)[1:]:
                    if after_bob is not None:
                        self._branches(after_bob, QubitId.H, basis)
            self.encode[s] = tuple(
                self._intern(kernels.apply_u(self.amps[s], QubitId.T, u)) for u in range(4)
            )
            for returned in self.encode[s]:
                for at_alice in self._leg(returned, backward):
                    self._add_bell(at_alice)

    def _intern(self, amps) -> int:
        key = struct.pack("8d", *(x for a in amps for x in (a.real, a.imag)))
        s = self._ids.get(key)
        if s is None:
            s = self._ids[key] = len(self.amps)
            self.amps.append(amps)
            self.measure[0].append([None, None])
            self.measure[1].append([None, None])
            self.encode.append(None)
            self.bell.append(None)
        return s

    def _branches(self, s: int, qubit: int, basis: int) -> tuple:
        row = self.measure[qubit][s]
        if row[basis] is None:
            amps = self.amps[s]
            bit, low = kernels.measure_qubit(amps, qubit, basis, 0.0)
            s0 = self._intern(low) if bit == 0 else None
            bit, high = kernels.measure_qubit(amps, qubit, basis, _LAST_UNIFORM)
            s1 = self._intern(high) if bit == 1 else None
            row[basis] = (kernels.qubit_probs(amps, qubit, basis)[0], s0, s1)
        return row[basis]

    def _leg(self, s: int, bases: tuple[MeasBasis, ...]) -> list[int]:
        """The states a leg entered in state s can end in, given Eve's bases on it."""
        if not bases:
            return [s]
        return [
            t for basis in bases for t in self._branches(s, QubitId.T, basis)[1:] if t is not None
        ]

    def _add_bell(self, s: int) -> None:
        if self.bell[s] is not None:
            return
        amps = self.amps[s]
        kernels.measure_bell(amps, _LAST_UNIFORM)  # the probe: raises on a refused outcome 3
        self.bell[s] = kernels.bell_thresholds(amps)


_round_tables = functools.cache(_RoundTables)


# Per key mode, the bytes a message round appends: [alice label][bob label].
_KEY_BITS = {
    mode: tuple(tuple(bytes(accumulate_key([], a, b, mode)) for b in range(4)) for a in range(4))
    for mode in KeyMode
}
# [u_A][basis]: whether an honest control round shows correlated bits.
_CORRELATED = tuple(
    tuple(expected_correlation(u, basis) is Correlation.CORRELATED for basis in MeasBasis)
    for u in LocalUnitary
)
_UNITARIES = tuple(LocalUnitary)
_BASES = tuple(MeasBasis)


def run_session(config: SimConfig, keep_records: bool = False) -> SessionResult:
    """Execute one protocol session and return its report, keys and raw material.

    Rounds draw from the protocol stream described in the module docstring
    and step through the attack's round tables. keep_records is the one
    switch for the raw material: only with it does the session build its
    RoundRecords, Eve's observations and the public transcript (the
    records' transcripts followed by the key check's). Without it those
    stay empty; the report and keys are the same either way.
    """
    config.validate()
    bitgen = np.random.PCG64(np.random.SeedSequence(config.seed, spawn_key=(0,)))
    forward = eve_bases(config.attack, ChannelLeg.FORWARD)
    backward = eve_bases(config.attack, ChannelLeg.BACKWARD)
    forward_leg, backward_leg = ChannelLeg.FORWARD, ChannelLeg.BACKWARD
    forward_random = len(forward) == 2
    backward_random = len(backward) == 2
    tables = _round_tables(forward, backward)
    prepared, encode, bell = tables.prepared, tables.encode, tables.bell
    measure_h, measure_t = tables.measure[QubitId.H], tables.measure[QubitId.T]
    key_bits = _KEY_BITS[config.key_mode]
    control_prob = config.control_prob
    records: list[RoundRecord] = []
    observations: list[EveObservation] = []
    alice_key = bytearray()
    bob_key = bytearray()
    control_rounds = message_rounds = detections = 0
    aborted = False
    abort_cause = None
    # The decoded stream: p is the next fresh word, half the buffered 2-bit
    # value of the high half of the last opened word (-1 if none). A 32-bit
    # draw opens word p (lo2[p], buffering hi2[p]) or takes half; a uniform
    # is uni[p]; a basis is a 2-bit value >> 1. A refill keeps the words from
    # p on, so p restarts at 0 and half needs no index.
    lo2 = hi2 = uni = []
    p, half = 0, -1
    refill_at = -1
    chunk = 64

    for index in range(config.rounds):
        if p > refill_at:
            new_lo2, new_hi2, new_uni = _decode_words(bitgen.random_raw(chunk))
            lo2 = lo2[p:] + new_lo2
            hi2 = hi2[p:] + new_hi2
            uni = uni[p:] + new_uni
            p = 0
            refill_at = len(uni) - _ROUND_WORDS
            chunk = min(2 * chunk, _MAX_CHUNK_WORDS)
        if half < 0:
            u_a = lo2[p]
            half = hi2[p]
            p += 1
        else:
            u_a = half
            half = -1
        s = prepared[u_a]
        if forward:
            if not forward_random:
                basis = forward[0]
            elif half < 0:
                basis = lo2[p] >> 1
                half = hi2[p]
                p += 1
            else:
                basis = half >> 1
                half = -1
            p0, s0, s1 = measure_t[s][basis]
            r = uni[p]
            p += 1
            if r < p0:
                bit = 0
                s = s0
            else:
                bit = 1
                s = s1
            if keep_records:
                observations.append(EveObservation(index, forward_leg, _BASES[basis], bit))
        r = uni[p]
        p += 1
        if r < control_prob:
            control_rounds += 1
            if half < 0:
                basis = lo2[p] >> 1
                half = hi2[p]
                p += 1
            else:
                basis = half >> 1
                half = -1
            p0, s0, s1 = measure_t[s][basis]
            r = uni[p]
            p += 1
            if r < p0:
                bob_bit = 0
                s = s0
            else:
                bob_bit = 1
                s = s1
            # The round ends with Alice's measurement: only her bit is read.
            alice_bit = 0 if uni[p] < measure_h[s][basis][0] else 1
            p += 1
            detected = (alice_bit == bob_bit) != _CORRELATED[u_a][basis]
            if keep_records:
                verdict = ControlVerdict.EVE_DETECTED if detected else ControlVerdict.PASS
                outcome = ControlOutcome(verdict, _BASES[basis], bob_bit, alice_bit)
        else:
            message_rounds += 1
            detected = False
            if half < 0:
                u_b = lo2[p]
                half = hi2[p]
                p += 1
            else:
                u_b = half
                half = -1
            s = encode[s][u_b]
            if backward:
                if not backward_random:
                    basis = backward[0]
                elif half < 0:
                    basis = lo2[p] >> 1
                    half = hi2[p]
                    p += 1
                else:
                    basis = half >> 1
                    half = -1
                p0, s0, s1 = measure_t[s][basis]
                r = uni[p]
                p += 1
                if r < p0:
                    bit = 0
                    s = s0
                else:
                    bit = 1
                    s = s1
                if keep_records:
                    observations.append(EveObservation(index, backward_leg, _BASES[basis], bit))
            acc0, acc1, acc2 = bell[s]
            r = uni[p]
            p += 1
            if r < acc0:
                k = 0
            elif r < acc1:
                k = 1
            elif r < acc2:
                k = 2
            else:
                k = 3
            alice_key += key_bits[u_a][k ^ u_a]
            bob_key += key_bits[k ^ u_b][u_b]
            if keep_records:
                outcome = MessageOutcome(
                    _UNITARIES[u_b], BellOutcome(k), _UNITARIES[k ^ u_a], _UNITARIES[k ^ u_b]
                )
        if keep_records:
            records.append(RoundRecord(index, _UNITARIES[u_a], outcome))
        if detected:
            detections += 1
            aborted = True
            abort_cause = ABORT_CONTROL
            break

    overall, amp_rate, phase_rate = _error_rates(alice_key, bob_key)
    alice_pre = tuple(alice_key)
    bob_pre = tuple(bob_key)

    checked = 0
    alice_final = alice_pre
    bob_final = bob_pre
    # Eve sees every public message: the rounds', then the key check's.
    transcript = [message for record in records for message in record.outcome.transcript]
    if not aborted:
        policy = KeyCheckPolicy(config.check_fraction, config.mismatch_threshold)
        check_ss = np.random.SeedSequence(config.seed, spawn_key=(1,))
        check = key_check(alice_key, bob_key, policy, np.random.default_rng(check_ss))
        if keep_records:
            transcript += check.transcript
        checked = len(check.positions)
        alice_final = check.alice_final
        bob_final = check.bob_final
        if check.verdict is CheckVerdict.ABORT:
            aborted = True
            abort_cause = ABORT_KEY_CHECK

    detection_prob, ci_low, ci_high = _binomial_ci(detections, control_rounds)
    capacity = len(alice_pre) / message_rounds if message_rounds else 0.0
    report = SimulationReport(
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
    return SessionResult(
        report=report,
        records=records,
        transcript=transcript,
        observations=observations,
        alice_pre_check=alice_pre,
        bob_pre_check=bob_pre,
        alice_final=alice_final,
        bob_final=bob_final,
    )


def run_simulation(config: SimConfig) -> SimulationReport:
    """Execute one session and return its report (deterministic given seed)."""
    return run_session(config).report


def derive_seed(master_seed: int, index: int) -> int:
    """Stable per-run seed for independent trials of one experiment."""
    _require_seed("master_seed", master_seed)
    require_count("index", index)
    return int(np.random.SeedSequence([master_seed, index]).generate_state(1, np.uint64)[0])


def run_batch(config: SimConfig, n_runs: int) -> list[SimulationReport]:
    """Independent sessions with per-run seeds split off the config seed."""
    config.validate()
    require_count("n_runs", n_runs)
    return [
        run_simulation(replace(config, seed=derive_seed(config.seed, i))) for i in range(n_runs)
    ]


# --- Report serialization ---


# Field name -> annotated type: int (a count), float (a rate), bool or str | None.
_REPORT_FIELDS = {f.name: f.type for f in fields(SimulationReport)}
_report_values = operator.attrgetter(*_REPORT_FIELDS)
# '  "<name>": ', the start of each field's line in the JSON object.
_JSON_PREFIXES = tuple(f"  {encode_basestring_ascii(name)}: " for name in _REPORT_FIELDS)


def serialize_report(report: SimulationReport, fmt: str = "json") -> bytes:
    """Render a report as JSON (lossless round-trip) or single-row CSV.

    The JSON is written directly, one field per line, and equals
    json.dumps(fields, indent=2) plus a trailing newline.
    """
    values = _report_values(report)
    if fmt == "json":
        lines = [prefix + _json_value(v) for prefix, v in zip(_JSON_PREFIXES, values)]
        return ("{\n" + ",\n".join(lines) + "\n}\n").encode()
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_REPORT_FIELDS)
        writer.writerow(_csv_cell(v) for v in values)
        return buf.getvalue().encode()
    raise ConfigError(f"unknown report format {fmt!r}")


def _json_value(value) -> str:
    """One value as json.dumps encodes a dict value, with the same type tests in the same order."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == math.inf:
            return "Infinity"
        if value == -math.inf:
            return "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else value


def parse_report(data: bytes) -> SimulationReport:
    """Inverse of serialize_report for the JSON format.

    Every field must be present and hold its annotated type: a count is an
    int (not a bool), a rate a float, aborted a bool and abort_cause None or
    a str.
    """
    try:
        raw = json.loads(data.decode())
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
        raise ConfigError(f"report is not UTF-8 JSON: {exc}") from None
    if not isinstance(raw, dict) or set(raw) != set(_REPORT_FIELDS):
        raise ConfigError("JSON fields do not match the report schema")
    for name, kind in _REPORT_FIELDS.items():
        value = raw[name]
        if not (is_int(value) if kind is int else isinstance(value, kind)):
            raise ConfigError(f"report field {name} has the wrong type: {value!r}")
    return SimulationReport(**raw)


# --- Table rendering ---


def render_unitary_table() -> str:
    """Human-readable rendering of the outcome table."""
    table = unitary_outcome_table()
    header = ["", *(f"u{int(b)} ({int(b) >> 1}{int(b) & 1})" for b in LocalUnitary)]
    lines = ["  ".join(f"{cell:>8}" for cell in header)]
    for a, row in zip(LocalUnitary, table):
        cells = [f"u{int(a)} ({int(a) >> 1}{int(a) & 1})", *(outcome.symbol for outcome in row)]
        lines.append("  ".join(f"{cell:>8}" for cell in cells))
    return "\n".join(lines)
