"""Monte Carlo harness: runs seeded protocol sessions, aggregates statistics,
and serializes reports.

A session is fully determined by its SimConfig (including the seed): the
protocol stream and the public key-check stream are both derived from it, so
identical configs produce byte-identical serialized reports. A control-round
detection aborts the session immediately; otherwise the public key check runs
once at the end.

The two streams are the children of SeedSequence(seed).spawn(2), built
directly as SeedSequence(seed, spawn_key=(i,)); the second is built only
when the key check runs, which shuffles a uint32 arange with
default_rng(second child): the order default_rng(second child).permutation
gives.
The rounds read the raw 64-bit words of PCG64(first child) in order:

- a 32-bit draw takes the low half of a fresh word, and the next 32-bit draw
  takes the high half of that word; uniforms drawn in between leave the
  buffered half in place;
- a unitary (u_A, u_B) is the top 2 bits of a 32-bit draw, a basis its top
  bit;
- a uniform is (word >> 11) * 2**-53, taken from a fresh word.

These are the values numpy's Generator returns for integers(4), integers(2)
and random() on PCG64. Each round draws, in order: u_A; on the forward leg,
Eve's basis (random policy only) and her uniform; the mode uniform (a
control round iff it is below control_prob); in a control round, Bob's
basis, Bob's uniform and Alice's uniform; in a message round, u_B, then on
the backward leg Eve's basis (random policy only) and her uniform, then the
uniform of the Bell measurement. A qubit measurement gives bit 0 iff its
uniform is below the exact Born probability p0; a Bell measurement gives the
first outcome whose exact cumulative probability exceeds its uniform. So a
session equals the scalar round functions of qdkd.protocol and
qdkd.adversary driven by default_rng(first child), which decide with the
float kernels, except at the uniforms 0.5 - 2**-53, 0.5 and 0.5 + 2**-53:
there the kernels' thresholds for an exact 1/2 are off by an ulp or two.

The rounds decide from tables of the round automaton that qdkd.oracle builds
in exact integer arithmetic: the 12 to 20 states a session can reach under
one attack, with each state's probabilities and successors precomputed.
run_session draws the words in chunks that double from 64 to 4096 and
decodes each chunk once with numpy into four bytes objects, one byte per
word: the top 2 bits of the low half, the top 2 bits of the high half, the
word's rank and its control flag. The decode rests on one exact rule. A
word's uniform is r = k * 2**-53 with k = word >> 11, and for every double
or Fraction t in [0, 1], r < t holds exactly when k < ceil(t * 2**53): k is
an integer, t * 2**53 is exact, and t = 1 gives 2**53, above every k. The
rank is the number of the sorted distinct ceilings (the edges) of the
attack's exact thresholds that are at or below k, so r lies below a
threshold exactly when the rank is at most the index of its edge. The
control flag is k < ceil(control_prob * 2**53), exact at control_prob 0 and
1 too; a control_prob of any real type, numpy's included, is compared as
its exact value.

Once a round's words are read, its outcome depends only on its draws. So
_round_lookup unrolls the automaton's tables once per attack and key mode
into nested tables indexed by the draws in stream order: u_A, Eve's forward
basis and rank, then for a control round Bob's basis and the two ranks,
which give the detection and the round's ControlOutcome, and for a message
round u_B, Eve's backward basis and rank and the Bell rank, which give both
parties' key bytes and the round's MessageOutcome. The loop then makes one
lookup per leg, keeping the index of the next fresh word and the buffered
high half's 2-bit value, and makes no float comparison. A branch of
probability 0 lies behind a threshold of exactly 0 or 1, which no uniform
in [0, 1) selects: its entries sit at a rank no word has and hold None, so
the loop needs no check of its own.
"""

import csv
import functools
import io
import json
import math
import operator
from dataclasses import dataclass, field, fields, replace

import numpy as np

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
    decode,
    exact_real,
    expected_correlation,
    is_int,
    key_check,
    require_count,
    require_key_mode,
    require_policy,
    require_probability,
)
from .oracle import _round_tables, unitary_outcome_table
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

    The keys are bytes, one 0/1 byte per bit. records, transcript and
    observations are filled only by run_session(..., keep_records=True);
    otherwise they are empty. Eve's view is her observations plus the
    transcript: she sees every public message.
    """

    report: SimulationReport
    records: list[RoundRecord] = field(default_factory=list)
    transcript: list[ClassicalMessage] = field(default_factory=list)
    observations: list[EveObservation] = field(default_factory=list)
    alice_pre_check: bytes = b""
    bob_pre_check: bytes = b""
    alice_final: bytes = b""
    bob_final: bytes = b""


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
    """(overall, amplitude-position, phase-position) mismatch frequencies of
    two equal-length bytes-like keys."""
    n = len(alice_key)
    if n == 0:
        return 0.0, 0.0, 0.0
    differs = np.frombuffer(alice_key, dtype=np.uint8) != np.frombuffer(bob_key, dtype=np.uint8)
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
_RANK_LIMIT = 256  # a rank must fit in a byte
# Shift and mask operands of the decode, typed so numpy 1.x keeps uint64.
_U3, _U11, _U30, _U62 = (np.uint64(n) for n in (3, 11, 30, 62))


def _edge(t) -> int:
    """The number of stream uniforms r = k * 2**-53 (0 <= k < 2**53) with
    r < t, for a real t in [0, 1] (a round table's threshold or control_prob):
    a word's uniform lies below t exactly when its k lies below the edge,
    ceil(t * 2**53) for t's exact value (see exact_real)."""
    return math.ceil(exact_real(t) * 2**53)


def _decode_words(words, edges, control_edge) -> tuple[bytes, bytes, bytes, bytes]:
    """(lo2, hi2, rank, control) of raw 64-bit words, one byte per word: the
    top 2 bits of the low half, the top 2 bits of the high half, the number
    of edges at or below k = word >> 11, and whether k < control_edge."""
    k = words >> _U11
    return (
        ((words >> _U30) & _U3).astype(np.uint8).tobytes(),
        (words >> _U62).astype(np.uint8).tobytes(),
        edges.searchsorted(k, side="right").astype(np.uint8).tobytes(),
        (k < control_edge).tobytes(),
    )


_UNITARIES = tuple(LocalUnitary)
_BASES = tuple(MeasBasis)


@functools.cache
def _round_lookup(forward, backward, key_mode: KeyMode) -> tuple[np.ndarray, tuple, type]:
    """(edges, root, key dtype): an attack's rounds in one key mode as
    nested tables, built from its round tables and indexed by the round's
    draws in stream order.

    - root[u_A] is the round's node; with Eve on the forward leg it is
      [basis][rank] -> (Eve's bit, node).
    - A node is (control, message) of u_A and the state that reached Bob:
      control[basis][rank_Bob][rank_Alice] = (detected, ControlOutcome), and
      message[u_B] is a leaf row; with Eve on the backward leg it is
      [basis][rank] -> (Eve's bit, leaf row).
    - leaf_row[rank] = (Alice's key bytes + Bob's key bytes, MessageOutcome).

    edges holds the sorted distinct _edge of the round tables' thresholds
    (each p0 and Bell threshold), and a word's rank is the number of edges
    at or below its k. The rank rule: a word's uniform lies below a
    threshold t exactly when its rank is at most the index of _edge(t) in
    edges. Each table entry at each rank, its outcome object included, is
    made once per build. A rank no word has, below an edge 0 or at an
    edge 2**53 (behind a threshold of exactly 0 or 1), holds None, as does
    a basis Eve never uses. Nodes are shared by (u_A, state) and leaf rows
    by (u_A, u_B, state), so the size grows as states times ranks. The key
    dtype holds one party's key bytes of a round, so a view of the joint
    keys in it alternates Alice's and Bob's.
    """
    tables = _round_tables(forward, backward)
    p0s = [e[0] for rows in tables.measure for row in rows for e in row if e is not None]
    edge = {t: _edge(t) for t in {*p0s, *(acc for row in tables.bell if row for acc in row)}}
    edges = sorted(set(edge.values()))
    if len(edges) >= _RANK_LIMIT:
        raise OverflowError(f"{len(edges)} threshold edges: a rank must fit in a byte")
    index = {t: edges.index(e) for t, e in edge.items()}
    reached = [low < high for low, high in zip([0, *edges], [*edges, 2**53])]

    def rank_row(thresholds, outcomes):
        """At each rank a word can have, the first of outcomes whose
        threshold the word's uniform lies below, else the last; None at the
        other ranks."""
        js = [index[t] for t in thresholds]
        return tuple(
            next((o for j, o in zip(js, outcomes) if rank <= j), outcomes[-1]) if ok else None
            for rank, ok in enumerate(reached)
        )

    def by_rank(row, entry):
        """entry(row[rank]) at each rank a word can have, None at the others."""
        return tuple(entry(e) if ok else None for e, ok in zip(row, reached))

    # A None entry or Bell row, one the round tables never fill, stays None.
    measure_h, measure_t = (
        [[e and rank_row(e[:1], ((0, e[1]), (1, e[2]))) for e in row] for row in rows]
        for rows in (tables.measure[QubitId.H], tables.measure[QubitId.T])
    )
    bell = [row and rank_row(row, tuple(BellOutcome)) for row in tables.bell]
    # [alice label][bob label]: the bytes a message round appends to a key.
    key_bits = [[bytes(accumulate_key([], a, b, key_mode)) for b in range(4)] for a in range(4)]

    def leg(s, bases, then):
        """then(s) when Eve leaves the leg alone; otherwise [basis][rank] ->
        (Eve's bit, then(the state after her measurement))."""
        if not bases:
            return then(s)
        return tuple(
            by_rank(measure_t[s][basis], lambda e: (e[0], then(e[1]))) if basis in bases else None
            for basis in MeasBasis
        )

    @functools.cache
    def leaf_row(u_a, u_b, t):
        def entry(k):
            alice_view, bob_view = decode(u_a, k), decode(u_b, k)
            keys = key_bits[u_a][alice_view] + key_bits[bob_view][u_b]
            return keys, MessageOutcome(u_b, k, alice_view, bob_view)

        return by_rank(bell[t], entry)

    def control_row(u_a, basis, bob_bit, t):
        correlated = expected_correlation(u_a, basis) is Correlation.CORRELATED

        def entry(measured):
            alice_bit = measured[0]
            detected = (alice_bit == bob_bit) != correlated
            verdict = ControlVerdict.EVE_DETECTED if detected else ControlVerdict.PASS
            return detected, ControlOutcome(verdict, basis, bob_bit, alice_bit)

        return by_rank(measure_h[t][basis], entry)

    @functools.cache
    def node(u_a, s):
        control = tuple(
            by_rank(measure_t[s][basis], lambda e: control_row(u_a, basis, *e))
            for basis in MeasBasis
        )
        message = tuple(
            leg(t, backward, functools.partial(leaf_row, u_a, u_b))
            for u_b, t in zip(LocalUnitary, tables.encode[s])
        )
        return control, message

    root = tuple(
        leg(s, forward, functools.partial(node, u_a)) for u_a, s in enumerate(tables.prepared)
    )
    key_dtype = np.uint16 if key_mode.bits_per_round == 2 else np.uint32
    return np.array(edges, dtype=np.uint64), root, key_dtype


def run_session(config: SimConfig, keep_records: bool = False) -> SessionResult:
    """Execute one protocol session and return its report, keys and raw material.

    Rounds draw from the protocol stream described in the module docstring
    and read their outcome from the attack's nested round tables, one
    lookup per leg; a round builds no outcome of its own. keep_records is
    the one switch for the raw material: only with it does the session
    build its RoundRecords, which hold the lookup's outcomes, and Eve's
    observations, and list the public transcript (the outcomes'
    transcripts followed by the key check's). Without it those stay empty;
    the report and keys are the same either way.
    """
    config.validate()
    bitgen = np.random.PCG64(np.random.SeedSequence(config.seed, spawn_key=(0,)))
    forward = eve_bases(config.attack, ChannelLeg.FORWARD)
    backward = eve_bases(config.attack, ChannelLeg.BACKWARD)
    forward_leg, backward_leg = ChannelLeg.FORWARD, ChannelLeg.BACKWARD
    forward_random = len(forward) == 2
    backward_random = len(backward) == 2
    edges, root, key_dtype = _round_lookup(forward, backward, config.key_mode)
    control_edge = _edge(config.control_prob)
    records: list[RoundRecord] = []
    observations: list[EveObservation] = []
    # Each message round appends Alice's key bytes, then Bob's.
    joint = bytearray()
    control_rounds = message_rounds = detections = 0
    aborted = False
    abort_cause = None
    # The decoded stream: p is the next fresh word, half the buffered 2-bit
    # value of the high half of the last opened word (-1 if none). A 32-bit
    # draw opens word p (lo2[p], buffering hi2[p]) or takes half; a uniform
    # is read as rank[p], or as control[p] for the mode; a basis is a 2-bit
    # value >> 1. A refill keeps the words from p on, so p restarts at 0 and
    # half needs no index.
    lo2 = hi2 = rank = control = b""
    p, half = 0, -1
    refill_at = -1
    chunk = 64

    for index in range(config.rounds):
        if p > refill_at:
            decoded = _decode_words(bitgen.random_raw(chunk), edges, control_edge)
            lo2 = lo2[p:] + decoded[0]
            hi2 = hi2[p:] + decoded[1]
            rank = rank[p:] + decoded[2]
            control = control[p:] + decoded[3]
            p = 0
            refill_at = len(rank) - _ROUND_WORDS
            chunk = min(2 * chunk, _MAX_CHUNK_WORDS)
        if half < 0:
            u_a = lo2[p]
            half = hi2[p]
            p += 1
        else:
            u_a = half
            half = -1
        node = root[u_a]
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
            bit, node = node[basis][rank[p]]
            p += 1
            if keep_records:
                observations.append(EveObservation(index, forward_leg, _BASES[basis], bit))
        # The 32-bit draw after the mode uniform: Bob's basis (top bit) or u_B.
        is_control = control[p]
        if half < 0:
            drawn = lo2[p + 1]
            half = hi2[p + 1]
            p += 2
        else:
            drawn = half
            half = -1
            p += 1
        if is_control:
            control_rounds += 1
            detected, outcome = node[0][drawn >> 1][rank[p]][rank[p + 1]]
            p += 2
        else:
            message_rounds += 1
            detected = False
            leaf = node[1][drawn]
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
                bit, leaf = leaf[basis][rank[p]]
                p += 1
                if keep_records:
                    observations.append(EveObservation(index, backward_leg, _BASES[basis], bit))
            keys, outcome = leaf[rank[p]]
            p += 1
            joint += keys
        if keep_records:
            records.append(RoundRecord(index, _UNITARIES[u_a], outcome))
        if detected:
            detections += 1
            aborted = True
            abort_cause = ABORT_CONTROL
            break

    # One item of key_dtype per party and round, Alice's first.
    pairs = np.frombuffer(joint, key_dtype).reshape(-1, 2)
    alice_pre, bob_pre = pairs[:, 0].tobytes(), pairs[:, 1].tobytes()
    del joint, pairs  # freed before the key check, whose memory peaks
    overall, amp_rate, phase_rate = _error_rates(alice_pre, bob_pre)

    checked = 0
    alice_final = alice_pre
    bob_final = bob_pre
    # Eve sees every public message: the rounds', then the key check's.
    transcript = [message for record in records for message in record.outcome.transcript]
    if not aborted:
        policy = KeyCheckPolicy(config.check_fraction, config.mismatch_threshold)
        check_ss = np.random.SeedSequence(config.seed, spawn_key=(1,))
        check = key_check(alice_pre, bob_pre, policy, np.random.default_rng(check_ss))
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
# indent=2 selects json's pure-Python encoder; with no indent the C one runs,
# and these separators lay a flat object out as indent=2 does.
_JSON_ENCODER = json.JSONEncoder(separators=(",\n  ", ": "))


def serialize_report(report: SimulationReport, fmt: str = "json") -> bytes:
    """Render a report as JSON (lossless round-trip) or single-row CSV.

    The JSON equals json.dumps(fields, indent=2) plus a trailing newline.
    The CSV is a header and one row, as csv.writer writes them, with None
    empty, a float as its repr and the booleans as true and false.
    """
    values = _report_values(report)
    if fmt == "json":
        body = _JSON_ENCODER.encode(dict(zip(_REPORT_FIELDS, values)))
        return ("{\n  " + body[1:-1] + "\n}\n").encode()
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_REPORT_FIELDS)
        writer.writerow("true" if v is True else "false" if v is False else v for v in values)
        return buf.getvalue().encode()
    raise ConfigError(f"unknown report format {fmt!r}")


def parse_report(data: bytes) -> SimulationReport:
    """Inverse of serialize_report for the JSON format.

    data is bytes or a bytearray. Every field must be present and hold its
    annotated type: a count is an int (not a bool), a rate a float, aborted a
    bool and abort_cause None or a str.
    """
    if not isinstance(data, (bytes, bytearray)):
        raise ConfigError(f"report must be bytes, got {type(data).__name__}")
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
    labels = ["u%d (%d%d)" % (u, *u.bits) for u in LocalUnitary]
    rows = [["", *labels]]
    for label, row in zip(labels, unitary_outcome_table()):
        rows.append([label, *(outcome.symbol for outcome in row)])
    return "\n".join("  ".join(f"{cell:>8}" for cell in cells) for cells in rows)
