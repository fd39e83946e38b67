"""Monte Carlo harness: runs seeded protocol sessions, aggregates statistics,
and serializes reports.

A session is fully determined by its SimConfig (including the seed): its
one random stream is derived from it, so identical configs produce
byte-identical serialized reports. A control-round detection aborts the
session immediately; otherwise the public key check runs once at the end.
This docstring is the specification of the stream, whose version is
STREAM_VERSION; README "Reproducibility" states what it guarantees a user.

The stream is PCG64(SeedSequence(seed, spawn_key=(0,))), the first child of
SeedSequence(seed).spawn(2). Round i reads its raw 64-bit words 4i to
4i + 3, w0 to w3; the key check reads from word 2**100 on, far past any
session's rounds, through Generator(the same PCG64 advanced to word
2**100). It checks ceil(v * length) positions for the check_fraction v as
written (see qdkd.protocol.checked_count), drawn as
choice(length, m, replace=False, shuffle=False) and sorted: a uniform
m-subset, not a superset of a smaller v's, drawn with at most 8 bytes per
key bit.
A word's uniform is r = (w >> 11) * 2**-53, the value Generator.random()
returns for it on PCG64. A 2-bit draw is a field of the word's low bits,
which no uniform uses: a unitary (u_A, u_B) is the field, a basis its top
bit. Each round's slots are:

- w0: u_A in bits 0-1, Eve's forward basis draw in bits 2-3, and the
  uniform of Eve's forward-leg measurement;
- w1: Bob's draw in bits 0-1 (u_B in a message round, his basis in a
  control round), Eve's backward basis draw in bits 2-3, and the mode
  uniform: a control round iff it is below control_prob;
- w2: the uniform of Bob's measurement in a control round, of Eve's
  backward-leg measurement in a message round;
- w3: the uniform of Alice's measurement in a control round, of the Bell
  measurement in a message round.

Eve's basis draws are read only under the random policy. A slot that a
round does not use is skipped; it never shifts a later draw. A qubit
measurement gives bit 0 iff its uniform is below the exact Born
probability p0; a Bell measurement gives the first outcome whose exact
cumulative probability exceeds its uniform. So a session equals the scalar
round functions of qdkd.protocol and qdkd.adversary, which decide with the
float kernels, when each of their integers() and random() calls is served
from its slot, except at the uniforms 0.5 - 2**-53, 0.5 and 0.5 + 2**-53:
there the kernels' thresholds for an exact 1/2 are 0.4999999999999999,
0.5000000000000001 or 0.5000000000000002, so a draw decides differently
with probability at most 2**-52.

The rounds decide from tables of the round automaton that qdkd.oracle builds
in exact integer arithmetic: the 12 to 20 states a session can reach under
one attack, interned up to scale and sign, with each state's probabilities
and successors precomputed, and the list of every path a round can take,
which the oracle's statistics sum over too.
run_session draws the words in chunks and codes each chunk once with
numpy. Where a round can detect, and so end the session, the chunks start
at 16 rounds and grow 4 times over to 4096 (16, 64, 256, 1024, then 4096
at a time); where none can, at control_prob 0 or when the attack's table
has no detecting row (no attack, or a backward one), they are 4096 rounds
from the first. The words drawn are the same either way. Each round has
one round code, whose digits _DIGITS declares: the fields f0 and f1, the
low 4 bits of w0 and of w1, w1's message flag and the ranks r0, r2 and r3
of w0, w2 and w3. With R the number of edges plus one, the code is

    (f0 + 16 r0) + 16R (f1 + 16 message) + 512R (r2 + R r3),

one of 512 R**3 values, each a distinct set of digits. It is summed in
16-bit lanes: each word's term is one uint16, and one uint64 multiply adds
a round's four terms (see _round_codes). The ranks rest on
one exact rule. A word's uniform is r = k * 2**-53 with k = word >> 11,
and for every double or Fraction t in [0, 1], r < t holds exactly when k <
ceil(t * 2**53): k is an integer, t * 2**53 is exact, and t = 1 gives
2**53, above every k. The attack's exact thresholds are the ends of its
paths' spans. The edges are the sorted distinct ceilings of those that
split the words, those strictly between 0 and 2**53, and the rank is the
number of edges at or below k. So r lies
below a threshold exactly when the rank is at most the threshold's index:
the index of its ceiling among the edges, -1 for a ceiling of 0, which no
word lies below, and the number of edges for a ceiling of 2**53, which
every word lies below. Every rank from 0 to the number of edges is some
word's. The code compares raw words, not k: for an integer edge 1 <= e <=
2**53, k >= e exactly when word > e * 2**11 - 1, and 2**53 gives 2**64 - 1,
which no word exceeds. The message flag is k >= ceil(control_prob * 2**53),
so a round is a control round iff k lies below that edge, exact at
control_prob 0 and 1 too; at 0, the one edge no word comparison expresses,
the flag is always 1, and the session reads the code tables from the
flag's place on instead of coding it. A control_prob of any real type,
numpy's included, is compared as its exact value, so it decides the same
on numpy 1.x and 2.

Once a round's words are read, its outcome depends only on its draws, so
it depends only on its code: a table compiled per attack and key mode
straight from the round tables' path list (see _compile_codes) gives each
round's row: its key bits, packed into one byte per party with key bit j
in bit j, or its control verdict. A session makes no float comparison. A
table holds at most 2**16 codes, so an attack may have at most 4 edges;
each of the 7 attacks has one, the edge of 1/2, and so 4,096 codes. A
session keeps every round's row before its first detection, a passing
control round's as 0x1010, and the report counts them all in one pass: a
message round's two bytes XOR to the set of its key bits that differ, and
the pass rows count the control rounds. The message rounds' rows are
gathered once, when the key check draws a position or the keys are first
read, and no key is unpacked unless it is read.
"""

import csv
import functools
import io
import itertools
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
    CheckVerdict,
    ClassicalMessage,
    ControlOutcome,
    ControlVerdict,
    KeyCheckPolicy,
    KeyCheckResult,
    KeyMode,
    LocalUnitary,
    MessageOutcome,
    _check_keys,
    accumulate_key,
    exact_real,
    is_int,
    require_count,
    require_key_mode,
    require_policy,
    require_probability,
)
from .oracle import _round_tables


# The version of the stream the module docstring specifies. The float
# tables' stream is 0; then came exact thresholds (1), an exact narrow numpy
# control_prob (2), an exact narrow numpy check_fraction (3), an exact numpy
# longdouble check_fraction (4), the key check's choice draw from word
# 2**100 of the rounds' PCG64, counting a float fraction as written (5), and
# four words per round, each draw in a fixed slot (6).
STREAM_VERSION = 6

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


# The attributes SessionResult compares and shows: its fields but check,
# then the final keys.
_SESSION_SHOWN = (
    "report",
    "records",
    "transcript",
    "observations",
    "alice_pre_check",
    "bob_pre_check",
    "alice_final",
    "bob_final",
)


class _PreCheckKeys:
    """A session's two pre-check keys, held until they are read as its
    rows, one np.uint16 item per round but a detecting one (see
    _code_table): Alice's packed key byte then Bob's for a message round,
    and _PASS_ROW for each of its controls control rounds. pairs()
    gathers the message rounds' rows on its first call: for the key
    check's flags once it has drawn a position, or for the keys' first
    read, which unpacks them through unpack, the key mode's _UNPACK
    table, and drops them. With no control row there is nothing to
    gather; with no rows, both keys are empty."""

    def __init__(self, rows=(), unpack=None, controls=0):
        self._rows, self._unpack, self._controls = rows, unpack, controls

    def pairs(self) -> np.ndarray:
        """The message rounds' rows, in round order; the first call with
        control rows left gathers them, once, and keeps only them."""
        if self._controls:
            rows = self._rows
            self._rows, self._controls = rows.compress(rows != _PASS_ROW), 0
        return self._rows

    @functools.cached_property
    def keys(self) -> tuple[bytes, bytes]:
        """(Alice's key, Bob's key) as bytes, one 0/1 byte per bit."""
        pairs, unpack = self.pairs(), self._unpack
        del self._rows, self._unpack
        if not len(pairs):
            return b"", b""
        keys = unpack.take(pairs.view(np.uint8)).reshape(-1, 2)
        return keys[:, 0].tobytes(), keys[:, 1].tobytes()

    def bits(self) -> tuple[np.ndarray, np.ndarray]:
        """The keys as read-only uint8 arrays, views of their bytes."""
        return tuple(np.frombuffer(key, np.uint8) for key in self.keys)


@dataclass(eq=False, repr=False)
class SessionResult:
    """Report and keys, plus the raw material tests and analyses need.

    The keys are bytes, one 0/1 byte per bit, and read-only. The pre-check
    keys are unpacked from pre_check on their first read, or that of
    check's alice_bits and bob_bits, which are views of them; a session
    whose keys are never read never builds them. alice_final and
    bob_final are check's final keys, built on the first read (see
    KeyCheckResult), or the pre-check keys when no check ran, because a
    control-round detection ended the session first. check is None then.
    records, transcript and observations are filled only by
    run_session(..., keep_records=True); otherwise they are empty. Eve's
    view is her observations plus the transcript: she sees every public
    message. Equality and repr cover the report, the raw material and all
    four keys, not check itself.
    """

    report: SimulationReport
    records: list[RoundRecord] = field(default_factory=list)
    transcript: list[ClassicalMessage] = field(default_factory=list)
    observations: list[EveObservation] = field(default_factory=list)
    check: KeyCheckResult | None = None
    pre_check: _PreCheckKeys = field(default_factory=_PreCheckKeys)

    @property
    def alice_pre_check(self) -> bytes:
        return self.pre_check.keys[0]

    @property
    def bob_pre_check(self) -> bytes:
        return self.pre_check.keys[1]

    @property
    def alice_final(self) -> bytes:
        return self.alice_pre_check if self.check is None else self.check.alice_final

    @property
    def bob_final(self) -> bytes:
        return self.bob_pre_check if self.check is None else self.check.bob_final

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in _SESSION_SHOWN)

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in _SESSION_SHOWN)
        return f"{self.__class__.__qualname__}({shown})"


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


# --- The protocol stream and the round automaton ---

# Rounds coded at once: 16, growing 4 times over to 4096.
_FIRST_CHUNK, _CHUNK_GROWTH, _MAX_CHUNK = 16, 4, 4096
_CODE_LIMIT = 2**16  # codes a round's table may hold
# The round code's digits, least significant first: (word slot, kind,
# radix), a rank's radix, None here, being the number of ranks.
_FIELD, _FLAG, _RANK = "field", "flag", "rank"
_DIGITS = (
    (0, _FIELD, 16),  # f0: u_A | Eve's forward basis draw << 2
    (0, _RANK, None),  # r0: Eve's forward measurement
    (1, _FIELD, 16),  # f1: Bob's draw | Eve's backward basis draw << 2
    (1, _FLAG, 2),  # message
    (2, _RANK, None),  # r2: Bob's measurement, or Eve's backward one
    (3, _RANK, None),  # r3: Alice's measurement, or the Bell measurement
)
# Operands of the code, typed so numpy 1.x keeps each array's dtype.
_U48, _U16_15 = np.uint64(48), np.uint16(15)
_K_END = 2**53  # above every k = word >> 11; 2**64 - 1 in word units
# Times a round's four uint16 lanes, viewed as one uint64, their sum in the top lane.
_LANE_SUM = np.uint64(0x0001_0001_0001_0001)
# A control round's byte, for each party, in a code table's row: 0x10 if it
# passes, 0x11 if it detects. A message round's byte packs 2 or 4 key bits,
# key bit j in bit j, so it is below 16 and never either. The tables below
# follow from these two rules.
_PASS, _DETECT = b"\x10", b"\x11"
_PASS_ROW, _DETECT_ROW = _PASS[0] * 0x0101, _DETECT[0] * 0x0101  # as one uint16 item
# _UNPACK[bits][b]: one item of the 0/1 key bytes that a packed byte b < 16 stands for.
_UNPACK = {
    bits: np.frombuffer(bytes(b >> j & 1 for b in range(16) for j in range(bits)), f"u{bits}")
    for bits in (2, 4)
}
# Indexed by a session's row v, up to _PASS_ROW, read as one uint16 item: the
# set of key bits that differ, which a message round's two bytes XOR to on
# either byte order; a pass row's two equal bytes XOR to 0.
_ROWS = np.arange(_PASS_ROW + 1, dtype=np.int64)
_DIFFER = (_ROWS ^ _ROWS >> 8) & 15
# At a session's message rounds' rows, viewed as bytes: one flag per key bit, in key order.
_KEY_DIFFERS = {bits: unpack.take(_DIFFER) for bits, unpack in _UNPACK.items()}
# _TALLY[v] holds three fields of _TALLY_FIELD bits, low first: how many
# key bits differ, how many of them are at amplitude positions (the even
# bits), and 1 for the pass row. Each field is at most 4 per row, so a sum
# over at most _TALLY_BLOCK rows carries from none.
_TALLY_FIELD = 21
_POPCOUNT = np.array([bin(b).count("1") for b in range(16)], np.int64)
_TALLY = _POPCOUNT.take(_DIFFER) + (_POPCOUNT.take(_DIFFER & 0b0101) << _TALLY_FIELD)
_TALLY[_PASS_ROW] = 1 << 2 * _TALLY_FIELD
_TALLY_BLOCK = 2**18


def _stream_seed(seed):
    """SeedSequence(seed, spawn_key=(0,)), the stream's, from the entropy
    words numpy assembles for it: the seed's 32-bit words, low first,
    padded with zeros to the 4-word pool, then the spawn key's 0. The same
    words give the same state, at half the cost of a spawn key."""
    seed = int(seed)
    return np.random.SeedSequence(np.array([seed & 0xFFFFFFFF, seed >> 32, 0, 0, 0], np.uint32))


def _edge(t) -> int:
    """The number of stream uniforms r = k * 2**-53 (0 <= k < 2**53) with
    r < t, for a real t in [0, 1] (a round table's threshold or control_prob):
    a word's uniform lies below t exactly when its k lies below the edge,
    ceil(t * 2**53) for t's exact value (see exact_real)."""
    return math.ceil(exact_real(t) * 2**53)


@functools.lru_cache(maxsize=16)
def _code_passes(edges: tuple[int, ...], control_edge: int) -> tuple[tuple, tuple, int]:
    """(passes, weights, offset) of the round code against the given edges
    and control edge, the passes and weights tiled over a whole chunk's
    words. A pass is one word > row comparison, a row of np.uint64 per
    edge (one row with no edges) in word units, e * 2**11 - 1 for an edge
    e: the edge at each rank's word, control_edge at the flag's in the
    first row, and 2**53 elsewhere, whose 2**64 - 1 no word exceeds. At
    control_edge 0 every round is a message round and no row expresses
    it, so the flag's entry is 2**53 too, its digit always 0, and offset
    is the flag's place: a session reads the code tables from there, at
    code + offset. offset is 0 at any other control edge. The
    weights are np.uint16 (field weights, rank weights): each digit's
    place in the code, at its word, and 0 where a word has no such digit.
    A word's term of the code is its field times its field weight plus
    its rank times its rank weight. Cached, so that a session builds no
    array of its own: an entry holds a 128 KiB row per edge and 64 KiB of
    weights, at most 9 MiB for the 16 entries at the 4-edge limit."""
    rows = [[_K_END] * 4 for _ in edges or (_K_END,)]
    weights = [0] * 4, [0] * 4
    radices = [radix or len(edges) + 1 for _, _, radix in _DIGITS]
    places = itertools.accumulate(radices, operator.mul, initial=1)
    offset = 0
    for (slot, kind, _), place in zip(_DIGITS, places):
        weights[kind is not _FIELD][slot] = place
        if kind is _FLAG:
            if control_edge:
                rows[0][slot] = control_edge
            else:
                offset = place
        elif kind is _RANK:
            for row, e in zip(rows, edges):
                row[slot] = e
    # k >= e, for k = word >> 11, exactly when word > e * 2**11 - 1.
    rows = [[(e << 11) - 1 for e in row] for row in rows]
    passes = tuple(np.tile(np.array(row, np.uint64), _MAX_CHUNK) for row in rows)
    return passes, tuple(np.tile(np.array(row, np.uint16), _MAX_CHUNK) for row in weights), offset


def _round_ranks(words, passes):
    """Each word's rank from the raw word: the number of passes whose row
    it exceeds, as a bool array for one pass and as np.uint16, summed over
    all of them, for several, because numpy adds two bool arrays as a
    logical or."""
    first, *rest = passes
    rank = words > first[: len(words)]
    for row in rest:
        rank = np.add(rank, words > row[: len(words)], dtype=np.uint16)
    return rank


def _round_codes(words, passes, weights):
    """The round code of each round of a chunk of at most _MAX_CHUNK rounds,
    from its raw 64-bit words, as np.uint64. Each word becomes one uint16
    lane, its term of the code (see _code_passes), and a round's four
    lanes, viewed as one uint64, are summed into the top lane by one
    multiply. No lane carries: every term and every partial sum of a
    round's terms is at most its code, which is below 2**16 (_CODE_LIMIT).
    The sum lands in the top lane on either byte order. Every operand has
    the dtype of the array it meets, or is bool, so numpy 1.x cannot
    promote to float64."""
    size = len(words)
    field_weights, rank_weights = weights
    rank = _round_ranks(words, passes)
    lanes = words.astype(np.uint16)
    lanes &= _U16_15
    lanes *= field_weights[:size]
    lanes += rank * rank_weights[:size]
    codes = lanes.view(np.uint64)
    codes *= _LANE_SUM
    codes >>= _U48
    return codes


@functools.cache
def _compile_codes(forward, backward, key_mode: KeyMode) -> tuple[tuple, np.ndarray, list, list]:
    """(edges, ids, rows, records): an attack's rounds in one key mode,
    compiled from its round tables, one entry per path a round can take
    (see oracle._RoundTables). Its row is 2 bytes: Alice's key bits of a
    message round, then Bob's, each packed into one byte with key bit j in
    bit j, or a control round's _PASS or _DETECT in each. Its record is
    (u_A, outcome, Eve's forward view, Eve's backward view), a view being
    (basis, Eve's bit), or None on a leg she leaves alone. ids holds each
    round code's entry. The compile reads the round tables' paths and
    nothing else.

    Each path's entry id goes into one slice of an array shaped by _DIGITS,
    most significant first, each 4-bit field split as (basis bit, unused
    bit, 2-bit draw); a digit the path does not read is a full slice. A
    span (low, high) of a word's uniform is the ranks from index[low] + 1
    to index[high], index[t] being the largest rank whose words lie below
    t. The thresholds are the ends of every path's spans: its forward
    leg's, w0's, and w2's and w3's. edges are the sorted distinct _edge of
    those that split the words (see the module docstring); more than
    _CODE_LIMIT codes raise OverflowError. A path whose span no word
    decides is at no code. ids starts at -1; a path whose slice holds an
    earlier path's id, and a code that no path covers, raise RuntimeError.
    """
    paths = _round_tables(forward, backward).paths
    spans = {span for *_, forward_leg, _, w2, w3 in paths for span in (forward_leg[4], w2, w3)}
    edge = {t: _edge(t) for span in spans for t in span}
    edges = sorted({e for e in edge.values() if 0 < e < _K_END})
    radices = [radix or len(edges) + 1 for _, _, radix in _DIGITS]
    if math.prod(radices) > _CODE_LIMIT:
        raise OverflowError(f"{len(edges)} splitting edges: more than {_CODE_LIMIT} round codes")
    # r < t exactly when the rank is at most index[t] (see the module docstring).
    index = {
        t: -1 if e == 0 else len(edges) if e == _K_END else edges.index(e) for t, e in edge.items()
    }
    full = slice(None)
    shape = []
    for (_, kind, _), radix in zip(_DIGITS, radices):
        shape[:0] = (2, 2, 4) if kind is _FIELD else (radix,)
    ids = np.full(shape, -1, np.intp)
    rows, records = [], []
    # [a][b]: the byte a party packs accumulate_key's bits of labels a, b into.
    keys = [[accumulate_key([], a, b, key_mode) for b in range(4)] for a in range(4)]
    packed = [[sum(bit << j for j, bit in enumerate(key)) for key in row] for row in keys]
    for _, u_a, outcome, forward_leg, backward_leg, w2, w3 in paths:
        _, forward_view, _, forward_draw, w0 = forward_leg
        if backward_leg is None:
            detected = outcome.verdict is ControlVerdict.EVE_DETECTED
            row, backward_view, message = (_DETECT if detected else _PASS) * 2, None, 0
            # Bob's basis is the top bit of his draw.
            f1 = None, slice(2 * outcome.basis, 2 * outcome.basis + 2)
        else:
            _, backward_view, _, backward_draw, _ = backward_leg
            alice, bob = packed[u_a][outcome.alice_view], packed[outcome.bob_view][outcome.u_b]
            row, message = bytes((alice, bob)), 1
            f1 = backward_draw, outcome.u_b
        # Digits in _DIGITS order, a field's as (Eve's basis bit or None, 2-bit draw).
        at = []
        for (_, kind, _), digit in zip(_DIGITS, ((forward_draw, u_a), w0, f1, message, w2, w3)):
            if kind is _FIELD:
                basis_bit, draw = digit
                at[:0] = (full if basis_bit is None else basis_bit, full, draw)
            elif kind is _RANK:
                low, high = digit
                at[:0] = (slice(index[low] + 1, index[high] + 1),)
            else:
                at[:0] = (digit,)
        at = tuple(at)
        if (ids[at] != -1).any():
            raise RuntimeError(f"_compile_codes: path {len(rows)} overlaps an earlier path's codes")
        ids[at] = len(rows)
        rows.append(row)
        records.append((u_a, outcome, forward_view, backward_view))
    uncovered = np.count_nonzero(ids < 0)
    if uncovered:
        raise RuntimeError(f"_compile_codes: {uncovered} round codes that no path covers")
    return tuple(edges), ids.ravel(), rows, records


@functools.cache
def _code_table(forward, backward, key_mode: KeyMode) -> tuple[tuple, np.ndarray, bool]:
    """(edges, rows, detects): _compile_codes' edges; each round code's
    row (see _compile_codes) as one np.uint16 item, which np.take gathers
    at a chunk's codes, and which _UNPACK unpacks; and whether any code's
    row is a detecting control round's."""
    edges, ids, rows, _ = _compile_codes(forward, backward, key_mode)
    table = np.frombuffer(b"".join(rows), np.uint16).take(ids)
    return edges, table, bool((table == _DETECT_ROW).any())


@functools.cache
def _code_records(forward, backward, key_mode: KeyMode) -> tuple:
    """Every round code's record from _compile_codes, each entry one
    object; only sessions that keep records build it."""
    _, ids, _, records = _compile_codes(forward, backward, key_mode)
    return tuple(map(records.__getitem__, ids.tolist()))


def run_session(config: SimConfig, keep_records: bool = False) -> SessionResult:
    """Execute one protocol session and return its report, keys and raw material.

    Rounds draw from the protocol stream described in the module docstring
    and are coded a chunk at a time, in chunks that grow from _FIRST_CHUNK
    rounds only where a round can detect, and of _MAX_CHUNK rounds from
    the first otherwise. _code_table's rows, read from _code_passes'
    offset, at a chunk's codes give its first detection, which ends the
    session at its round, and the session keeps every row before it, a passing control round's as
    _PASS_ROW, with no compaction. A round builds no outcome of its own.
    The report counts its mismatches and control rounds from the rows
    through _TALLY: a message round's two bytes XOR to the set of its key
    bits that differ. The message rounds' rows are gathered once, when
    the key check draws a position or the keys are first read, and the
    keys are unpacked from them only when read (see _PreCheckKeys and
    SessionResult).
    keep_records is the one switch for the raw material: only with it does
    the session read _code_records at each code, build its RoundRecords,
    which hold the compiled outcomes, and Eve's observations, and list the
    public transcript (the outcomes' transcripts followed by the key
    check's). Without it those stay empty; the report and keys are the
    same either way.
    """
    config.validate()
    bitgen = np.random.PCG64(_stream_seed(config.seed))
    forward = eve_bases(config.attack, ChannelLeg.FORWARD)
    backward = eve_bases(config.attack, ChannelLeg.BACKWARD)
    edges, code_rows, detects = _code_table(forward, backward, config.key_mode)
    control_edge = _edge(config.control_prob)
    passes, weights, offset = _code_passes(edges, control_edge)
    code_rows = code_rows[offset:]
    records: list[RoundRecord] = []
    observations: list[EveObservation] = []
    if keep_records:
        readings = _code_records(forward, backward, config.key_mode)[offset:]
        record, observe = records.append, observations.append
        forward_leg, backward_leg = ChannelLeg.FORWARD, ChannelLeg.BACKWARD
    # Each round appends its row: Alice's packed key byte, then Bob's, or
    # the pass row.
    joint = bytearray()
    aborted = False
    # A numpy integer's arithmetic would wrap or promote; the rounds count in int.
    rounds, start = int(config.rounds), 0
    # Small chunks first only where a round can detect and end the session.
    chunk = _FIRST_CHUNK if detects and control_edge else _MAX_CHUNK

    while start < rounds and not aborted:
        n = min(chunk, rounds - start)
        codes = _round_codes(bitgen.random_raw(4 * n), passes, weights)
        rows = code_rows.take(codes.view(np.int64)).tobytes()
        # The first detection ends the session at its round, a 2-byte row.
        cut = rows.find(_DETECT)
        if cut >= 0:
            aborted = True
            n = cut // 2 + 1
            rows = rows[:cut]
        joint += rows
        if keep_records:
            for index, code in zip(range(start, start + n), codes.tolist()):
                u_a, outcome, forward_view, backward_view = readings[code]
                if forward_view:
                    observe(EveObservation(index, forward_leg, *forward_view))
                if backward_view:
                    observe(EveObservation(index, backward_leg, *backward_view))
                record(RoundRecord(index, u_a, outcome))
        del codes, rows  # not held through the key check
        start += n
        chunk = min(_CHUNK_GROWTH * chunk, _MAX_CHUNK)

    # A detection ends the session at its last round; it is the only one.
    detections = int(aborted)
    abort_cause = ABORT_CONTROL if aborted else None
    # A round's row, as one uint16 item, indexes _TALLY.
    all_rows = np.frombuffer(joint, np.uint16)
    total = amp = passes = 0
    mask = (1 << _TALLY_FIELD) - 1
    for block in range(0, len(all_rows), _TALLY_BLOCK):
        tally = int(_TALLY.take(all_rows[block : block + _TALLY_BLOCK]).sum())
        total += tally & mask
        amp += tally >> _TALLY_FIELD & mask
        passes += tally >> 2 * _TALLY_FIELD
    bits = config.key_mode.bits_per_round
    message_rounds = len(joint) // 2 - passes
    control_rounds = start - message_rounds
    key_length = bits * message_rounds
    if key_length:
        half = key_length // 2
        overall, amp_rate, phase_rate = total / key_length, amp / half, (total - amp) / half
    else:
        overall = amp_rate = phase_rate = 0.0

    def differs_at(positions):
        # One flag per key bit, built after the check's draw has freed its
        # memory, and only if it drew a position.
        return _KEY_DIFFERS[bits].take(pre_check.pairs()).view(np.uint8).take(positions)

    pre_check = _PreCheckKeys(all_rows, _UNPACK[bits], passes)
    checked = 0
    check = None
    # Eve sees every public message: the rounds', then the key check's.
    transcript = [message for record in records for message in record.outcome.transcript]
    if not aborted:
        policy = KeyCheckPolicy(config.check_fraction, config.mismatch_threshold)
        # The check reads from word 2**100 of the stream; the rounds read 4
        # words each.
        check_rng = np.random.Generator(bitgen.advance(2**100 - 4 * rounds))
        check = _check_keys(key_length, differs_at, pre_check.bits, policy, check_rng)
        if keep_records:
            transcript += check.transcript
        checked = len(check.drawn)
        if check.verdict is CheckVerdict.ABORT:
            aborted = True
            abort_cause = ABORT_KEY_CHECK

    detection_prob, ci_low, ci_high = _binomial_ci(detections, control_rounds)
    capacity = key_length / message_rounds if message_rounds else 0.0
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
        final_key_length=key_length - checked,
        capacity_bits_per_message_round=capacity,
        publicly_inferable_bits=2 * message_rounds,
    )
    return SessionResult(
        report=report,
        records=records,
        transcript=transcript,
        observations=observations,
        check=check,
        pre_check=pre_check,
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
        data = dict(zip(_REPORT_FIELDS, values))
        body = _JSON_ENCODER.encode(data)
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
    annotated type: a count is a non-negative int (not a bool), a rate a
    finite float, aborted a bool and abort_cause None or a str.
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
        if kind is int and value < 0 or kind is float and not math.isfinite(value):
            raise ConfigError(f"report field {name} is out of range: {value!r}")
    return SimulationReport(**raw)

