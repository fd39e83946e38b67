"""Exact enumeration ground truth for the protocol's attack statistics.

One automaton, _RoundTables, enumerates a round under Eve's bases on each
leg: Alice's unitary on the travel photon of Psi+, Eve's measurement on a
leg she attacks, Bob's and Alice's control measurements, Bob's unitary and
the Bell measurement. Its states are unnormalized integer amplitude
vectors: every amplitude in the protocol is real, and with the X projectors
scaled by 2 every step maps integer amplitudes to integer amplitudes. Each
branch's probability is an exact Fraction of squared norms, and every
statistic here is a sum over the automaton's paths of products of those
Fractions and the uniform choice probabilities; no sampling, no floating
point. An attack's automaton is built and walked once: the tables and the
statistics are cached by Eve's bases on each leg, looked up after the
attack is validated. The key check's abort probability is one coefficient
of a power of the per-round generating function of checked positions and
checked mismatches, taken by an exact integer recurrence that stops at the
checked count. The recurrence's integer weights are cached with the
attack's statistics, as rows by power of y; a query truncates them at its
threshold, and the recurrence starts from a zero history, so each checked
position is one flat pass over each row.

The simulator's sessions run on the same cached tables (_round_tables), so
checks of the simulator against the oracle test its sampling and protocol
logic, not its physics: the physics check lives in the tests, against the
float kernels and TwoQubitState, which this module does not use.
"""

import functools
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .adversary import AttackStrategy, ChannelLeg, eve_bases, validate_attack
from .protocol import (
    Correlation,
    KeyCheckPolicy,
    KeyMode,
    accumulate_key,
    checked_count,
    expected_correlation,
    require_count,
    require_key_mode,
    require_policy,
)
from .quantum import _U_MATRICES, BellOutcome, LocalUnitary, MeasBasis, QubitId


# The Bell vectors as unnormalized sign vectors of squared norm 2, in
# outcome-label order over |ht> = 00,01,10,11.
_BELL = (
    (0, 1, 1, 0),
    (0, 1, -1, 0),
    (1, 0, 0, 1),
    (1, 0, 0, -1),
)

# Projectors onto measurement outcomes, by basis then bit. The X projectors
# are scaled by 2 so that every amplitude stays an integer; a probability is
# a ratio of squared norms, which the scale leaves unchanged.
_PROJ = (
    (((1, 0), (0, 0)), ((0, 0), (0, 1))),  # Z
    (((1, 1), (1, 1)), ((1, -1), (-1, 1))),  # 2 * X
)


# By qubit, the amplitude index pairs (|0>, |1> of that qubit) that a
# single-qubit matrix mixes.
_PAIRS = (((0, 2), (1, 3)), ((0, 1), (2, 3)))


def _apply_1q(state, qubit, m):
    """Apply a 2x2 matrix on one qubit of an unnormalized 4-amplitude state."""
    (m00, m01), (m10, m11) = m
    out = [0, 0, 0, 0]
    for i, j in _PAIRS[qubit]:
        x, y = state[i], state[j]
        out[i] = m00 * x + m01 * y
        out[j] = m10 * x + m11 * y
    return tuple(out)


def _norm_sq(state):
    return sum(s * s for s in state)


class _RoundTables:
    """The round automaton under Eve's bases on each leg.

    States are integer 4-tuples, interned up to scale and sign and numbered
    in the order first met. Only states on protocol paths get entries:

    - measure[qubit][s][basis] = (p0, successor of bit 0, successor of bit 1),
      where a bit of probability 0 has successor None;
    - encode[s][u] = the state after u on the travel photon;
    - bell[s] = the cumulative probabilities of outcomes 0, 0-1 and 0-2.

    Each p0 and Bell threshold is the exact Fraction of two squared norms;
    every one a session reaches is 0, 1/2 or 1. outcomes and leg walk the
    automaton with each branch's exact probability.
    """

    def __init__(self, forward: tuple[MeasBasis, ...], backward: tuple[MeasBasis, ...]):
        self.states: list[tuple] = []
        self._ids: dict[tuple, int] = {}
        self.measure: tuple[list, list] = ([], [])
        self.encode: list = []
        self.bell: list = []
        self.prepared = tuple(self._intern(_apply_1q(_BELL[0], QubitId.T, m)) for m in _U_MATRICES)
        at_bob = dict.fromkeys(t for s in self.prepared for _, _, t in self.leg(s, forward))
        at_alice = []
        for s in at_bob:
            for basis in MeasBasis:
                for _, _, after_bob in self.outcomes(s, QubitId.T, basis):
                    self.outcomes(after_bob, QubitId.H, basis)
            self.encode[s] = tuple(
                self._intern(_apply_1q(self.states[s], QubitId.T, m)) for m in _U_MATRICES
            )
            at_alice += (t for u in self.encode[s] for _, _, t in self.leg(u, backward))
        for t in dict.fromkeys(at_alice):
            weights = [sum(b * x for b, x in zip(vector, self.states[t])) ** 2 for vector in _BELL]
            total = sum(weights)
            self.bell[t] = tuple(Fraction(w, total) for w in accumulate(weights[:3]))

    def _intern(self, state) -> int:
        scale = math.gcd(*state) * (1 if next(x for x in state if x) > 0 else -1)
        key = tuple(x // scale for x in state)
        s = self._ids.get(key)
        if s is None:
            s = self._ids[key] = len(self.states)
            self.states.append(key)
            self.measure[0].append([None, None])
            self.measure[1].append([None, None])
            self.encode.append(None)
            self.bell.append(None)
        return s

    def outcomes(self, s: int, qubit: int, basis: int) -> list[tuple]:
        """(probability, bit, successor) of each possible outcome of measuring
        qubit of state s in basis; the entry is built on first use."""
        row = self.measure[qubit][s]
        if row[basis] is None:
            low, high = (_apply_1q(self.states[s], qubit, proj) for proj in _PROJ[basis])
            n0 = _norm_sq(low)
            row[basis] = (
                Fraction(n0, n0 + _norm_sq(high)),
                *(self._intern(t) if any(t) else None for t in (low, high)),
            )
        p0, s0, s1 = row[basis]
        return [(p, bit, t) for p, bit, t in ((p0, 0, s0), (1 - p0, 1, s1)) if t is not None]

    def leg(self, s: int, bases: tuple[MeasBasis, ...]) -> list[tuple]:
        """(probability, Eve's observation, state) of each way a leg entered
        in state s can end, Eve measuring the travel photon in one of bases,
        each equally likely; with no bases she does not attack the leg and
        observes None."""
        if not bases:
            return [(Fraction(1), None, s)]
        return [
            (p / len(bases), (basis, bit), t)
            for basis in bases
            for p, bit, t in self.outcomes(s, QubitId.T, basis)
        ]


_round_tables = functools.cache(_RoundTables)


def _bases(attack) -> tuple[tuple[MeasBasis, ...], tuple[MeasBasis, ...]]:
    """Eve's bases on the forward and on the backward leg of a valid attack,
    which is all the enumeration depends on."""
    validate_attack(attack)
    return eve_bases(attack, ChannelLeg.FORWARD), eve_bases(attack, ChannelLeg.BACKWARD)


def _message_paths(forward: tuple[MeasBasis, ...], backward: tuple[MeasBasis, ...]):
    """Yield (probability, u_A label, u_B label, Eve's forward observation,
    Eve's backward observation, Bell outcome label) for every possible
    branch of one message round under Eve's bases on each leg."""
    tables = _round_tables(forward, backward)
    for a, prepared in enumerate(tables.prepared):
        for p_forward, obs_f, s in tables.leg(prepared, forward):
            for b, returned in enumerate(tables.encode[s]):
                for p_backward, obs_b, t in tables.leg(returned, backward):
                    edges = (0, *tables.bell[t], 1)
                    for k in range(4):
                        if edges[k + 1] != edges[k]:
                            p = p_forward * p_backward * (edges[k + 1] - edges[k]) / 16
                            yield p, a, b, obs_f, obs_b, k


@functools.cache
def _round_statistics(forward, backward) -> tuple[Fraction, tuple[Fraction, ...], tuple]:
    """(control detection probability, the error mask's probabilities by e,
    the key check's weights) under Eve's bases on each leg, walked once per
    attack.

    A control round flags Eve when the parties' bits disagree with the
    correlation Alice's unitary and Bob's basis predict; both are uniform,
    so each path also has probability 1/4 * 1/2 of its choices.

    The weights are (denom, rows), where q0, q1, q2 over denom are the
    probabilities of 0, 1 and 2 erring label positions and rows[g - 1][j - 1]
    lists the nonzero (t, denom^(j - 1) [y^j z^t] R) of abort_probability's
    R for g key positions per label position, 1 <= j <= 2g.
    """
    tables = _round_tables(forward, backward)
    detection = Fraction(0)
    for a, prepared in enumerate(tables.prepared):
        for p_forward, _, s in tables.leg(prepared, forward):
            for basis in MeasBasis:
                expected = expected_correlation(LocalUnitary(a), basis)
                for p_bob, bob_bit, t in tables.outcomes(s, QubitId.T, basis):
                    for p_alice, alice_bit, _ in tables.outcomes(t, QubitId.H, basis):
                        observed = (
                            Correlation.CORRELATED
                            if alice_bit == bob_bit
                            else Correlation.ANTICORRELATED
                        )
                        if observed is not expected:
                            detection += p_forward * p_bob * p_alice
    errors = [Fraction(0)] * 4
    for p, a, b, _, _, k in _message_paths(forward, backward):
        errors[k ^ a ^ b] += p
    q = (errors[0], errors[1] + errors[2], errors[3])
    denom = math.lcm(*(p.denominator for p in q))
    q0, q1, q2 = (p.numerator * (denom // p.denominator) for p in q)

    def weight(g, j, t):  # denom^(j - 1) [y^j z^t] R
        uniform = (q0 * (t == 0) + q2 * (t == j)) * math.comb(2 * g, j)
        return denom ** (j - 1) * (uniform + q1 * math.comb(g, t) * math.comb(g, j - t))

    rows = tuple(
        tuple(
            tuple((t, w) for t in range(j + 1) if (w := weight(g, j, t)))
            for j in range(1, 2 * g + 1)
        )
        for g in (1, 2)
    )
    return detection / 8, tuple(errors), (denom, rows)


def control_detection_probability(attack: AttackStrategy) -> Fraction:
    """Exact probability that one control round flags Eve."""
    return _round_statistics(*_bases(attack))[0]


def unitary_outcome_table() -> list[list[BellOutcome]]:
    """The 4x4 deterministic Bell outcomes of honest message rounds.

    Cell (i, j) composes Alice's u_i before Bob's u_j on the travel photon of
    Psi+ and reads off the Bell-measurement outcome, taken from the exact
    enumeration of an unattacked message round: each cell must have exactly
    one possible outcome.
    """
    table = [[None] * 4 for _ in LocalUnitary]
    for _p, a, b, _f, _b, k in _message_paths((), ()):
        if table[a][b] is not None:
            raise AssertionError(f"honest composite u{a}, u{b} not deterministic")
        table[a][b] = BellOutcome(k)
    return table


def message_error_distribution(attack: AttackStrategy) -> dict[int, Fraction]:
    """Exact distribution of the per-round error mask e.

    e = label(announced) XOR label(u_A) XOR label(u_B); bit 2 (amplitude
    position) and bit 1 (phase position) of e are exactly the per-position
    key mismatch indicators between the parties' buffers.
    """
    return dict(enumerate(_round_statistics(*_bases(attack))[1]))


def abort_probability(
    attack: AttackStrategy,
    policy: KeyCheckPolicy,
    message_rounds: int,
    key_mode: KeyMode = KeyMode.COMBINED,
) -> Fraction:
    """Exact probability that the public key check aborts.

    The check compares m = ceil(fraction * L) positions drawn uniformly
    without replacement from the L-bit pre-check key of n message rounds and
    aborts when more than threshold of them mismatch. A round has 0, 1 or 2
    erring label positions (see message_error_distribution) with
    probabilities q0, q1, q2 over denom, and each label position fills g key
    positions: 2 in combined mode, where both copies of an erring position
    mismatch, 1 in single mode. The subset is drawn independently of the
    errors, so with y marking a checked position and z a checked mismatch,

        R(y, z) = q0 (1 + y)^2g + q1 (1 + y)^g (1 + zy)^g + q2 (1 + zy)^2g,
        P(abort) = 1 - sum_(x <= threshold) [z^x y^m] R^n / (denom^n C(L, m)).

    As R(0, z) = denom, [y^k] R^n = denom^(n - k) s_k for integer polynomials
    s_k in z, and comparing coefficients in R (R^n)' = n R' R^n gives
    k s_k = sum_(j = 1..2g) ((n + 1) j - k) denom^(j - 1) [y^j] R s_(k - j),
    with s_0 = 1 and s_(1 - 2g) = ... = s_(-1) = 0. The recurrence stops at
    s_m and truncates each s_k at z^min(threshold, m); every division is
    exact. The weights denom^(j - 1) [y^j z^t] R are cached with the
    attack's enumeration; a query flattens them, truncated, into one row of
    (t + u, u, weight) per j, so each step is one pass over each row.
    """
    require_policy(policy)
    require_count("message_rounds", message_rounds)
    require_key_mode(key_mode)
    denom, rows = _round_statistics(*_bases(attack))[2]
    # Validation accepts numpy integers, which would overflow in the exact
    # arithmetic below.
    n, threshold = int(message_rounds), int(policy.mismatch_threshold)
    length = key_mode.bits_per_round * n
    m = checked_count(policy.fraction, length)
    top = min(threshold, m)  # the most mismatches the check accepts
    g = 2 if key_mode is KeyMode.COMBINED else 1
    # By j = 1..2g: ((n + 1) j, -j, the terms adding w * s_(k - j)[u] to s_k[t + u]).
    steps = [
        ((n + 1) * j, -j, [(t + u, u, w) for t, w in row if t <= top for u in range(top + 1 - t)])
        for j, row in enumerate(rows[g - 1], 1)
    ]
    zero = [0] * (top + 1)
    # s_(k - 2g), ..., s_(k - 1), starting from the zero history before s_0 = 1.
    recent = deque([zero] * (2 * g - 1) + [[1] + zero[1:]], maxlen=2 * g)
    for k in range(1, m + 1):
        s = zero.copy()
        for base, back, terms in steps:
            c, prev = base - k, recent[back]
            for v, u, w in terms:
                s[v] += c * w * prev[u]
        recent.append([v // k for v in s])
    total = denom**m * math.comb(length, m)
    return Fraction(total - sum(recent[-1]), total)


def eve_resolved_bits(attack: AttackStrategy, key_mode: KeyMode = KeyMode.COMBINED) -> Fraction:
    """Expected number of secret key bits per message round that Eve's view
    (her measurement log plus the public transcript) determines exactly.

    Enumerates the joint distribution of the parties' labels and Eve's view,
    then counts label bits that are constant within each view's posterior.
    Combined mode counts all four bits (both labels), the single modes only
    the kept party's two.
    """
    require_key_mode(key_mode)
    mass: dict[tuple, Fraction] = {}  # by view: the summed path probabilities
    support: dict[tuple, set[tuple]] = {}  # by view: the kept key bits of each path
    for p, a, b, obs_f, obs_b, k in _message_paths(*_bases(attack)):
        view = (obs_f, obs_b, k)
        mass[view] = mass.get(view, 0) + p
        support.setdefault(view, set()).add(tuple(accumulate_key([], a, b, key_mode)))
    return sum(
        (
            mass[view] * sum(len(set(column)) == 1 for column in zip(*kept))
            for view, kept in support.items()
        ),
        Fraction(0),
    )


@dataclass(frozen=True)
class OracleResult:
    """Exact per-round statistics for one attack strategy."""

    detection_prob_per_control_round: Fraction
    key_error_rate_overall: Fraction
    key_error_rate_amplitude_bit: Fraction
    key_error_rate_phase_bit: Fraction


def exact_oracle(attack: AttackStrategy) -> OracleResult:
    """Ground-truth per-round statistics by exhaustive enumeration (no
    sampling). The key check's abort probability also needs a policy and a
    key length; abort_probability answers it."""
    dist = message_error_distribution(attack)
    amp = dist[2] + dist[3]
    phase = dist[1] + dist[3]
    return OracleResult(
        detection_prob_per_control_round=control_detection_probability(attack),
        key_error_rate_overall=(amp + phase) / 2,
        key_error_rate_amplitude_bit=amp,
        key_error_rate_phase_bit=phase,
    )
