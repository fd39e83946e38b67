"""Exact enumeration ground truth for the protocol's attack statistics.

The per-round statistics are computed by exhaustively walking the finite
outcome tree (unitary choices, basis choices, Eve's outcomes, measurement
branches) with exact integer arithmetic; no sampling, no floating point.
Amplitudes are tracked unnormalized as ints: every amplitude in the protocol
is real, and with the X projectors scaled by 2 every step maps integer
amplitudes to integer amplitudes. A path's probability is the product of its
steps' squared-norm ratios, which telescopes to its final squared norm over
its initial one, times its choice probabilities; that is an int over a power
of two. Each statistic sums those ints over one fixed power-of-two
denominator and builds its Fraction once. An attack's round is enumerated
once: the statistics are cached by Eve's bases on each leg, looked up after
the attack is validated. The key check's abort probability is one
coefficient of a power of the per-round generating function of checked
positions and checked mismatches, taken by an exact integer recurrence that
stops at the checked count.

The simulator's round tables (_RoundTables) come from this arithmetic too,
so checks of the simulator against the oracle test its sampling and protocol
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
# are scaled by 2 so that every amplitude stays an integer; a branch through
# one carries 2**_PROJ_SHIFT[X] = 4 times its true squared norm.
_PROJ = (
    (((1, 0), (0, 0)), ((0, 0), (0, 1))),  # Z
    (((1, 1), (1, 1)), ((1, -1), (-1, 1))),  # 2 * X
)
_PROJ_SHIFT = (0, 2)

# The most a leg's branch can add to a path's exponent: 1 for Eve's choice of
# two bases, 2 for a scaled X projector.
_LEG_SHIFT = 3


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


def _measurement_branches(state, qubit, basis):
    """Yield (shift, projected unnormalized state, bit) of every possible
    outcome; the projection's squared norm is 2**shift times the true one."""
    for bit in (0, 1):
        proj = _apply_1q(state, qubit, _PROJ[basis][bit])
        if any(proj):
            yield _PROJ_SHIFT[basis], proj, bit


def _bell_branches(state):
    """Yield (squared overlap, outcome label) of every possible Bell outcome.

    _BELL[k] has squared norm 2, so outcome k has probability
    overlap**2 / (2 * _norm_sq(state)).
    """
    s0, s1, s2, s3 = state
    for k, (b0, b1, b2, b3) in enumerate(_BELL):
        overlap = b0 * s0 + b1 * s1 + b2 * s2 + b3 * s3
        if overlap:
            yield overlap * overlap, k


def _attack_branches(state, bases: tuple[MeasBasis, ...]):
    """Yield (shift, state after Eve, observation or None) on a leg where
    Eve measures in one of bases, each equally likely (none: no attack); the
    branch's probability is its state's squared norm over 2**shift times the
    input state's."""
    if not bases:
        yield 0, state, None
        return
    basis_shift = len(bases).bit_length() - 1  # one or two equally likely bases
    for basis in bases:
        for shift, proj, bit in _measurement_branches(state, QubitId.T, basis):
            yield basis_shift + shift, proj, (basis, bit)


def _encoded_state(u_label: int):
    """Alice's encoding of u_label on the unnormalized Psi+ pair."""
    return _apply_1q(_BELL[0], QubitId.T, _U_MATRICES[u_label])


class _RoundTables:
    """The session's round automaton under Eve's bases on each leg.

    States are integer 4-tuples, interned up to scale and sign and numbered
    in the order first met. Only states on protocol paths get entries:

    - measure[qubit][s][basis] = (p0, successor of bit 0, successor of bit 1),
      where a bit of probability 0 has successor None;
    - encode[s][u] = the state after u on the travel photon;
    - bell[s] = the cumulative probabilities of outcomes 0, 0-1 and 0-2.

    Each p0 and Bell threshold is an exact Fraction rounded once to a float;
    every one a session reaches is 0, 1/2 or 1.
    """

    def __init__(self, forward: tuple[MeasBasis, ...], backward: tuple[MeasBasis, ...]):
        self.states: list[tuple] = []
        self._ids: dict[tuple, int] = {}
        self.measure: tuple[list, list] = ([], [])
        self.encode: list = []
        self.bell: list = []
        self.prepared = tuple(self._intern(_encoded_state(u)) for u in range(4))
        at_bob = dict.fromkeys(t for s in self.prepared for t in self._leg(s, forward))
        at_alice = []
        for s in at_bob:
            for basis in MeasBasis:
                for after_bob in self._branches(s, QubitId.T, basis)[1:]:
                    if after_bob is not None:
                        self._branches(after_bob, QubitId.H, basis)
            self.encode[s] = tuple(
                self._intern(_apply_1q(self.states[s], QubitId.T, m)) for m in _U_MATRICES
            )
            at_alice += (t for returned in self.encode[s] for t in self._leg(returned, backward))
        for t in dict.fromkeys(at_alice):
            weights = [0, 0, 0, 0]
            for overlap_sq, k in _bell_branches(self.states[t]):
                weights[k] = overlap_sq
            total = sum(weights)
            self.bell[t] = tuple(float(Fraction(w, total)) for w in accumulate(weights[:3]))

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

    def _branches(self, s: int, qubit: int, basis: int) -> tuple:
        row = self.measure[qubit][s]
        if row[basis] is None:
            low, high = (_apply_1q(self.states[s], qubit, proj) for proj in _PROJ[basis])
            n0 = _norm_sq(low)
            row[basis] = (
                float(Fraction(n0, n0 + _norm_sq(high))),
                *(self._intern(t) if any(t) else None for t in (low, high)),
            )
        return row[basis]

    def _leg(self, s: int, bases: tuple[MeasBasis, ...]) -> list[int]:
        """The states a leg entered in state s can end in, given Eve's bases on it."""
        if not bases:
            return [s]
        return [
            t for basis in bases for t in self._branches(s, QubitId.T, basis)[1:] if t is not None
        ]


def _bases(attack) -> tuple[tuple[MeasBasis, ...], tuple[MeasBasis, ...]]:
    """Eve's bases on the forward and on the backward leg of a valid attack,
    which is all the enumeration depends on."""
    validate_attack(attack)
    return eve_bases(attack, ChannelLeg.FORWARD), eve_bases(attack, ChannelLeg.BACKWARD)


# A control path's probability is 1/4 (Alice's unitary) * 1/2 (Bob's basis)
# times the squared-norm ratio of its final and initial states, which
# telescopes over the steps; the initial state has squared norm 2.
_CONTROL_BITS = 4 + _LEG_SHIFT + 2 * _PROJ_SHIFT[MeasBasis.X]


def _control_detections(forward: tuple[MeasBasis, ...]) -> int:
    """The probability that one control round flags Eve, over 2**_CONTROL_BITS.

    Enumerates Alice's unitary, Eve's branches on the forward leg, Bob's
    uniformly random basis, and both parties' measurement outcomes.
    """
    total = 0
    for a in range(4):
        for eve_shift, s1, _obs in _attack_branches(_encoded_state(a), forward):
            for basis in (MeasBasis.Z, MeasBasis.X):
                expected = expected_correlation(LocalUnitary(a), basis)
                for bob_shift, s2, bob_bit in _measurement_branches(s1, QubitId.T, basis):
                    for alice_shift, s3, alice_bit in _measurement_branches(s2, QubitId.H, basis):
                        observed = (
                            Correlation.CORRELATED
                            if alice_bit == bob_bit
                            else Correlation.ANTICORRELATED
                        )
                        if observed is not expected:
                            shift = 4 + eve_shift + bob_shift + alice_shift
                            total += _norm_sq(s3) << (_CONTROL_BITS - shift)
    return total


# A message path's probability is 1/16 (the two unitaries) times its squared
# Bell overlap over 2 * 2 (the overlap's norm times the initial state's); the
# squared-norm ratios of the steps in between telescope away.
_MESSAGE_BITS = 6 + 2 * _LEG_SHIFT


def _message_paths(forward: tuple[MeasBasis, ...], backward: tuple[MeasBasis, ...]):
    """Yield (weight, u_A label, u_B label, Eve's forward observation, Eve's
    backward observation, Bell outcome label) for every branch of one message
    round under Eve's bases on each leg; the branch's probability is weight
    / 2**_MESSAGE_BITS."""
    for a in range(4):
        for f_shift, s1, obs_f in _attack_branches(_encoded_state(a), forward):
            for b in range(4):
                s2 = _apply_1q(s1, QubitId.T, _U_MATRICES[b])
                for b_shift, s3, obs_b in _attack_branches(s2, backward):
                    shift = 6 + f_shift + b_shift
                    for overlap_sq, k in _bell_branches(s3):
                        yield overlap_sq << (_MESSAGE_BITS - shift), a, b, obs_f, obs_b, k


@functools.cache
def _round_statistics(forward, backward) -> tuple[Fraction, tuple[Fraction, ...]]:
    """(control detection probability, the error mask's probabilities by e)
    under Eve's bases on each leg, enumerated once per attack."""
    weights = [0, 0, 0, 0]  # over 2**_MESSAGE_BITS, by e
    for w, a, b, _, _, k in _message_paths(forward, backward):
        weights[k ^ a ^ b] += w
    return (
        Fraction(_control_detections(forward), 1 << _CONTROL_BITS),
        tuple(Fraction(w, 1 << _MESSAGE_BITS) for w in weights),
    )


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
    for _w, a, b, _f, _b, k in _message_paths((), ()):
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
    k s_k = sum_(j = 1..2g) ((n + 1) j - k) denom^(j - 1) [y^j] R s_(k - j).
    The recurrence stops at s_m and truncates each s_k at z^min(threshold,
    m); every division is exact.
    """
    require_policy(policy)
    require_count("message_rounds", message_rounds)
    require_key_mode(key_mode)
    # Validation accepts numpy integers, which would overflow in the exact
    # arithmetic below.
    n, threshold = int(message_rounds), int(policy.mismatch_threshold)
    dist = message_error_distribution(attack)
    length = key_mode.bits_per_round * n
    m = checked_count(policy.fraction, length)
    top = min(threshold, m)  # the most mismatches the check accepts
    g = 2 if key_mode is KeyMode.COMBINED else 1
    q = (dist[0], dist[1] + dist[2], dist[3])
    denom = math.lcm(*(p.denominator for p in q))
    q0, q1, q2 = (p.numerator * (denom // p.denominator) for p in q)
    # r[j][t] = denom^(j - 1) [y^j z^t] R for 1 <= j <= 2g and t <= min(j, top).
    r = {j: [] for j in range(1, 2 * g + 1)}
    for j, row in r.items():
        for t in range(min(j, top) + 1):
            uniform = (q0 * (t == 0) + q2 * (t == j)) * math.comb(2 * g, j)
            row.append(denom ** (j - 1) * (uniform + q1 * math.comb(g, t) * math.comb(g, j - t)))
    recent = deque([[1] + [0] * top], maxlen=2 * g)  # s_(k - 2g), ..., s_(k - 1)
    for k in range(1, m + 1):
        s = [0] * (top + 1)
        for j in range(1, min(k, 2 * g) + 1):
            c, prev = (n + 1) * j - k, recent[-j]
            for t, a in enumerate(r[j]):
                for u in range(top + 1 - t):
                    s[t + u] += c * a * prev[u]
        recent.append([v // k for v in s])
    return 1 - Fraction(sum(recent[-1]), denom**m * math.comb(length, m))


def eve_resolved_bits(attack: AttackStrategy, key_mode: KeyMode = KeyMode.COMBINED) -> Fraction:
    """Expected number of secret key bits per message round that Eve's view
    (her measurement log plus the public transcript) determines exactly.

    Enumerates the joint distribution of the parties' labels and Eve's view,
    then counts label bits that are constant within each view's posterior.
    Combined mode counts all four bits (both labels), the single modes only
    the kept party's two.
    """
    require_key_mode(key_mode)
    mass: dict[tuple, int] = {}  # by view: the summed path weights
    support: dict[tuple, set[tuple]] = {}  # by view: the kept key bits of each path
    for w, a, b, obs_f, obs_b, k in _message_paths(*_bases(attack)):
        view = (obs_f, obs_b, k)
        mass[view] = mass.get(view, 0) + w
        support.setdefault(view, set()).add(tuple(accumulate_key([], a, b, key_mode)))
    resolved = sum(
        mass[view] * sum(len(set(column)) == 1 for column in zip(*kept))
        for view, kept in support.items()
    )
    return Fraction(resolved, 1 << _MESSAGE_BITS)


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
