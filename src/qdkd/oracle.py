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
denominator and builds its Fraction once. The key check's abort probability
is a closed-form mixture over the enumerated per-round error distribution:
an integer polynomial power counts the erring key positions, and
hypergeometric counts, walked upward in the count by exact small-integer
updates, weigh each count by the chance that the check passes.

The simulator's round tables (_RoundTables) come from this arithmetic too,
so checks of the simulator against the oracle test its sampling and protocol
logic, not its physics: the physics check lives in the tests, against the
float kernels and TwoQubitState, which this module does not use.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .adversary import AttackStrategy, ChannelLeg, NoAttack, eve_bases, validate_attack
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


def _attack_branches(state, leg: ChannelLeg, strategy: AttackStrategy):
    """Yield (shift, state after Eve, observation or None) on one leg; the
    branch's probability is its state's squared norm over 2**shift times the
    input state's."""
    bases = eve_bases(strategy, leg)
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


# A control path's probability is 1/4 (Alice's unitary) * 1/2 (Bob's basis)
# times the squared-norm ratio of its final and initial states, which
# telescopes over the steps; the initial state has squared norm 2.
_CONTROL_BITS = 4 + _LEG_SHIFT + 2 * _PROJ_SHIFT[MeasBasis.X]


def control_detection_probability(attack: AttackStrategy) -> Fraction:
    """Exact probability that one control round flags Eve.

    Enumerates Alice's unitary, Eve's branches on the forward leg, Bob's
    uniformly random basis, and both parties' measurement outcomes.
    """
    validate_attack(attack)
    total = 0  # over 2**_CONTROL_BITS
    for a in range(4):
        s0 = _encoded_state(a)
        for eve_shift, s1, _obs in _attack_branches(s0, ChannelLeg.FORWARD, attack):
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
    return Fraction(total, 1 << _CONTROL_BITS)


# A message path's probability is 1/16 (the two unitaries) times its squared
# Bell overlap over 2 * 2 (the overlap's norm times the initial state's); the
# squared-norm ratios of the steps in between telescope away.
_MESSAGE_BITS = 6 + 2 * _LEG_SHIFT


def _message_paths(attack: AttackStrategy):
    """Yield (weight, u_A label, u_B label, Eve's forward observation, Eve's
    backward observation, Bell outcome label) for every branch of one message
    round; the branch's probability is weight / 2**_MESSAGE_BITS."""
    validate_attack(attack)
    for a in range(4):
        for f_shift, s1, obs_f in _attack_branches(_encoded_state(a), ChannelLeg.FORWARD, attack):
            for b in range(4):
                s2 = _apply_1q(s1, QubitId.T, _U_MATRICES[b])
                for b_shift, s3, obs_b in _attack_branches(s2, ChannelLeg.BACKWARD, attack):
                    shift = 6 + f_shift + b_shift
                    for overlap_sq, k in _bell_branches(s3):
                        yield overlap_sq << (_MESSAGE_BITS - shift), a, b, obs_f, obs_b, k


def unitary_outcome_table() -> list[list[BellOutcome]]:
    """The 4x4 deterministic Bell outcomes of honest message rounds.

    Cell (i, j) composes Alice's u_i before Bob's u_j on the travel photon of
    Psi+ and reads off the Bell-measurement outcome, taken from the exact
    enumeration of an unattacked message round: each cell must have exactly
    one possible outcome.
    """
    table = [[None] * 4 for _ in LocalUnitary]
    for _w, a, b, _f, _b, k in _message_paths(NoAttack()):
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
    weights = [0, 0, 0, 0]  # over 2**_MESSAGE_BITS, by e
    for w, a, b, _, _, k in _message_paths(attack):
        weights[k ^ a ^ b] += w
    return {e: Fraction(w, 1 << _MESSAGE_BITS) for e, w in enumerate(weights)}


def abort_probability(
    attack: AttackStrategy,
    policy: KeyCheckPolicy,
    message_rounds: int,
    key_mode: KeyMode = KeyMode.COMBINED,
) -> Fraction:
    """Exact probability that the public key check aborts.

    The check compares m = ceil(fraction * L) positions drawn uniformly
    without replacement from the L-bit pre-check key of a run with the given
    number of message rounds; the run aborts when mismatches exceed the
    threshold. The subset is uniform and drawn independently of the error
    pattern, so given B mismatching key positions, wherever they sit, the
    mismatch count in the subset is Hypergeometric(L, B, m). Hence

        P(abort) = 1 - sum_B P(B) * HypergeomCDF(threshold; L, B, m).

    Each round adds 0, 1 or 2 erring label positions (none, one of the
    amplitude and phase positions, or both; see message_error_distribution),
    and in combined mode both copies of an erring position mismatch, so B is
    that count summed over the independent rounds, times 2 in combined mode.
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
    group = 2 if key_mode is KeyMode.COMBINED else 1  # key positions per erring label position
    # P(0, 1, 2 erring label positions in a round) as integers over denom.
    q = (dist[0], dist[1] + dist[2], dist[3])
    denom = math.lcm(*(p.denominator for p in q))
    weights = _power(tuple(p.numerator * (denom // p.denominator) for p in q), n)
    while not weights[-1]:  # trailing counts of probability 0 need no walk
        weights.pop()
    top = min(threshold, m)  # the most mismatches the check accepts
    # With B = group * k erring key positions, the check passes with
    # sum_x C(B, x) * C(L - B, m - x) of the C(L, m) subsets, x <= top. Walk k
    # upward keeping only C(size, m - top) for size = L - B, lowering size one
    # position at a time by C(N - 1, r) = C(N, r) * (N - r) / N, and step up
    # to the other x by C(N, r + 1) = C(N, r) * (N - r) / (r + 1); both
    # divisions are exact.
    low = m - top
    size, tail = length, math.comb(length, low)
    accept = 0
    for k, w in enumerate(weights):
        if k:
            for _ in range(group):
                tail = tail * (size - low) // size
                size -= 1
        if w:
            term = tail  # C(size, m - x), from x = top down to 0
            passed = math.comb(group * k, top) * term
            for x in range(top - 1, -1, -1):
                term = term * (size - m + x + 1) // (m - x)
                passed += math.comb(group * k, x) * term
            accept += w * passed
    return 1 - Fraction(accept, denom**n * math.comb(length, m))


def _power(poly: tuple[int, ...], n: int) -> list[int]:
    """Integer coefficients of poly(x)**n, lowest degree first.

    After factoring out the lowest power of x, the coefficients p_k of
    c(x)**n with c_0 != 0 obey k * c_0 * p_k = sum_j ((n + 1) * j - k) * c_j
    * p_(k-j), which follows from comparing coefficients in
    c(x) * (c(x)**n)' = n * c'(x) * c(x)**n; every division is exact.
    """
    shift = next(i for i, c in enumerate(poly) if c)
    c = poly[shift:]
    p = [c[0] ** n]
    for k in range(1, (len(c) - 1) * n + 1):
        total = sum(
            ((n + 1) * j - k) * c[j] * p[k - j] for j in range(1, min(k, len(c) - 1) + 1)
        )
        p.append(total // (k * c[0]))
    return [0] * (shift * n) + p


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
    for w, a, b, obs_f, obs_b, k in _message_paths(attack):
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
