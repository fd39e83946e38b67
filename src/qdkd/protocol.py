"""Two-party protocol logic: control-mode correlation checks, message-mode
dense coding, key accumulation, and the public key-fraction verification.

Alice prepares a Psi+ pair, encodes two bits by applying one of u0..u3 to the
travel photon, and sends it. Bob either measures it in a random Z/X basis and
announces basis and result (control mode, eavesdropping check), or encodes
two more bits with his own unitary and returns the photon for Alice's Bell
measurement (message mode). The announced Bell outcome lets each party decode
the other's unitary by XOR of the 2-bit labels.

All protocol state machines here are single-threaded per session; randomness
enters only through injected generators.
"""

import functools
import math
import numbers
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .errors import ConfigError, ProtocolError
from .quantum import (
    BellOutcome,
    LocalUnitary,
    MeasBasis,
    QubitId,
    TwoQubitState,
    apply_local,
    bell_state,
    measure_bell,
    measure_qubit,
)


class RoundMode(Enum):
    CONTROL = "control"
    MESSAGE = "message"


class Correlation(Enum):
    """Correlated means both parties observed the same bit in the shared basis."""

    CORRELATED = "correlated"
    ANTICORRELATED = "anticorrelated"


class ControlVerdict(Enum):
    PASS = "pass"
    EVE_DETECTED = "eve-detected"


class CheckVerdict(Enum):
    ACCEPT = "accept"
    ABORT = "abort"


class KeyMode(Enum):
    """Combined keeps both parties' bits per message round (4 bits); the
    single modes keep only one party's 2 bits and discard the other key."""

    COMBINED = "combined"
    SINGLE_ALICE = "single-alice"
    SINGLE_BOB = "single-bob"

    @property
    def bits_per_round(self) -> int:
        return 4 if self is KeyMode.COMBINED else 2


# --- Public classical messages (authenticated; visible to the adversary) ---


@dataclass(frozen=True)
class ModeAnnouncement:
    mode: RoundMode


@dataclass(frozen=True)
class BasisAnnouncement:
    basis: MeasBasis


@dataclass(frozen=True)
class ResultAnnouncement:
    bit: int


@dataclass(frozen=True)
class BellAnnouncement:
    outcome: BellOutcome


@dataclass(frozen=True)
class KeyCheckChallenge:
    positions: tuple[int, ...]


@dataclass(frozen=True)
class KeyCheckResponse:
    bits: tuple[int, ...]


@dataclass(frozen=True)
class AbortNotice:
    reason: str


ClassicalMessage = (
    ModeAnnouncement
    | BasisAnnouncement
    | ResultAnnouncement
    | BellAnnouncement
    | KeyCheckChallenge
    | KeyCheckResponse
    | AbortNotice
)

def expected_correlation(u: LocalUnitary, basis: MeasBasis) -> Correlation:
    """The correlation Alice expects in an honest control round.

    Z reads the amplitude bit: the Psi states anticorrelate h and t, the Phi
    states correlate. X reads the phase bit: Psi+ = (|++> - |-->)/sqrt2 and
    Phi+ = (|++> + |-->)/sqrt2 correlate, Psi- = (|-+> - |+->)/sqrt2 and
    Phi- = (|+-> + |-+>)/sqrt2 anticorrelate.
    """
    amplitude, phase = LocalUnitary(u).bits
    correlated = amplitude if MeasBasis(basis) is MeasBasis.Z else not phase
    return Correlation.CORRELATED if correlated else Correlation.ANTICORRELATED


def alice_prepare(rng) -> tuple[TwoQubitState, LocalUnitary]:
    """Prepare Psi+ and encode a uniformly random unitary on the travel photon.

    Returns the joint state (photon h retained by Alice, photon t in transit)
    and Alice's private choice u_A.
    """
    u_a = LocalUnitary(int(rng.integers(4)))
    state = apply_local(bell_state(BellOutcome.PSI_PLUS), QubitId.T, u_a)
    return state, u_a


def bob_choose_mode(control_prob: float, rng) -> RoundMode:
    """Bob picks control mode with probability control_prob, compared as its
    exact value (see exact_real)."""
    return RoundMode.CONTROL if rng.random() < exact_real(control_prob) else RoundMode.MESSAGE


@dataclass(frozen=True)
class ControlOutcome:
    verdict: ControlVerdict
    basis: MeasBasis
    bob_bit: int
    alice_bit: int

    @functools.cached_property
    def transcript(self) -> tuple[ClassicalMessage, ...]:
        """The round's public messages, built on the first read."""
        messages = (
            ModeAnnouncement(RoundMode.CONTROL),
            BasisAnnouncement(self.basis),
            ResultAnnouncement(self.bob_bit),
        )
        if self.verdict is ControlVerdict.EVE_DETECTED:
            messages += (AbortNotice("control-round correlation mismatch"),)
        return messages


def run_control_round(u_a: LocalUnitary, state: TwoQubitState, rng) -> ControlOutcome:
    """One control round over the (possibly attacked) pair after Alice's encoding.

    Bob measures the travel photon in a uniformly random basis and announces
    basis and result; Alice measures her photon in the same basis and flags
    Eve iff the observed correlation differs from the honest expectation.
    Contributes no key bits.
    """
    basis = MeasBasis(int(rng.integers(2)))
    bob_bit, after_bob = measure_qubit(state, QubitId.T, basis, rng.random())
    alice_bit, _ = measure_qubit(after_bob, QubitId.H, basis, rng.random())
    observed = Correlation.CORRELATED if alice_bit == bob_bit else Correlation.ANTICORRELATED
    detected = observed != expected_correlation(u_a, basis)
    verdict = ControlVerdict.EVE_DETECTED if detected else ControlVerdict.PASS
    return ControlOutcome(verdict, basis, bob_bit, alice_bit)


@dataclass(frozen=True)
class MessageOutcome:
    u_b: LocalUnitary
    announced: BellOutcome
    alice_view: LocalUnitary  # Alice's decode of Bob's unitary
    bob_view: LocalUnitary  # Bob's decode of Alice's unitary

    @functools.cached_property
    def transcript(self) -> tuple[ClassicalMessage, ...]:
        """The round's public messages, built on the first read."""
        return ModeAnnouncement(RoundMode.MESSAGE), BellAnnouncement(self.announced)


def run_message_round(
    u_a: LocalUnitary, state: TwoQubitState, rng, return_channel=None
) -> MessageOutcome:
    """One message round: Bob encodes u_B on the travel photon and returns it;
    Alice Bell-measures the pair and announces the outcome publicly.

    return_channel, when given, transforms the state while the photon travels
    back to Alice (the harness binds the adversary here).
    """
    u_b = LocalUnitary(int(rng.integers(4)))
    encoded = apply_local(state, QubitId.T, u_b)
    in_transit = return_channel(encoded) if return_channel is not None else encoded
    announced, _ = measure_bell(in_transit, rng.random())
    return MessageOutcome(u_b, announced, decode(u_a, announced), decode(u_b, announced))


def decode(own_u: LocalUnitary, announced: BellOutcome) -> LocalUnitary:
    """Recover the other party's unitary: label XOR of outcome and own choice."""
    return LocalUnitary(int(announced) ^ int(own_u))


# --- Key material ---


def accumulate_key(key: list[int], alice_label: int, bob_label: int, mode: KeyMode) -> list[int]:
    """Append one decoded message round to a party's key under the given mode.

    Combined appends Alice's 2 bits then Bob's 2 bits; the single modes keep
    only the configured party's bits. Each label is the 2-bit label of a
    unitary, own or decoded, split by LocalUnitary.bits: the even offset
    carries the amplitude (Psi vs Phi) bit and the odd offset the phase
    (+ vs -) bit.
    """
    if mode is not KeyMode.SINGLE_BOB:
        key.extend(LocalUnitary(alice_label).bits)
    if mode is not KeyMode.SINGLE_ALICE:
        key.extend(LocalUnitary(bob_label).bits)
    return key


def is_int(value) -> bool:
    """True for integers, numpy's included, but not for bools.

    The exact-type test comes first only to skip the ABC check for a plain int.
    """
    if type(value) is int:
        return True
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def require_probability(name: str, value) -> None:
    """Raise ConfigError unless value is a real in [0, 1] with an exact value, not a bool."""
    if type(value) is float and 0 <= value <= 1:
        return
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ConfigError(f"{name} must be a real number (not a bool), got {value!r}")
    if not 0 <= value <= 1:
        raise ConfigError(f"{name} must lie in [0, 1], got {value!r}")
    try:
        exact_real(value)
    except (AttributeError, TypeError, ValueError):
        raise ConfigError(f"{name} must have an exact value, got {value!r}") from None


def exact_real(value):
    """The exact value of a real number: an int, float or Fraction as it is,
    a numpy integer as an int, and any other real (a numpy float32 or
    longdouble, say) as the Fraction of its as_integer_ratio(). A numpy
    scalar's own product with a key length rounds or overflows, and under
    numpy 2 (NEP 50) so does a float32's comparison with a double."""
    if isinstance(value, (int, float, Fraction)):
        return value
    return int(value) if isinstance(value, np.integer) else Fraction(*value.as_integer_ratio())


def require_count(name: str, value) -> None:
    """Raise ConfigError unless value is a non-negative integer; bools are refused."""
    if not is_int(value) or value < 0:
        raise ConfigError(f"{name} must be a non-negative integer, got {value!r}")


def require_key_mode(value) -> None:
    """Raise ConfigError unless value is a KeyMode."""
    if not isinstance(value, KeyMode):
        raise ConfigError(f"key_mode must be a KeyMode, got {value!r}")


def checked_count(fraction: float, length: int) -> int:
    """Number of key positions publicly compared: ceil(exact_real(fraction) * length)."""
    return math.ceil(exact_real(fraction) * length)


@dataclass(frozen=True)
class KeyCheckPolicy:
    """fraction of the key announced publicly; abort when mismatches exceed
    the threshold (0 by default: the simulated channel is noiseless)."""

    fraction: float
    mismatch_threshold: int = 0


def require_policy(policy) -> None:
    """Raise ConfigError unless policy is a KeyCheckPolicy whose fraction lies
    in [0, 1] and whose threshold is a non-negative integer."""
    if not isinstance(policy, KeyCheckPolicy):
        raise ConfigError(f"check policy must be a KeyCheckPolicy, got {policy!r}")
    require_probability("check_fraction", policy.fraction)
    require_count("mismatch_threshold", policy.mismatch_threshold)


@dataclass(frozen=True, eq=False)
class KeyCheckResult:
    """The outcome of a key check. The final keys and the two parties'
    announced samples are bytes, one 0/1 byte per bit; positions is the
    sorted, read-only array of the checked positions."""

    verdict: CheckVerdict
    mismatches: int
    positions: np.ndarray
    alice_final: bytes
    bob_final: bytes
    alice_sample: bytes
    bob_sample: bytes

    @property
    def transcript(self) -> tuple[ClassicalMessage, ...]:
        """The check's public messages, built when read: the challenge, each
        party's response and, on abort, the notice."""
        messages = (
            KeyCheckChallenge(tuple(self.positions.tolist())),
            KeyCheckResponse(tuple(self.alice_sample)),
            KeyCheckResponse(tuple(self.bob_sample)),
        )
        if self.verdict is CheckVerdict.ABORT:
            messages += (AbortNotice(f"key check found {self.mismatches} mismatching bits"),)
        return messages


def key_check(alice_key, bob_key, policy: KeyCheckPolicy, public_rng) -> KeyCheckResult:
    """Publicly compare a seed-derived sample of key positions.

    The sample is the prefix of a public random permutation, so a larger
    fraction always checks a superset of positions (abort monotonicity).
    The permutation is public_rng.shuffle of a uint32 arange (int64 beyond
    2**32 positions), which is the order public_rng.permutation(length)
    gives, in half its memory. Checked positions are removed from both final
    keys. A policy that is not a valid KeyCheckPolicy, or a key that is not
    a 1-D sequence of 0/1 values, raises ConfigError before anything is
    compared.
    """
    require_policy(policy)
    alice, bob = _key_bits("alice_key", alice_key), _key_bits("bob_key", bob_key)
    if len(alice) != len(bob):
        raise ProtocolError(f"key length mismatch: {len(alice)} vs {len(bob)} (transcript desync)")
    length = len(alice)
    picked = _checked_positions(length, checked_count(policy.fraction, length), public_rng)
    alice_sample, bob_sample = alice[picked], bob[picked]
    mismatches = int(np.count_nonzero(alice_sample != bob_sample))
    verdict = (
        CheckVerdict.ABORT if mismatches > policy.mismatch_threshold else CheckVerdict.ACCEPT
    )
    kept = np.ones(length, dtype=bool)
    kept[picked] = False
    return KeyCheckResult(
        verdict,
        mismatches,
        picked,
        alice[kept].tobytes(),
        bob[kept].tobytes(),
        alice_sample.tobytes(),
        bob_sample.tobytes(),
    )


def _checked_positions(length: int, m: int, public_rng) -> np.ndarray:
    """The sorted first m entries of the public permutation, read-only. The
    full permutation is freed on return."""
    if m > 0:
        order = np.arange(length, dtype=np.uint32 if length <= 2**32 else np.int64)
        public_rng.shuffle(order)
        picked = np.sort(order[:m])
    else:
        picked = np.zeros(0, dtype=np.uint32)
    picked.flags.writeable = False
    return picked


def _key_bits(name: str, key) -> np.ndarray:
    """A key as a uint8 array of its bits, viewed without a copy for a
    bytes-like key. Raises ConfigError unless key is a 1-D sequence of 0/1
    values."""
    if isinstance(key, (bytes, bytearray)):
        if key.translate(None, b"\x00\x01"):
            raise ConfigError(f"{name} must hold only 0/1 values")
        return np.frombuffer(key, dtype=np.uint8)
    try:
        bits = np.asarray(key)
    except ValueError:  # a ragged nesting
        bits = None
    if bits is None or bits.ndim != 1:
        raise ConfigError(f"{name} must be a 1-D sequence of 0/1 values, got a {type(key).__name__}")
    if bits.size and (bits.dtype.kind not in "biu" or ((bits != 0) & (bits != 1)).any()):
        raise ConfigError(f"{name} must hold only 0/1 values")
    return bits.astype(np.uint8, copy=False)
