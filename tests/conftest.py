import numpy as np
import pytest

from qdkd.adversary import ChannelLeg, EveBasisPolicy, InterceptResend, NoAttack
from qdkd import _kernels_py as kernels
from qdkd.quantum import TwoQubitState

FORWARD_Z = InterceptResend(ChannelLeg.FORWARD, EveBasisPolicy.Z)
FORWARD_X = InterceptResend(ChannelLeg.FORWARD, EveBasisPolicy.X)
FORWARD_R = InterceptResend(ChannelLeg.FORWARD, EveBasisPolicy.RANDOM)
BACKWARD_Z = InterceptResend(ChannelLeg.BACKWARD, EveBasisPolicy.Z)
BACKWARD_X = InterceptResend(ChannelLeg.BACKWARD, EveBasisPolicy.X)
BACKWARD_R = InterceptResend(ChannelLeg.BACKWARD, EveBasisPolicy.RANDOM)
# Every supported attack, in the order that the tests' per-attack values
# (round-table digests and state counts, exact error distributions) follow.
ALL_ATTACKS = (NoAttack(), FORWARD_Z, FORWARD_X, FORWARD_R, BACKWARD_Z, BACKWARD_X, BACKWARD_R)
ATTACK_IDS = ("none", "fwd-z", "fwd-x", "fwd-random", "bwd-z", "bwd-x", "bwd-random")


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def random_state(rng) -> TwoQubitState:
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    return TwoQubitState.from_amplitudes(*v)


class ScriptedRng:
    """Duck-typed generator replaying fixed draws, for branch-exact tests."""

    def __init__(self, integers=(), randoms=()):
        self._integers = list(integers)
        self._randoms = list(randoms)

    def integers(self, high):
        value = self._integers.pop(0)
        assert 0 <= value < high
        return value

    def random(self):
        return self._randoms.pop(0)


# The float layer's probabilities and phase-blind equality, which only the
# tests read.


def prob_qubit(state: TwoQubitState, qubit, basis) -> tuple[float, float]:
    """Exact Born probabilities (p0, p1) for a single-qubit measurement."""
    return kernels.qubit_probs(state.amps, qubit, basis)


def prob_bell(state: TwoQubitState) -> tuple[float, float, float, float]:
    """Exact Bell-basis probabilities in outcome-label order."""
    return kernels.bell_probs(state.amps)


def states_equal_up_to_phase(a: TwoQubitState, b: TwoQubitState, eps: float = 1e-9) -> bool:
    """True iff |<a|b>| >= 1 - eps (equality modulo a global phase)."""
    return abs(kernels.inner(a.amps, b.amps)) >= 1.0 - eps
