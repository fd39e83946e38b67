"""Channel adversaries: intercept-measure-resend attacks on either leg.

Eve projectively measures the travel photon while it is in transit and
forwards the collapsed eigenstate. A Forward attack hits the Alice->Bob leg
(and therefore control rounds); a Backward attack hits only the returning
photon of message rounds, so control-round statistics never see it.
"""

from dataclasses import dataclass
from enum import Enum

from .errors import ConfigError
from .quantum import MeasBasis, QubitId, TwoQubitState, measure_qubit


class ChannelLeg(Enum):
    FORWARD = "forward"  # Alice -> Bob
    BACKWARD = "backward"  # Bob -> Alice (message rounds only)


class EveBasisPolicy(Enum):
    Z = "z"
    X = "x"
    RANDOM = "random"  # fresh uniform basis per intercepted photon


@dataclass(frozen=True)
class NoAttack:
    pass


@dataclass(frozen=True)
class InterceptResend:
    leg: ChannelLeg
    basis_policy: EveBasisPolicy = EveBasisPolicy.Z


AttackStrategy = NoAttack | InterceptResend


def validate_attack(strategy) -> AttackStrategy:
    """Return strategy if it is a supported attack; raise ConfigError otherwise.

    Supported are NoAttack and an InterceptResend whose leg is a ChannelLeg
    and whose basis policy is an EveBasisPolicy.
    """
    if isinstance(strategy, NoAttack) or (
        isinstance(strategy, InterceptResend)
        and isinstance(strategy.leg, ChannelLeg)
        and isinstance(strategy.basis_policy, EveBasisPolicy)
    ):
        return strategy
    raise ConfigError(f"unsupported attack strategy: {strategy!r}")


@dataclass(frozen=True)
class EveObservation:
    """One intercepted photon: where, in which basis, and the bit Eve saw."""

    round_index: int
    leg: ChannelLeg
    basis: MeasBasis
    bit: int


_POLICY_BASES = {
    EveBasisPolicy.Z: (MeasBasis.Z,),
    EveBasisPolicy.X: (MeasBasis.X,),
    EveBasisPolicy.RANDOM: (MeasBasis.Z, MeasBasis.X),
}


def eve_bases(strategy: AttackStrategy, leg: ChannelLeg) -> tuple[MeasBasis, ...]:
    """The bases Eve measures in on one leg, each equally likely.

    () when the leg is not attacked, the fixed basis of a Z or X policy, and
    (Z, X) for the random policy, which draws a fresh basis per photon.
    """
    if isinstance(strategy, NoAttack) or strategy.leg is not leg:
        return ()
    return _POLICY_BASES[strategy.basis_policy]


def apply_attack(
    state: TwoQubitState, leg: ChannelLeg, strategy: AttackStrategy, rng, round_index: int = -1
) -> tuple[TwoQubitState, EveObservation | None]:
    """Pass the in-transit travel photon through the adversary.

    NoAttack and a non-matching leg leave the state untouched. A matching
    intercept-resend measures photon t projectively and forwards the
    collapsed eigenstate.
    """
    bases = eve_bases(strategy, leg)
    if not bases:
        return state, None
    basis = bases[int(rng.integers(2))] if len(bases) > 1 else bases[0]
    bit, collapsed = measure_qubit(state, QubitId.T, basis, rng.random())
    return collapsed, EveObservation(round_index, leg, basis, bit)

