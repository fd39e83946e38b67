"""Adversary-model tests: attack mechanics, Eve's bases, what her view resolves."""

import math

import pytest

from qdkd.adversary import (
    ChannelLeg,
    EveBasisPolicy,
    InterceptResend,
    NoAttack,
    apply_attack,
    eve_bases,
)
from qdkd.oracle import eve_resolved_bits
from qdkd.protocol import KeyMode
from qdkd.quantum import (
    BellOutcome,
    LocalUnitary,
    MeasBasis,
    QubitId,
    TwoQubitState,
    apply_local,
    bell_state,
    measure_bell,
    prob_qubit,
    states_equal_up_to_phase,
)


class TestApplyAttack:
    def test_no_attack_identity(self, rng):
        s = bell_state(BellOutcome.PSI_PLUS)
        out, obs = apply_attack(s, ChannelLeg.FORWARD, NoAttack(), rng)
        assert out is s
        assert obs is None

    def test_leg_selectivity(self, rng):
        backward = InterceptResend(ChannelLeg.BACKWARD, EveBasisPolicy.Z)
        s = bell_state(BellOutcome.PSI_PLUS)
        out, obs = apply_attack(s, ChannelLeg.FORWARD, backward, rng)
        assert out is s
        assert obs is None

    def test_backward_z_collapses_psi_plus(self, rng):
        attack = InterceptResend(ChannelLeg.BACKWARD, EveBasisPolicy.Z)
        psi = bell_state(BellOutcome.PSI_PLUS)
        counts = {0: 0, 1: 0}
        n = 4000
        for _ in range(n):
            out, obs = apply_attack(psi, ChannelLeg.BACKWARD, attack, rng)
            assert obs is not None
            assert obs.basis is MeasBasis.Z
            counts[obs.bit] += 1
            target = TwoQubitState.computational(1, 0) if obs.bit == 0 else TwoQubitState.computational(0, 1)
            assert states_equal_up_to_phase(out, target, 1e-12)
        se = math.sqrt(0.25 / n)
        assert abs(counts[0] / n - 0.5) <= 4 * se

    def test_resend_is_normalized_eigenstate(self, rng):
        attack = InterceptResend(ChannelLeg.FORWARD, EveBasisPolicy.RANDOM)
        for _ in range(200):
            state = apply_local(
                bell_state(BellOutcome.PSI_PLUS), QubitId.T, LocalUnitary(int(rng.integers(4)))
            )
            out, obs = apply_attack(state, ChannelLeg.FORWARD, attack, rng)
            assert abs(out.norm_sq() - 1.0) < 1e-9
            p = prob_qubit(out, QubitId.T, obs.basis)
            assert p[obs.bit] == pytest.approx(1.0, abs=1e-12)

    def test_random_policy_uses_both_bases(self, rng):
        attack = InterceptResend(ChannelLeg.FORWARD, EveBasisPolicy.RANDOM)
        seen = set()
        for _ in range(100):
            _, obs = apply_attack(bell_state(BellOutcome.PSI_PLUS), ChannelLeg.FORWARD, attack, rng)
            seen.add(obs.basis)
        assert seen == {MeasBasis.Z, MeasBasis.X}

    def test_announced_outcome_keeps_amplitude_bit_randomizes_phase_bit(self, rng):
        # After a backward-Z interception the Bell measurement returns the
        # true outcome with probability 1/2 and its phase partner otherwise.
        attack = InterceptResend(ChannelLeg.BACKWARD, EveBasisPolicy.Z)
        n = 2000
        for true in BellOutcome:
            partners = {int(true), int(true) ^ 1}
            counts = {k: 0 for k in partners}
            for _ in range(n):
                collapsed, _ = apply_attack(bell_state(true), ChannelLeg.BACKWARD, attack, rng)
                outcome, _ = measure_bell(collapsed, rng.random())
                assert int(outcome) in partners
                counts[int(outcome)] += 1
            se = math.sqrt(0.25 / n)
            assert abs(counts[int(true)] / n - 0.5) <= 4 * se + 1e-9


class TestEveBases:
    @pytest.mark.parametrize("leg", list(ChannelLeg))
    def test_bases_per_attack(self, leg):
        other = ChannelLeg.BACKWARD if leg is ChannelLeg.FORWARD else ChannelLeg.FORWARD
        assert eve_bases(NoAttack(), leg) == ()
        for policy, want in [
            (EveBasisPolicy.Z, (MeasBasis.Z,)),
            (EveBasisPolicy.X, (MeasBasis.X,)),
            (EveBasisPolicy.RANDOM, (MeasBasis.Z, MeasBasis.X)),
        ]:
            assert eve_bases(InterceptResend(leg, policy), leg) == want
            assert eve_bases(InterceptResend(leg, policy), other) == ()


class TestEveInference:
    @pytest.mark.parametrize(
        "attack",
        [
            NoAttack(),
            InterceptResend(ChannelLeg.BACKWARD, EveBasisPolicy.Z),
            InterceptResend(ChannelLeg.FORWARD, EveBasisPolicy.Z),
            InterceptResend(ChannelLeg.BACKWARD, EveBasisPolicy.RANDOM),
            InterceptResend(ChannelLeg.FORWARD, EveBasisPolicy.X),
            InterceptResend(ChannelLeg.FORWARD, EveBasisPolicy.RANDOM),
            InterceptResend(ChannelLeg.BACKWARD, EveBasisPolicy.X),
        ],
    )
    def test_no_individually_resolved_bits(self, attack):
        # Eve's view never pins down a single key bit for any strategy, in
        # any key mode; she only ever learns XOR relations.
        for key_mode in KeyMode:
            assert eve_resolved_bits(attack, key_mode) == 0
