"""Unit and property tests for the two-qubit layer."""

import math

import numpy as np
import pytest

from conftest import prob_bell, prob_qubit, random_state, states_equal_up_to_phase
from qdkd.errors import QdkdError
from qdkd.quantum import (
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

INV = math.sqrt(0.5)


class TestStates:
    def test_bell_state_psi_plus(self):
        assert bell_state(BellOutcome.PSI_PLUS).amps == (0, INV, INV, 0)

    def test_bell_state_phi_minus(self):
        assert bell_state(BellOutcome.PHI_MINUS).amps == (INV, 0, 0, -INV)

    def test_bell_states_orthonormal(self):
        for a in BellOutcome:
            for b in BellOutcome:
                ip = np.vdot(bell_state(a).amps, bell_state(b).amps)
                assert abs(ip - (1.0 if a == b else 0.0)) < 1e-12

    def test_rejects_unnormalized(self):
        with pytest.raises(QdkdError):
            TwoQubitState((1 + 0j, 1 + 0j, 0j, 0j))

    def test_rejects_non_finite(self):
        with pytest.raises(QdkdError):
            TwoQubitState((complex("nan"), 0j, 0j, 1 + 0j))

    def test_rejects_wrong_amplitude_count(self):
        with pytest.raises(QdkdError):
            TwoQubitState((1 + 0j, 0j, 0j))

    def test_from_amplitudes_rejects_zero_vector(self):
        with pytest.raises(QdkdError):
            TwoQubitState.from_amplitudes(0, 0, 0, 0)

    def test_from_amplitudes_normalizes(self):
        s = TwoQubitState.from_amplitudes(3, 0, 0, 4)
        assert s.norm_sq() == pytest.approx(1.0, abs=1e-12)
        assert s.amps[0] == pytest.approx(0.6)


class TestApplyLocal:
    def test_u2_turns_psi_plus_into_phi_plus(self):
        got = apply_local(bell_state(BellOutcome.PSI_PLUS), QubitId.T, LocalUnitary.U2)
        assert got.amps == bell_state(BellOutcome.PHI_PLUS).amps

    def test_u3_turns_psi_plus_into_phi_minus_exactly(self):
        # No residual global phase on this pair.
        got = apply_local(bell_state(BellOutcome.PSI_PLUS), QubitId.T, LocalUnitary.U3)
        assert got.amps == bell_state(BellOutcome.PHI_MINUS).amps

    def test_u0_is_identity(self, rng):
        for _ in range(20):
            s = random_state(rng)
            assert apply_local(s, QubitId.T, LocalUnitary.U0).amps == s.amps

    def test_unitary_matrices(self):
        for u in LocalUnitary:
            m = u.matrix()
            np.testing.assert_allclose(m.conj().T @ m, np.eye(2), atol=1e-12)

    def test_inner_products_preserved(self, rng):
        for _ in range(20):
            a, b = random_state(rng), random_state(rng)
            before = np.vdot(a.amps, b.amps)
            for qubit in QubitId:
                for u in LocalUnitary:
                    after = np.vdot(
                        apply_local(a, qubit, u).amps, apply_local(b, qubit, u).amps
                    )
                    assert abs(after - before) < 1e-9

    def test_group_closure_up_to_phase_with_xor_labels(self, rng):
        s = random_state(rng)
        for ui in LocalUnitary:
            for uj in LocalUnitary:
                composed = apply_local(apply_local(s, QubitId.T, ui), QubitId.T, uj)
                uk = LocalUnitary(int(ui) ^ int(uj))
                assert states_equal_up_to_phase(composed, apply_local(s, QubitId.T, uk), 1e-9)

    def test_u2_after_u1_equals_u3_up_to_phase(self):
        s = bell_state(BellOutcome.PSI_PLUS)
        via_product = apply_local(apply_local(s, QubitId.T, LocalUnitary.U1), QubitId.T, LocalUnitary.U2)
        assert states_equal_up_to_phase(via_product, apply_local(s, QubitId.T, LocalUnitary.U3), 1e-12)


class TestMeasurement:
    def test_measure_psi_plus_travel_z(self):
        psi = bell_state(BellOutcome.PSI_PLUS)
        p0, p1 = prob_qubit(psi, QubitId.T, MeasBasis.Z)
        assert p0 == pytest.approx(0.5, abs=1e-12)
        assert p1 == pytest.approx(0.5, abs=1e-12)
        bit, collapsed = measure_qubit(psi, QubitId.T, MeasBasis.Z, 0.25)
        assert bit == 0
        assert states_equal_up_to_phase(collapsed, TwoQubitState.computational(1, 0), 1e-12)

    def test_eigenstate_untouched(self):
        s = TwoQubitState.computational(0, 0)
        for r in (0.0, 0.3, 0.999999):
            bit, collapsed = measure_qubit(s, QubitId.T, MeasBasis.Z, r)
            assert bit == 0
            assert collapsed.amps == s.amps

    def test_prob_plus_eigenstate_x(self):
        plus_t = TwoQubitState.from_amplitudes(1, 1, 0, 0)  # |0>_h |+>_t
        assert prob_qubit(plus_t, QubitId.T, MeasBasis.X) == pytest.approx((1.0, 0.0), abs=1e-12)

    def test_prob_phi_minus_home_x(self):
        p = prob_qubit(bell_state(BellOutcome.PHI_MINUS), QubitId.H, MeasBasis.X)
        assert p == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_probabilities_complete(self, rng):
        for _ in range(30):
            s = random_state(rng)
            for qubit in QubitId:
                for basis in MeasBasis:
                    p0, p1 = prob_qubit(s, qubit, basis)
                    assert p0 + p1 == pytest.approx(1.0, abs=1e-12)

    def test_collapse_idempotent(self, rng):
        for _ in range(30):
            s = random_state(rng)
            qubit = QubitId(int(rng.integers(2)))
            basis = MeasBasis(int(rng.integers(2)))
            bit1, s1 = measure_qubit(s, qubit, basis, rng.random())
            bit2, s2 = measure_qubit(s1, qubit, basis, rng.random())
            assert bit2 == bit1
            assert np.allclose(s2.amps, s1.amps, atol=1e-12)

    def test_normalization_preserved_through_op_chains(self, rng):
        for _ in range(20):
            s = random_state(rng)
            for _ in range(6):
                op = rng.integers(3)
                if op == 0:
                    s = apply_local(s, QubitId(int(rng.integers(2))), LocalUnitary(int(rng.integers(4))))
                elif op == 1:
                    _, s = measure_qubit(
                        s, QubitId(int(rng.integers(2))), MeasBasis(int(rng.integers(2))), rng.random()
                    )
                else:
                    _, s = measure_bell(s, rng.random())
                assert abs(s.norm_sq() - 1.0) < 1e-9


class TestBellMeasurement:
    def test_phi_minus_is_deterministic(self):
        phi = bell_state(BellOutcome.PHI_MINUS)
        for r in (0.0, 0.2, 0.5, 0.9999):
            outcome, collapsed = measure_bell(phi, r)
            assert outcome is BellOutcome.PHI_MINUS
            assert collapsed.amps == phi.amps

    def test_computational_01_splits_between_psi(self):
        s = TwoQubitState.computational(0, 1)
        assert prob_bell(s) == pytest.approx((0.5, 0.5, 0.0, 0.0), abs=1e-12)
        outcome_low, _ = measure_bell(s, 0.2)
        outcome_high, _ = measure_bell(s, 0.8)
        assert outcome_low is BellOutcome.PSI_PLUS
        assert outcome_high is BellOutcome.PSI_MINUS

    def test_prob_bell_basis_states(self):
        assert prob_bell(bell_state(BellOutcome.PSI_MINUS)) == pytest.approx(
            (0.0, 1.0, 0.0, 0.0), abs=1e-12
        )

    def test_prob_bell_plus_plus(self):
        # |++> = (Psi+ + Phi+)/sqrt(2), fixed by expanding in the Bell basis.
        s = TwoQubitState.from_amplitudes(1, 1, 1, 1)
        assert prob_bell(s) == pytest.approx((0.5, 0.0, 0.5, 0.0), abs=1e-12)

    def test_probs_sum_to_one(self, rng):
        for _ in range(30):
            assert sum(prob_bell(random_state(rng))) == pytest.approx(1.0, abs=1e-12)


class TestPhaseEquality:
    def test_global_phase_ignored(self, rng):
        s = bell_state(BellOutcome.PSI_PLUS)
        theta = 1.234
        phased = TwoQubitState(tuple(a * complex(math.cos(theta), math.sin(theta)) for a in s.amps))
        assert states_equal_up_to_phase(s, phased, 1e-12)

    def test_orthogonal_states_differ(self):
        assert not states_equal_up_to_phase(
            bell_state(BellOutcome.PSI_PLUS), bell_state(BellOutcome.PSI_MINUS), 1e-9
        )


class TestBornFrequencies:
    """Sampled frequencies against exact probabilities (smoke-sized; the
    acceptance suite runs the full N=1e5 version)."""

    N = 20000

    def _check_qubit(self, state, qubit, basis, rng):
        p0, _ = prob_qubit(state, qubit, basis)
        hits = sum(
            measure_qubit(state, qubit, basis, rng.random())[0] == 0 for _ in range(self.N)
        )
        se = math.sqrt(max(p0 * (1 - p0), 1e-12) / self.N)
        assert abs(hits / self.N - p0) <= 4 * se + 1e-9

    def test_qubit_frequencies(self, rng):
        self._check_qubit(bell_state(BellOutcome.PSI_PLUS), QubitId.T, MeasBasis.Z, rng)
        self._check_qubit(bell_state(BellOutcome.PHI_MINUS), QubitId.H, MeasBasis.X, rng)

    def test_bell_frequencies(self, rng):
        s = TwoQubitState.from_amplitudes(1, 1, 1, 1)
        probs = prob_bell(s)
        counts = [0, 0, 0, 0]
        for _ in range(self.N):
            outcome, _ = measure_bell(s, rng.random())
            counts[outcome] += 1
        for k in range(4):
            se = math.sqrt(max(probs[k] * (1 - probs[k]), 1e-12) / self.N)
            assert abs(counts[k] / self.N - probs[k]) <= 4 * se + 1e-9
