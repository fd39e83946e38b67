"""Protocol-layer tests: correlation table, round flows, key material."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ScriptedRng
from qdkd.errors import ConfigError, ProtocolError
from qdkd.protocol import (
    AbortNotice,
    BasisAnnouncement,
    BellAnnouncement,
    CheckVerdict,
    ControlOutcome,
    ControlVerdict,
    Correlation,
    KeyCheckPolicy,
    KeyMode,
    MessageOutcome,
    ModeAnnouncement,
    ResultAnnouncement,
    RoundMode,
    accumulate_key,
    alice_prepare,
    bob_choose_mode,
    decode,
    expected_correlation,
    key_check,
    run_control_round,
    run_message_round,
)
from qdkd.quantum import (
    BellOutcome,
    LocalUnitary,
    MeasBasis,
    QubitId,
    TwoQubitState,
    apply_local,
    bell_state,
    prob_qubit,
    states_equal_up_to_phase,
)


def _honest_correlation_prob(u: LocalUnitary, basis: MeasBasis) -> float:
    """P(Alice's bit == Bob's bit) by direct Born-rule enumeration."""
    from qdkd.quantum import measure_qubit

    state = apply_local(bell_state(BellOutcome.PSI_PLUS), QubitId.T, u)
    total = 0.0
    p = prob_qubit(state, QubitId.T, basis)
    for bob_bit, r in ((0, 0.0), (1, 0.999999999)):
        if p[bob_bit] < 1e-12:
            continue
        _, after = measure_qubit(state, QubitId.T, basis, r)
        alice = prob_qubit(after, QubitId.H, basis)
        total += p[bob_bit] * alice[bob_bit]
    return total


class TestExpectedCorrelation:
    def test_z_basis_rule(self):
        assert expected_correlation(LocalUnitary.U0, MeasBasis.Z) is Correlation.ANTICORRELATED
        assert expected_correlation(LocalUnitary.U1, MeasBasis.Z) is Correlation.ANTICORRELATED
        assert expected_correlation(LocalUnitary.U2, MeasBasis.Z) is Correlation.CORRELATED
        assert expected_correlation(LocalUnitary.U3, MeasBasis.Z) is Correlation.CORRELATED

    def test_x_rule(self):
        assert expected_correlation(LocalUnitary.U0, MeasBasis.X) is Correlation.CORRELATED
        assert expected_correlation(LocalUnitary.U1, MeasBasis.X) is Correlation.ANTICORRELATED
        assert expected_correlation(LocalUnitary.U2, MeasBasis.X) is Correlation.CORRELATED
        assert expected_correlation(LocalUnitary.U3, MeasBasis.X) is Correlation.ANTICORRELATED

    def test_table_agrees_with_born_rule_enumeration(self):
        # The whole table re-derived from measurement physics.
        for u in LocalUnitary:
            for basis in MeasBasis:
                p_corr = _honest_correlation_prob(u, basis)
                expected = expected_correlation(u, basis)
                want = 1.0 if expected is Correlation.CORRELATED else 0.0
                assert p_corr == pytest.approx(want, abs=1e-12), (u, basis)


class TestPreparation:
    def test_alice_prepare_unitary_states(self):
        for u_val, outcome in ((0, BellOutcome.PSI_PLUS), (1, BellOutcome.PSI_MINUS)):
            state, u_a = alice_prepare(ScriptedRng(integers=[u_val]))
            assert u_a == LocalUnitary(u_val)
            assert states_equal_up_to_phase(state, bell_state(outcome), 1e-12)

    def test_alice_prepare_uniform(self, rng):
        n = 100000
        counts = [0, 0, 0, 0]
        for _ in range(n):
            _, u_a = alice_prepare(rng)
            counts[u_a] += 1
        se = math.sqrt(0.25 * 0.75 / n)
        for c in counts:
            assert abs(c / n - 0.25) <= 4 * se

    def test_bob_mode_extremes_and_frequency(self, rng):
        assert bob_choose_mode(0.0, rng) is RoundMode.MESSAGE
        assert bob_choose_mode(1.0, rng) is RoundMode.CONTROL
        n = 100000
        controls = sum(bob_choose_mode(0.5, rng) is RoundMode.CONTROL for _ in range(n))
        assert abs(controls / n - 0.5) <= 4 * math.sqrt(0.25 / n)


class TestControlRound:
    def test_honest_rounds_always_pass_all_branches(self, rng):
        # Exhaust all 8 (u, basis) cells and both Bob outcomes.
        for u in LocalUnitary:
            seen = set()
            for _ in range(200):
                state, _ = alice_prepare(ScriptedRng(integers=[int(u)]))
                outcome = run_control_round(u, state, rng)
                assert outcome.verdict is ControlVerdict.PASS
                seen.add((outcome.basis, outcome.bob_bit))
            assert seen == {(b, bit) for b in MeasBasis for bit in (0, 1)}

    def test_tampered_state_detected(self):
        # |00> with u0 in the Z basis is forced Correlated; honest is Anti.
        scripted = ScriptedRng(integers=[0], randoms=[0.3, 0.7])
        outcome = run_control_round(LocalUnitary.U0, TwoQubitState.computational(0, 0), scripted)
        assert outcome.verdict is ControlVerdict.EVE_DETECTED
        assert outcome.basis is MeasBasis.Z
        assert outcome.bob_bit == 0 and outcome.alice_bit == 0

    def test_transcript_contents(self, rng):
        state, u_a = alice_prepare(rng)
        outcome = run_control_round(u_a, state, rng)
        kinds = [type(m) for m in outcome.transcript]
        assert kinds[:3] == [ModeAnnouncement, BasisAnnouncement, ResultAnnouncement]
        assert outcome.transcript[0].mode is RoundMode.CONTROL

    @pytest.mark.parametrize("bob_bit", [0, 1])
    @pytest.mark.parametrize("basis", list(MeasBasis))
    @pytest.mark.parametrize("verdict", list(ControlVerdict))
    def test_transcript_pins_every_outcome(self, verdict, basis, bob_bit):
        """The announced mode, basis and result, then Alice's notice after a
        detection; one tuple, built on the first read and kept."""
        outcome = ControlOutcome(verdict, basis, bob_bit, 1 - bob_bit)
        expected = (
            ModeAnnouncement(RoundMode.CONTROL),
            BasisAnnouncement(basis),
            ResultAnnouncement(bob_bit),
        )
        if verdict is ControlVerdict.EVE_DETECTED:
            expected += (AbortNotice("control-round correlation mismatch"),)
        assert outcome.transcript == expected
        assert outcome.transcript is outcome.transcript


class TestMessageRound:
    def test_known_table_entry_u1_u2(self):
        state, _ = alice_prepare(ScriptedRng(integers=[1]))
        outcome = run_message_round(
            LocalUnitary.U1, state, ScriptedRng(integers=[2], randoms=[0.4])
        )
        assert outcome.announced is BellOutcome.PHI_MINUS
        assert outcome.alice_view is LocalUnitary.U2
        assert outcome.bob_view is LocalUnitary.U1

    def test_diagonal_entry_u3_u3(self):
        state, _ = alice_prepare(ScriptedRng(integers=[3]))
        outcome = run_message_round(
            LocalUnitary.U3, state, ScriptedRng(integers=[3], randoms=[0.4])
        )
        assert outcome.announced is BellOutcome.PSI_PLUS

    def test_identity_round(self):
        state, _ = alice_prepare(ScriptedRng(integers=[0]))
        outcome = run_message_round(
            LocalUnitary.U0, state, ScriptedRng(integers=[0], randoms=[0.4])
        )
        assert outcome.announced is BellOutcome.PSI_PLUS
        assert outcome.alice_view is LocalUnitary.U0
        assert outcome.bob_view is LocalUnitary.U0

    def test_all_16_pairs_decode_and_satisfy_xor_law(self):
        for u_a in LocalUnitary:
            for u_b in LocalUnitary:
                state, _ = alice_prepare(ScriptedRng(integers=[int(u_a)]))
                outcome = run_message_round(
                    u_a, state, ScriptedRng(integers=[int(u_b)], randoms=[0.5])
                )
                assert int(outcome.announced) == int(u_a) ^ int(u_b)
                assert outcome.alice_view is u_b
                assert outcome.bob_view is u_a

    def test_return_channel_is_applied(self):
        state, _ = alice_prepare(ScriptedRng(integers=[0]))
        tampered = []

        def channel(s):
            tampered.append(s)
            return apply_local(s, QubitId.T, LocalUnitary.U1)

        outcome = run_message_round(
            LocalUnitary.U0, state, ScriptedRng(integers=[0], randoms=[0.4]), channel
        )
        assert len(tampered) == 1
        assert outcome.announced is BellOutcome.PSI_MINUS

    def test_transcript_contents(self):
        state, _ = alice_prepare(ScriptedRng(integers=[0]))
        outcome = run_message_round(
            LocalUnitary.U0, state, ScriptedRng(integers=[0], randoms=[0.4])
        )
        assert [type(m) for m in outcome.transcript] == [ModeAnnouncement, BellAnnouncement]
        assert outcome.transcript[0].mode is RoundMode.MESSAGE

    @pytest.mark.parametrize("announced", list(BellOutcome))
    def test_transcript_pins_every_outcome(self, announced):
        """The announced mode and Bell outcome; one tuple, built on the
        first read and kept."""
        u_a = LocalUnitary(announced)
        outcome = MessageOutcome(LocalUnitary.U0, announced, LocalUnitary.U0, u_a)
        expected = (ModeAnnouncement(RoundMode.MESSAGE), BellAnnouncement(announced))
        assert outcome.transcript == expected
        assert outcome.transcript is outcome.transcript


class TestDecode:
    def test_example_u1_phi_minus(self):
        assert decode(LocalUnitary.U1, BellOutcome.PHI_MINUS) is LocalUnitary.U2

    def test_zero_labels(self):
        assert decode(LocalUnitary.U0, BellOutcome.PSI_PLUS) is LocalUnitary.U0

    def test_roundtrip_over_table(self):
        for u_a in LocalUnitary:
            for u_b in LocalUnitary:
                announced = BellOutcome(int(u_a) ^ int(u_b))
                assert decode(u_a, announced) is u_b
                assert decode(u_b, announced) is u_a


class TestKeyAccumulation:
    def test_combined_appends_alice_bits_first(self):
        assert accumulate_key([], 0b10, 0b01, KeyMode.COMBINED) == [1, 0, 0, 1]

    def test_single_bob_projects(self):
        assert accumulate_key([], 0b10, 0b01, KeyMode.SINGLE_BOB) == [0, 1]

    def test_single_alice_projects(self):
        assert accumulate_key([], 0b10, 0b01, KeyMode.SINGLE_ALICE) == [1, 0]

    def test_combined_length_is_4n(self, rng):
        key = []
        for _ in range(25):
            accumulate_key(key, int(rng.integers(4)), int(rng.integers(4)), KeyMode.COMBINED)
        assert len(key) == 100


class TestKeyCheck:
    def test_identical_keys_accept(self, rng):
        key = tuple(int(b) for b in rng.integers(2, size=100))
        result = key_check(key, key, KeyCheckPolicy(0.3), np.random.default_rng(1))
        assert result.verdict is CheckVerdict.ACCEPT
        assert result.mismatches == 0
        assert len(result.positions) == 30
        assert len(result.alice_final) == 70

    def test_fraction_zero_is_vacuous(self, rng):
        alice = tuple(int(b) for b in rng.integers(2, size=40))
        bob = tuple(1 - b for b in alice)  # maximally wrong, still accepted
        result = key_check(alice, bob, KeyCheckPolicy(0.0), np.random.default_rng(1))
        assert result.verdict is CheckVerdict.ACCEPT
        assert tuple(result.alice_final) == alice
        assert tuple(result.bob_final) == bob

    def test_threshold_counts_mismatches(self):
        alice = (0,) * 10
        bob = (1, 1, 0, 0, 0, 0, 0, 0, 0, 0)
        policy_strict = KeyCheckPolicy(1.0, mismatch_threshold=1)
        policy_loose = KeyCheckPolicy(1.0, mismatch_threshold=2)
        strict = key_check(alice, bob, policy_strict, np.random.default_rng(0))
        loose = key_check(alice, bob, policy_loose, np.random.default_rng(0))
        assert strict.verdict is CheckVerdict.ABORT
        assert strict.mismatches == 2
        assert loose.verdict is CheckVerdict.ACCEPT
        assert tuple(strict.alice_final) == ()

    def test_checked_positions_removed_exactly(self, rng):
        alice = tuple(int(b) for b in rng.integers(2, size=57))
        result = key_check(alice, alice, KeyCheckPolicy(0.25), np.random.default_rng(9))
        m = math.ceil(0.25 * 57)
        assert len(result.positions) == m
        assert len(result.alice_final) == 57 - m
        kept = [i for i in range(57) if i not in set(result.positions)]
        assert tuple(result.alice_final) == tuple(alice[i] for i in kept)

    def test_unequal_lengths_raise(self):
        with pytest.raises(ProtocolError):
            key_check((0, 1), (0, 1, 1), KeyCheckPolicy(0.5), np.random.default_rng(0))

    def test_abort_monotone_in_fraction(self, rng):
        # Same public seed: a larger fraction checks a superset of positions.
        alice = tuple(int(b) for b in rng.integers(2, size=200))
        noise = rng.random(200) < 0.05
        bob = tuple(b ^ int(n) for b, n in zip(alice, noise))
        aborted_once = False
        for fraction in (0.02, 0.05, 0.1, 0.2, 0.4, 0.8, 1.0):
            result = key_check(alice, bob, KeyCheckPolicy(fraction), np.random.default_rng(77))
            if aborted_once:
                assert result.verdict is CheckVerdict.ABORT
            aborted_once = aborted_once or result.verdict is CheckVerdict.ABORT
        assert aborted_once  # fraction 1.0 sees every mismatch

    @pytest.mark.parametrize(
        "key",
        [(0, 256, 1), (0, 2, 1), (0, -1, 1), (0, 0.5, 1), "0101", [[0, 1]], b"\x00\x01\x02",
         bytearray(b"01"), [[0], [0, 1]], (0, None, 1)],
        ids=["256", "2", "minus-1", "half", "str", "2-d", "bytes-2", "ascii-bytearray", "ragged",
             "none"],
    )
    def test_non_bit_keys_rejected(self, key):
        bits = (0,) * len(key)
        for alice, bob in ((key, bits), (bits, key)):
            with pytest.raises(ConfigError):
                key_check(alice, bob, KeyCheckPolicy(1.0, 5), np.random.default_rng(0))

    @pytest.mark.parametrize(
        "key",
        [(True, False, True, False), [1, 0, 1, 0], np.array([1, 0, 1, 0], dtype=np.uint64),
         bytearray(b"\x01\x00\x01\x00")],
        ids=["bools", "list", "uint64", "bytearray"],
    )
    def test_bit_valued_keys_accepted(self, key):
        result = key_check(key, (0, 1, 1, 0), KeyCheckPolicy(1.0, 5), np.random.default_rng(0))
        assert result.mismatches == 2
        assert result.transcript[1].bits == (1, 0, 1, 0)

    @pytest.mark.parametrize(
        "policy",
        [
            KeyCheckPolicy(2.0),  # would check every position
            KeyCheckPolicy(-0.5),  # would check none and accept
            KeyCheckPolicy(0.5, -1),
            KeyCheckPolicy(0.5, 0.5),
            KeyCheckPolicy(float("nan")),
            None,
            (0.5, 0),
        ],
        ids=["fraction-2", "fraction-negative", "threshold-negative", "threshold-float",
             "fraction-nan", "none", "tuple"],
    )
    def test_bad_policy_rejected(self, policy):
        with pytest.raises(ConfigError):
            key_check((0, 1, 1, 0), (0, 1, 0, 0), policy, np.random.default_rng(0))

    def test_abort_transcript_has_notice(self):
        result = key_check((0, 0), (1, 1), KeyCheckPolicy(1.0), np.random.default_rng(0))
        assert isinstance(result.transcript[-1], AbortNotice)


def _reference_key_check(alice_key, bob_key, policy, public_rng):
    """key_check over Python tuples, position by position."""
    length = len(alice_key)
    m = math.ceil(policy.fraction * length)
    positions = tuple(sorted(int(i) for i in public_rng.permutation(length)[:m])) if m else ()
    alice_sample = tuple(alice_key[i] for i in positions)
    bob_sample = tuple(bob_key[i] for i in positions)
    mismatches = sum(a != b for a, b in zip(alice_sample, bob_sample))
    checked = set(positions)
    return (
        mismatches,
        positions,
        tuple(b for i, b in enumerate(alice_key) if i not in checked),
        tuple(b for i, b in enumerate(bob_key) if i not in checked),
        alice_sample,
        bob_sample,
    )


class TestKeyCheckArrays:
    @settings(max_examples=150, deadline=None)
    @given(
        pairs=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), max_size=300),
        fraction=st.floats(0.0, 1.0),
        threshold=st.integers(0, 6),
        seed=st.integers(0, 2**64 - 1),
        as_bytes=st.booleans(),
    )
    def test_matches_positionwise_check(self, pairs, fraction, threshold, seed, as_bytes):
        alice = tuple(a for a, _ in pairs)
        bob = tuple(b for _, b in pairs)
        policy = KeyCheckPolicy(fraction, threshold)
        mismatches, positions, alice_final, bob_final, alice_sample, bob_sample = (
            _reference_key_check(alice, bob, policy, np.random.default_rng(seed))
        )
        keys = (bytearray(alice), bytes(bob)) if as_bytes else (alice, bob)
        result = key_check(*keys, policy, np.random.default_rng(seed))
        assert result.mismatches == mismatches
        assert tuple(result.positions.tolist()) == positions
        assert tuple(result.alice_final) == alice_final
        assert tuple(result.bob_final) == bob_final
        assert (tuple(result.alice_sample), tuple(result.bob_sample)) == (alice_sample, bob_sample)
        assert result.transcript[0].positions == positions
        assert result.transcript[1].bits == alice_sample
        assert result.transcript[2].bits == bob_sample
        want = CheckVerdict.ABORT if mismatches > threshold else CheckVerdict.ACCEPT
        assert result.verdict is want
        assert all(type(key) is bytes for key in (result.alice_final, result.bob_final,
                                                  result.alice_sample, result.bob_sample))
        assert not result.positions.flags.writeable
        messages = result.transcript
        assert all(type(b) is int for b in messages[0].positions + messages[1].bits + messages[2].bits)

    @pytest.mark.parametrize("length", [1, 2, 3, 255, 256, 65535, 65536, 65537, 100003])
    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_uint32_shuffle_is_the_permutation(self, length, seed):
        # key_check shuffles a uint32 arange in place of permutation(length).
        order = np.arange(length, dtype=np.uint32)
        np.random.default_rng(seed).shuffle(order)
        permutation = np.random.default_rng(seed).permutation(length)
        assert np.array_equal(order, permutation)
        result = key_check(bytes(length), bytes(length), KeyCheckPolicy(0.3), np.random.default_rng(seed))
        m = math.ceil(0.3 * length)
        assert np.array_equal(result.positions, np.sort(permutation[:m]))
