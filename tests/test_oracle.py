"""Tests of the exact enumeration oracle, including an independent
float-arithmetic enumeration and a tiny-case brute force for the abort
probability."""

import itertools
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ALL_ATTACKS,
    ATTACK_IDS,
    BACKWARD_R,
    BACKWARD_X,
    BACKWARD_Z,
    FORWARD_R,
    FORWARD_X,
    FORWARD_Z,
    prob_bell,
    prob_qubit,
)
from qdkd import oracle
from qdkd.adversary import ChannelLeg, EveBasisPolicy, InterceptResend, NoAttack
from qdkd.errors import ConfigError
from qdkd.oracle import (
    abort_probability,
    control_detection_probability,
    exact_oracle,
    message_error_distribution,
)
from qdkd.protocol import (
    Correlation,
    KeyCheckPolicy,
    KeyMode,
    checked_count,
    expected_correlation,
)
from qdkd.quantum import (
    BellOutcome,
    LocalUnitary,
    MeasBasis,
    QubitId,
    apply_local,
    bell_state,
)


class TestDetectionProbability:
    def test_no_attack_is_zero(self):
        assert control_detection_probability(NoAttack()) == 0

    def test_forward_z_is_one_quarter(self):
        assert control_detection_probability(FORWARD_Z) == Fraction(1, 4)

    def test_forward_x_is_one_quarter(self):
        assert control_detection_probability(FORWARD_X) == Fraction(1, 4)

    def test_forward_random_is_one_quarter(self):
        assert control_detection_probability(FORWARD_R) == Fraction(1, 4)

    def test_backward_attacks_never_detected(self):
        assert control_detection_probability(BACKWARD_Z) == 0
        assert control_detection_probability(BACKWARD_X) == 0

    def test_agrees_with_float_enumeration(self):
        # Second, fully independent route through the float kernels.
        for attack in ALL_ATTACKS:
            exact = float(control_detection_probability(attack))
            assert _float_detection_probability(attack) == pytest.approx(exact, abs=1e-12)


def _collapse_branches(state, qubit, basis):
    from qdkd.quantum import measure_qubit

    p = prob_qubit(state, qubit, basis)
    for bit, r in ((0, 0.0), (1, 1.0 - 1e-12)):
        if p[bit] < 1e-12:
            continue
        _, collapsed = measure_qubit(state, qubit, basis, r)
        yield p[bit], collapsed, bit


def _eve_branches(state, leg, attack):
    if isinstance(attack, NoAttack) or attack.leg is not leg:
        yield 1.0, state
        return
    if attack.basis_policy is EveBasisPolicy.RANDOM:
        bases = ((0.5, MeasBasis.Z), (0.5, MeasBasis.X))
    elif attack.basis_policy is EveBasisPolicy.X:
        bases = ((1.0, MeasBasis.X),)
    else:
        bases = ((1.0, MeasBasis.Z),)
    for pb, basis in bases:
        for w, collapsed, _bit in _collapse_branches(state, QubitId.T, basis):
            yield pb * w, collapsed


def _float_detection_probability(attack):
    total = 0.0
    for u in LocalUnitary:
        state = apply_local(bell_state(BellOutcome.PSI_PLUS), QubitId.T, u)
        for w_eve, s1 in _eve_branches(state, ChannelLeg.FORWARD, attack):
            for basis in MeasBasis:
                expected = expected_correlation(u, basis)
                for w_bob, s2, bob_bit in _collapse_branches(s1, QubitId.T, basis):
                    for w_alice, _s3, alice_bit in _collapse_branches(s2, QubitId.H, basis):
                        observed = (
                            Correlation.CORRELATED
                            if alice_bit == bob_bit
                            else Correlation.ANTICORRELATED
                        )
                        if observed is not expected:
                            total += 0.25 * w_eve * 0.5 * w_bob * w_alice
    return total


def _float_error_distribution(attack):
    dist = [0.0, 0.0, 0.0, 0.0]
    for a in LocalUnitary:
        s0 = apply_local(bell_state(BellOutcome.PSI_PLUS), QubitId.T, a)
        for w_f, s1 in _eve_branches(s0, ChannelLeg.FORWARD, attack):
            for b in LocalUnitary:
                s2 = apply_local(s1, QubitId.T, b)
                for w_b, s3 in _eve_branches(s2, ChannelLeg.BACKWARD, attack):
                    for k, p in enumerate(prob_bell(s3)):
                        if p > 1e-15:
                            dist[k ^ int(a) ^ int(b)] += w_f * w_b * p / 16.0
    return dist


class TestErrorDistribution:
    def test_no_attack_error_free(self):
        dist = message_error_distribution(NoAttack())
        assert dist[0] == 1
        assert dist[1] == dist[2] == dist[3] == 0

    def test_backward_z_flips_phase_bit_half_the_time(self):
        dist = message_error_distribution(BACKWARD_Z)
        assert dist[0] == Fraction(1, 2)
        assert dist[1] == Fraction(1, 2)
        assert dist[2] == dist[3] == 0

    def test_backward_x_flips_amplitude_bit_half_the_time(self):
        dist = message_error_distribution(BACKWARD_X)
        assert dist[0] == Fraction(1, 2)
        assert dist[2] == Fraction(1, 2)
        assert dist[1] == dist[3] == 0

    @pytest.mark.parametrize(
        "attack,want",
        zip(
            ALL_ATTACKS,
            (
                {0: 1},
                {0: Fraction(1, 2), 1: Fraction(1, 2)},
                {0: Fraction(1, 2), 2: Fraction(1, 2)},
                {0: Fraction(1, 2), 1: Fraction(1, 4), 2: Fraction(1, 4)},
                {0: Fraction(1, 2), 1: Fraction(1, 2)},
                {0: Fraction(1, 2), 2: Fraction(1, 2)},
                {0: Fraction(1, 2), 1: Fraction(1, 4), 2: Fraction(1, 4)},
            ),
        ),
        ids=ATTACK_IDS,
    )
    def test_exact_distribution(self, attack, want):
        dist = message_error_distribution(attack)
        assert dist == {e: want.get(e, 0) for e in range(4)}
        assert all(type(p) is Fraction for p in dist.values())

    def test_rates_no_attack_and_backward_z(self):
        r = exact_oracle(BACKWARD_Z)
        assert r.key_error_rate_phase_bit == Fraction(1, 2)
        assert r.key_error_rate_amplitude_bit == 0
        assert r.key_error_rate_overall == Fraction(1, 4)
        clean = exact_oracle(NoAttack())
        assert clean.key_error_rate_overall == 0

    @pytest.mark.parametrize("attack", ALL_ATTACKS)
    def test_agrees_with_float_enumeration(self, attack):
        exact = message_error_distribution(attack)
        floats = _float_error_distribution(attack)
        for e in range(4):
            assert floats[e] == pytest.approx(float(exact[e]), abs=1e-12)

    def test_distribution_sums_to_one(self):
        for attack in ALL_ATTACKS:
            assert sum(message_error_distribution(attack).values()) == 1


def _brute_force_abort(dist, rounds, policy, key_mode):
    """Abort probability by direct enumeration over error vectors and
    checked subsets; tractable only for tiny cases."""
    per_round = key_mode.bits_per_round
    length = per_round * rounds
    m = math.ceil(policy.fraction * length)
    positions = list(range(length))
    total = Fraction(0)
    errors = [(e, p) for e, p in dist.items() if p]
    for evec in itertools.product(errors, repeat=rounds):
        p_e = Fraction(1)
        for _, p in evec:
            p_e *= p
        mismatch = []
        for i in range(length):
            rnd, offset = divmod(i, per_round)
            e = evec[rnd][0]
            bit_kind = offset % 2  # 0 amplitude, 1 phase
            mismatch.append(bool(e & (2 if bit_kind == 0 else 1)))
        n_abort = 0
        subsets = list(itertools.combinations(positions, m))
        for subset in subsets:
            if sum(mismatch[i] for i in subset) > policy.mismatch_threshold:
                n_abort += 1
        total += p_e * Fraction(n_abort, len(subsets))
    return total


class TestAbortProbability:
    def test_single_round_hand_value(self):
        # One combined round, one checked position: abort iff the checked
        # position is a phase slot (1/2) and the round erred (1/2).
        policy = KeyCheckPolicy(0.25, 0)
        assert abort_probability(BACKWARD_Z, policy, 1) == Fraction(1, 4)

    def test_full_check_sees_every_error(self):
        policy = KeyCheckPolicy(1.0, 0)
        for n in (1, 2, 5):
            want = 1 - Fraction(1, 2) ** n
            assert abort_probability(BACKWARD_Z, policy, n) == want

    def test_no_attack_never_aborts(self):
        assert abort_probability(NoAttack(), KeyCheckPolicy(0.5, 0), 10) == 0

    def test_fraction_zero_never_aborts(self):
        assert abort_probability(BACKWARD_Z, KeyCheckPolicy(0.0, 0), 10) == 0

    @pytest.mark.parametrize("key_mode", [KeyMode.COMBINED, KeyMode.SINGLE_BOB])
    @pytest.mark.parametrize("rounds,fraction,threshold", [
        (1, 0.25, 0),
        (2, 0.25, 0),
        (2, 0.5, 1),
        (3, 0.2, 0),
    ])
    def test_matches_brute_force_on_tiny_cases(self, key_mode, rounds, fraction, threshold):
        policy = KeyCheckPolicy(fraction, threshold)
        dist = message_error_distribution(BACKWARD_Z)
        want = _brute_force_abort(dist, rounds, policy, key_mode)
        got = abort_probability(BACKWARD_Z, policy, rounds, key_mode)
        assert got == want

    def test_brute_force_also_matches_for_random_policy_attack(self):
        policy = KeyCheckPolicy(0.4, 0)
        dist = message_error_distribution(BACKWARD_R)
        want = _brute_force_abort(dist, 2, policy, KeyMode.COMBINED)
        assert abort_probability(BACKWARD_R, policy, 2) == want

    @pytest.mark.parametrize("key_mode", list(KeyMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("attack", ALL_ATTACKS, ids=ATTACK_IDS)
    @pytest.mark.parametrize("rounds,fraction,threshold", [
        (1, 1.0, 0),
        (2, 0.25, 0),
        (2, 0.3, 1),
        (3, 0.3, 0),
        (3, 0.25, 2),
    ])
    def test_matches_brute_force_for_every_attack_and_key_mode(
        self, attack, key_mode, rounds, fraction, threshold
    ):
        # fraction * bits stays <= 4 checked positions at every size here.
        policy = KeyCheckPolicy(fraction, threshold)
        want = _brute_force_abort(message_error_distribution(attack), rounds, policy, key_mode)
        assert abort_probability(attack, policy, rounds, key_mode) == want

    def test_full_check_at_scale(self):
        policy = KeyCheckPolicy(1.0, 0)
        assert abort_probability(BACKWARD_Z, policy, 1000) == 1 - Fraction(1, 2) ** 1000

    def test_monotone_in_fraction(self):
        policy_small = KeyCheckPolicy(0.1, 0)
        policy_large = KeyCheckPolicy(0.3, 0)
        small = abort_probability(BACKWARD_Z, policy_small, 12)
        large = abort_probability(BACKWARD_Z, policy_large, 12)
        assert large >= small

    def test_acceptance_scale_value_is_near_one(self):
        p = abort_probability(BACKWARD_Z, KeyCheckPolicy(0.1, 0), 100)
        assert p > Fraction(99, 100)


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


def _direct_abort(dist, policy, n, key_mode):
    """Abort probability by the direct sum over erring label counts: the
    count's distribution is a power of the per-round polynomial in x, and
    every hypergeometric count is computed from scratch by math.comb."""
    length = key_mode.bits_per_round * n
    m = checked_count(policy.fraction, length)
    group = 2 if key_mode is KeyMode.COMBINED else 1
    q = (dist[0], dist[1] + dist[2], dist[3])
    denom = math.lcm(*(p.denominator for p in q))
    weights = _power(tuple(p.numerator * (denom // p.denominator) for p in q), n)
    passing = range(min(policy.mismatch_threshold, m) + 1)
    accept = sum(
        w * sum(math.comb(group * k, x) * math.comb(length - group * k, m - x) for x in passing)
        for k, w in enumerate(weights)
        if w
    )
    return 1 - Fraction(accept, denom**n * math.comb(length, m))


class TestTruncatedPower:
    """The key check's truncated generating-function power against the
    direct sum over erring label counts."""

    @settings(max_examples=60, deadline=None)
    @given(
        attack=st.sampled_from(ALL_ATTACKS),
        key_mode=st.sampled_from(list(KeyMode)),
        rounds=st.integers(0, 300),
        fraction=st.floats(0.0, 1.0),
        threshold=st.integers(0, 6),
    )
    def test_equals_direct_sum(self, attack, key_mode, rounds, fraction, threshold):
        dist = message_error_distribution(attack)
        policy = KeyCheckPolicy(fraction, threshold)
        got = abort_probability(attack, policy, rounds, key_mode)
        assert got == _direct_abort(dist, policy, rounds, key_mode)

    def test_equals_direct_sum_at_scale(self):
        policy = KeyCheckPolicy(0.1, 3)
        want = _direct_abort(message_error_distribution(BACKWARD_R), policy, 1000, KeyMode.COMBINED)
        assert abort_probability(BACKWARD_R, policy, 1000) == want

    @pytest.mark.parametrize("attack,key_mode,rounds,fraction,threshold,want", [
        pytest.param(BACKWARD_R, KeyMode.COMBINED, 0, 0.5, 0, 0, id="no-rounds"),
        pytest.param(BACKWARD_R, KeyMode.COMBINED, 50, 1.0, 0, None, id="full-check"),
        pytest.param(BACKWARD_X, KeyMode.SINGLE_BOB, 3, 1.0, 1, Fraction(1, 2), id="full-check-thr1"),
        pytest.param(BACKWARD_Z, KeyMode.SINGLE_ALICE, 40, 0.1, 8, 0, id="threshold-is-m"),
        pytest.param(BACKWARD_R, KeyMode.COMBINED, 40, 0.1, 50, 0, id="threshold-above-m"),
        pytest.param(NoAttack(), KeyMode.COMBINED, 60, 0.3, 0, 0, id="no-attack"),
        pytest.param(NoAttack(), KeyMode.SINGLE_ALICE, 60, 1.0, 2, 0, id="no-attack-full-check"),
        pytest.param(
            BACKWARD_R, KeyMode.COMBINED, 30, 0.5, 9,
            Fraction(
                48995214020592882494711845231019811953753, 52156595497157083376271819573034269802496
            ),
            id="threshold-above-2g-combined",
        ),
        pytest.param(
            BACKWARD_R, KeyMode.SINGLE_ALICE, 50, 0.3, 5,
            Fraction(119689141239467236275799, 147546577927984650387456),
            id="threshold-above-2g-single",
        ),
        # One round, 2 of its 4 positions checked: it errs with probability
        # 1/2, in 2 positions, and then both checked ones match in 1 of 6 pairs.
        pytest.param(BACKWARD_R, KeyMode.COMBINED, 1, 0.5, 0, Fraction(5, 12), id="m-below-2g"),
    ])
    def test_edges_equal_direct_sum(self, attack, key_mode, rounds, fraction, threshold, want):
        """n = 0, a full check (m = L), a threshold at or above m and an
        attack-free round (q1 = q2 = 0) each leave the recurrence nothing or
        everything to truncate; a threshold above 2g, with m above it, keeps
        every weight and truncates only the products, at z^threshold, and
        m < 2g reads the zero history before s_0."""
        dist = message_error_distribution(attack)
        policy = KeyCheckPolicy(fraction, threshold)
        got = abort_probability(attack, policy, rounds, key_mode)
        assert got == _direct_abort(dist, policy, rounds, key_mode)
        if threshold == 0 and fraction == 1.0:  # any erring round aborts
            assert got == 1 - dist[0] ** rounds
        else:
            assert got == want


class TestRoundStatisticsCache:
    """Each attack's round is enumerated once, cached by Eve's bases."""

    def test_distribution_is_a_fresh_dict(self):
        policy = KeyCheckPolicy(0.1, 0)
        want_dist = message_error_distribution(BACKWARD_Z)
        want_abort = abort_probability(BACKWARD_Z, policy, 20)
        got = message_error_distribution(BACKWARD_Z)
        got[0], got[2] = Fraction(0), Fraction(1)
        got.pop(3)
        assert message_error_distribution(BACKWARD_Z) == want_dist
        assert abort_probability(BACKWARD_Z, policy, 20) == want_abort
        assert exact_oracle(BACKWARD_Z).key_error_rate_phase_bit == Fraction(1, 2)

    @pytest.mark.parametrize("bad", [
        InterceptResend("backward", EveBasisPolicy.X),
        InterceptResend(ChannelLeg.FORWARD, "z"),
        "bogus",
    ], ids=["leg-str", "policy-str", "not-an-attack"])
    def test_bad_attack_after_good_still_rejected(self, bad):
        # A string leg matches neither leg, so its bases are those of NoAttack.
        for good in (NoAttack(), FORWARD_Z):
            exact_oracle(good)
            abort_probability(good, KeyCheckPolicy(0.1, 0), 10)
        for call in (
            exact_oracle,
            control_detection_probability,
            message_error_distribution,
            oracle.eve_resolved_bits,
            lambda attack: abort_probability(attack, KeyCheckPolicy(0.1, 0), 10),
        ):
            with pytest.raises(ConfigError):
                call(bad)

    def test_equal_attacks_share_one_entry(self):
        oracle._round_statistics.cache_clear()
        exact_oracle(InterceptResend(ChannelLeg.BACKWARD, EveBasisPolicy.Z))
        abort_probability(InterceptResend(ChannelLeg.BACKWARD), KeyCheckPolicy(0.1, 0), 10)
        # The key check's weights come from the same entry in every key mode.
        for key_mode in KeyMode:
            for threshold in (0, 3):
                policy = KeyCheckPolicy(0.1, threshold)
                abort_probability(InterceptResend(ChannelLeg.BACKWARD), policy, 10, key_mode)
        message_error_distribution(InterceptResend(ChannelLeg.BACKWARD, EveBasisPolicy.Z))
        control_detection_probability(InterceptResend(ChannelLeg.BACKWARD))
        info = oracle._round_statistics.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
        assert info.hits >= 4


class TestAbortProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        attack=st.sampled_from(ALL_ATTACKS),
        key_mode=st.sampled_from(list(KeyMode)),
        rounds=st.integers(0, 40),
        fractions=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2).map(sorted),
        threshold=st.integers(0, 6),
    )
    def test_non_decreasing_in_fraction(self, attack, key_mode, rounds, fractions, threshold):
        low, high = (
            abort_probability(attack, KeyCheckPolicy(f, threshold), rounds, key_mode)
            for f in fractions
        )
        assert 0 <= low <= high <= 1

    @settings(max_examples=40, deadline=None)
    @given(
        attack=st.sampled_from(ALL_ATTACKS),
        key_mode=st.sampled_from(list(KeyMode)),
        rounds=st.integers(0, 40),
        fraction=st.floats(0.0, 1.0),
        thresholds=st.lists(st.integers(0, 12), min_size=2, max_size=2).map(sorted),
    )
    def test_non_increasing_in_threshold(self, attack, key_mode, rounds, fraction, thresholds):
        strict, lenient = (
            abort_probability(attack, KeyCheckPolicy(fraction, t), rounds, key_mode)
            for t in thresholds
        )
        assert 0 <= lenient <= strict <= 1


class TestPolynomialPower:
    @pytest.mark.parametrize(
        "poly", [(1, 0, 0), (3, 1, 2), (5, 0, 7), (0, 1, 2), (0, 0, 3), (0, 4, 0)]
    )
    @pytest.mark.parametrize("n", [0, 1, 2, 7])
    def test_matches_repeated_multiplication(self, poly, n):
        want = [1]
        for _ in range(n):
            product = [0] * (len(want) + len(poly) - 1)
            for i, a in enumerate(want):
                for j, b in enumerate(poly):
                    product[i + j] += a * b
            want = product
        got = _power(poly, n)
        assert got == want[: len(got)]
        assert not any(want[len(got):])


class TestAbortValidation:
    @pytest.mark.parametrize("policy,rounds", [
        (KeyCheckPolicy(0.1, 0), -5),
        (KeyCheckPolicy(0.1, 0), 2.0),
        (KeyCheckPolicy(0.1, 0), True),
        (KeyCheckPolicy(0.1, 0), "x"),
        (KeyCheckPolicy(2.0, -1), 10),
        (KeyCheckPolicy(2.0, 0), 10),
        (KeyCheckPolicy(-0.5, 0), 10),
        (KeyCheckPolicy(float("nan"), 0), 10),
        (KeyCheckPolicy("0.1", 0), 10),
        (KeyCheckPolicy(0.1, -1), 10),
        (KeyCheckPolicy(0.1, 0.5), 10),
        (KeyCheckPolicy(0.1, False), 10),
        (KeyCheckPolicy(True, 0), 10),
        (KeyCheckPolicy(Decimal("0.1"), 0), 10),
        (KeyCheckPolicy(np.True_, 0), 10),
    ])
    def test_bad_queries_rejected(self, policy, rounds):
        with pytest.raises(ConfigError) as raised:
            abort_probability(BACKWARD_Z, policy, rounds)
        if isinstance(policy.fraction, (Decimal, np.bool_)):
            # Refused for its type, which lies in [0, 1].
            assert "check_fraction must be a real number (not a bool)" in str(raised.value)

    @pytest.mark.parametrize("attack", [
        InterceptResend("forward"),
        InterceptResend("backward", EveBasisPolicy.X),
        InterceptResend(ChannelLeg.BACKWARD, "z"),
        InterceptResend(None),
        "bogus",
        None,
    ])
    def test_bad_attack_rejected(self, attack):
        policy = KeyCheckPolicy(0.1, 0)
        calls = [
            lambda: exact_oracle(attack),
            lambda: abort_probability(attack, policy, 10),
            lambda: control_detection_probability(attack),
            lambda: message_error_distribution(attack),
            lambda: oracle.eve_resolved_bits(attack),
        ]
        for call in calls:
            with pytest.raises(ConfigError):
                call()

    @pytest.mark.parametrize("call", [
        lambda: abort_probability(BACKWARD_Z, KeyCheckPolicy(0.1), 10, "combined"),
        lambda: abort_probability(BACKWARD_Z, None, 10),
        lambda: abort_probability(BACKWARD_Z, (0.1, 0), 3),
        lambda: oracle.eve_resolved_bits(BACKWARD_Z, "combined"),
    ], ids=["abort-mode-str", "abort-no-policy", "abort-tuple-policy", "resolved-mode-str"])
    def test_bad_key_mode_or_policy_rejected(self, call):
        with pytest.raises(ConfigError):
            call()

    @pytest.mark.parametrize("key_mode", list(KeyMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("attack", ALL_ATTACKS, ids=ATTACK_IDS)
    def test_numpy_integers_give_the_int_value(self, attack, key_mode):
        # Validation accepts numpy integers; in fixed width the exact
        # arithmetic overflows at these sizes.
        for n in (0, 1, 17, 33, 35, 39):
            want = abort_probability(attack, KeyCheckPolicy(0.1, 1), n, key_mode)
            for rounds, threshold in ((np.int64(n), 1), (n, np.int64(1)), (np.int64(n), np.int64(1))):
                got = abort_probability(attack, KeyCheckPolicy(0.1, threshold), rounds, key_mode)
                assert type(got) is Fraction
                assert got == want

    def test_zero_rounds_never_abort(self):
        assert abort_probability(BACKWARD_Z, KeyCheckPolicy(1.0, 0), 0) == 0
