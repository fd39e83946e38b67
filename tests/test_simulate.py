"""Harness tests: determinism, accounting, serialization, table rendering."""

import csv
import dataclasses
import functools
import hashlib
import io
import inspect
import math
import json
import numbers
import tracemalloc
import types
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdkd import _kernels_py as kernels
from qdkd import oracle, simulate
from qdkd.adversary import (
    ChannelLeg,
    EveBasisPolicy,
    InterceptResend,
    NoAttack,
    apply_attack,
    eve_bases,
)
from qdkd.errors import ConfigError
from qdkd.protocol import (
    BellAnnouncement,
    CheckVerdict,
    ControlOutcome,
    ControlVerdict,
    Correlation,
    KeyCheckChallenge,
    KeyCheckPolicy,
    KeyMode,
    MessageOutcome,
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
from qdkd.oracle import (
    abort_probability,
    control_detection_probability,
    eve_resolved_bits,
    exact_oracle,
    message_error_distribution,
    unitary_outcome_table,
)
from qdkd.quantum import BellOutcome, LocalUnitary, MeasBasis, QubitId
from qdkd.simulate import (
    ABORT_CONTROL,
    _ROUND_WORDS,
    _binomial_ci,
    _decode_words,
    _edge,
    _round_lookup,
    _round_tables,
    ABORT_KEY_CHECK,
    RoundRecord,
    SimConfig,
    SimulationReport,
    derive_seed,
    parse_report,
    render_unitary_table,
    run_batch,
    run_session,
    run_simulation,
    serialize_report,
)

BACKWARD_Z = InterceptResend(ChannelLeg.BACKWARD, EveBasisPolicy.Z)
FORWARD_Z = InterceptResend(ChannelLeg.FORWARD, EveBasisPolicy.Z)
ALL_ATTACKS = [NoAttack()] + [
    InterceptResend(leg, policy) for leg in ChannelLeg for policy in EveBasisPolicy
]


@numbers.Real.register
class _NoExactValue:
    """A real number in [0, 1], by registration, with no as_integer_ratio()
    and so no exact value to compute with."""

    def __ge__(self, other):
        return 0.5 >= other

    def __le__(self, other):
        return 0.5 <= other


def _keys_from_records(records, key_mode):
    """The parties' pre-check keys as lists of bits, rebuilt from the
    message rounds' records with accumulate_key."""
    alice_key, bob_key = [], []
    for r in records:
        if isinstance(r.outcome, MessageOutcome):
            accumulate_key(alice_key, r.u_a.label, r.outcome.alice_view.label, key_mode)
            accumulate_key(bob_key, r.outcome.bob_view.label, r.outcome.u_b.label, key_mode)
    return alice_key, bob_key


class TestHonestRuns:
    def test_small_honest_run_is_clean(self):
        session = run_session(SimConfig(rounds=400, seed=5))
        report = session.report
        assert report.detections == 0
        assert not report.aborted
        assert report.key_error_rate_overall == 0.0
        assert session.alice_pre_check == session.bob_pre_check
        assert session.alice_final == session.bob_final
        assert report.capacity_bits_per_message_round == 4.0

    def test_single_mode_capacity(self):
        report = run_simulation(SimConfig(rounds=400, seed=5, key_mode=KeyMode.SINGLE_BOB))
        assert report.capacity_bits_per_message_round == 2.0

    def test_accounting_invariants(self):
        session = run_session(SimConfig(rounds=300, seed=8, check_fraction=0.2), keep_records=True)
        report = session.report
        assert report.control_rounds + report.message_rounds == report.rounds_total
        pre = len(session.alice_pre_check)
        assert pre == 4 * report.message_rounds
        checked = pre - report.final_key_length
        assert len(session.alice_final) == report.final_key_length
        assert checked == len(session.transcript[-3].positions)
        assert report.publicly_inferable_bits == 2 * report.message_rounds

    def test_transcript_bell_announcements_match_message_rounds(self):
        session = run_session(SimConfig(rounds=120, seed=3), keep_records=True)
        announces = [m for m in session.transcript if isinstance(m, BellAnnouncement)]
        assert len(announces) == session.report.message_rounds

    def test_rounds_zero_gives_empty_report(self):
        report = run_simulation(SimConfig(rounds=0, seed=1))
        assert report.rounds_total == 0
        assert report.final_key_length == 0
        assert report.capacity_bits_per_message_round == 0.0
        assert not report.aborted

    def test_round_records_collected_on_request(self):
        session = run_session(SimConfig(rounds=50, seed=2), keep_records=True)
        assert len(session.records) == session.report.rounds_total
        for record in session.records:
            assert isinstance(record.u_a, LocalUnitary)


class TestSessionProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        rounds=st.integers(0, 120),
        attack=st.sampled_from(ALL_ATTACKS),
        key_mode=st.sampled_from(list(KeyMode)),
        control_prob=st.floats(0.0, 1.0),
        check_fraction=st.floats(0.0, 1.0),
        threshold=st.integers(0, 5),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_records_rebuild_the_session(
        self, rounds, attack, key_mode, control_prob, check_fraction, threshold, seed
    ):
        config = SimConfig(
            rounds=rounds,
            control_prob=control_prob,
            key_mode=key_mode,
            check_fraction=check_fraction,
            mismatch_threshold=threshold,
            attack=attack,
            seed=seed,
        )
        session = run_session(config, keep_records=True)
        report = session.report
        records = session.records

        assert [r.index for r in records] == list(range(report.rounds_total))
        body = [m for r in records for m in r.outcome.transcript]
        assert session.transcript[: len(body)] == body
        tail = session.transcript[len(body):]
        if report.abort_cause == ABORT_CONTROL:
            assert tail == []
        else:
            assert isinstance(tail[0], KeyCheckChallenge)
            assert len(tail) == (4 if report.aborted else 3)

        alice_key, bob_key = _keys_from_records(records, key_mode)
        assert tuple(session.alice_pre_check) == tuple(alice_key)
        assert tuple(session.bob_pre_check) == tuple(bob_key)
        keys = (session.alice_pre_check, session.bob_pre_check, session.alice_final, session.bob_final)
        assert all(type(key) is bytes for key in keys)

        # Without keep_records: the same report and keys, and no raw material.
        bare = run_session(config)
        assert bare.report == report
        assert (bare.alice_pre_check, bare.bob_pre_check) == (
            session.alice_pre_check,
            session.bob_pre_check,
        )
        assert (bare.alice_final, bare.bob_final) == (session.alice_final, session.bob_final)
        assert bare.records == bare.transcript == bare.observations == []

        controls = sum(isinstance(r.outcome, ControlOutcome) for r in records)
        assert report.control_rounds == controls
        assert report.message_rounds == report.rounds_total - controls
        assert report.rounds_total <= rounds
        assert report.detections == (report.abort_cause == ABORT_CONTROL)
        if report.abort_cause != ABORT_CONTROL:
            assert report.rounds_total == rounds
        pre = len(session.alice_pre_check)
        assert pre == key_mode.bits_per_round * report.message_rounds
        assert report.capacity_bits_per_message_round == (
            key_mode.bits_per_round if report.message_rounds else 0.0
        )
        assert report.publicly_inferable_bits == 2 * report.message_rounds
        assert report.final_key_length == len(session.alice_final) == len(session.bob_final)
        checked = len(tail[0].positions) if tail else 0
        assert report.final_key_length == pre - checked

    @pytest.mark.parametrize(
        "config, rounds_total, message_rounds",
        [
            pytest.param(SimConfig(rounds=0, attack=BACKWARD_Z), 0, 0, id="no-rounds"),
            pytest.param(SimConfig(rounds=50, control_prob=1.0, seed=3), 50, 0, id="all-control"),
            # Forward-Z sessions that Eve's detection ends in their first
            # round, and in their second after one message round.
            pytest.param(SimConfig(rounds=60, attack=FORWARD_Z, seed=14), 1, 0, id="detected-1st"),
            pytest.param(SimConfig(rounds=60, attack=FORWARD_Z, seed=11), 2, 1, id="detected-2nd"),
        ],
    )
    @pytest.mark.parametrize("key_mode", list(KeyMode))
    def test_keys_split_at_their_edges(self, key_mode, config, rounds_total, message_rounds):
        """The joint key buffer splits into empty keys, or into the keys the
        records rebuild, when no message round or a single one ran."""
        config = dataclasses.replace(config, key_mode=key_mode)
        session = run_session(config, keep_records=True)
        report = session.report
        assert (report.rounds_total, report.message_rounds) == (rounds_total, message_rounds)
        assert (report.abort_cause == ABORT_CONTROL) == (config.attack == FORWARD_Z)
        keys = (session.alice_pre_check, session.bob_pre_check)
        assert all(type(key) is bytes for key in keys)
        assert keys == tuple(map(bytes, _keys_from_records(session.records, key_mode)))
        assert len(keys[0]) == key_mode.bits_per_round * message_rounds
        bare = run_session(config)
        assert bare.report == report
        assert (bare.alice_pre_check, bare.bob_pre_check) == keys

    @pytest.mark.parametrize(
        "leg, control_prob",
        [(ChannelLeg.FORWARD, 0.0), (ChannelLeg.BACKWARD, 0.5)],
    )
    def test_only_kept_sessions_build_round_objects(self, monkeypatch, leg, control_prob):
        """The round outcomes are built with the round lookup, as many at
        300 rounds as at 3,000, and no session builds one; keep_records
        builds only the records and Eve's observations, and each record
        holds an outcome of the lookup."""
        built = Counter()
        for name in ("EveObservation", "ControlOutcome", "MessageOutcome", "RoundRecord"):

            def counted(*args, _cls=getattr(simulate, name), _name=name, **kwargs):
                built[_name] += 1
                return _cls(*args, **kwargs)

            monkeypatch.setattr(simulate, name, counted)
        config = SimConfig(
            rounds=300,
            control_prob=control_prob,
            attack=InterceptResend(leg, EveBasisPolicy.RANDOM),
            seed=0,
        )
        per_build = []
        for rounds in (300, 3000):
            _round_lookup.cache_clear()
            built.clear()
            run_session(dataclasses.replace(config, rounds=rounds))
            per_build.append((built["ControlOutcome"], built["MessageOutcome"]))
        assert per_build[0] == per_build[1] and min(per_build[0]) > 0

        built.clear()
        session = run_session(config)
        assert not built
        assert session.transcript == session.observations == []

        session = run_session(config, keep_records=True)
        intercepted = (
            session.report.rounds_total if leg is ChannelLeg.FORWARD else session.report.message_rounds
        )
        assert built["EveObservation"] == len(session.observations) == intercepted > 0
        assert built["RoundRecord"] == session.report.rounds_total
        assert built["ControlOutcome"] == built["MessageOutcome"] == 0
        root = _round_lookup(*_bases(config.attack), config.key_mode)[1]
        held = {id(outcome) for outcome in _lookup_outcomes(root)}
        assert all(id(record.outcome) in held for record in session.records)

    def test_report_only_memory_per_key_bit(self):
        # Keys are bytes and the key check builds no Python object per bit,
        # so the traced peak stays a few bytes per pre-check key bit; a
        # tuple of the bits alone would take 8 per bit for each key.
        config = SimConfig(rounds=200_000, control_prob=0.0, attack=BACKWARD_Z, seed=1)
        run_simulation(dataclasses.replace(config, rounds=100))  # the round tables
        tracemalloc.start()
        try:
            report = run_simulation(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        key_bits = 4 * report.message_rounds
        assert key_bits == 800_000
        assert peak <= 16 * key_bits


class TestAttackedRuns:
    def test_forward_attack_aborts_on_detection(self):
        report = run_simulation(SimConfig(rounds=400, seed=1, attack=FORWARD_Z))
        assert report.aborted
        assert report.abort_cause == ABORT_CONTROL
        assert report.detections == 1
        assert report.rounds_total < 400

    def test_backward_attack_with_no_check_leaks(self):
        report = run_simulation(
            SimConfig(rounds=4000, seed=4, check_fraction=0.0, attack=BACKWARD_Z)
        )
        assert not report.aborted
        assert report.detections == 0
        assert report.key_error_rate_amplitude_bit == 0.0
        assert 0.4 < report.key_error_rate_phase_bit < 0.6

    def test_backward_attack_with_check_aborts(self):
        report = run_simulation(
            SimConfig(rounds=400, seed=4, check_fraction=0.1, attack=BACKWARD_Z)
        )
        assert report.aborted
        assert report.abort_cause == ABORT_KEY_CHECK

    def test_eve_observations_only_on_message_rounds_for_backward(self):
        session = run_session(SimConfig(rounds=200, seed=9, attack=BACKWARD_Z), keep_records=True)
        assert len(session.observations) == session.report.message_rounds
        assert all(o.leg is ChannelLeg.BACKWARD for o in session.observations)


class TestDeterminism:
    def test_identical_configs_identical_bytes(self):
        config = SimConfig(rounds=500, seed=123, attack=BACKWARD_Z, check_fraction=0.05)
        a = serialize_report(run_simulation(config), "json")
        b = serialize_report(run_simulation(config), "json")
        assert a == b
        assert serialize_report(run_simulation(config), "csv") == serialize_report(
            run_simulation(config), "csv"
        )

    def test_different_seeds_differ(self):
        base = SimConfig(rounds=500, seed=123)
        other = dataclasses.replace(base, seed=124)
        assert run_simulation(base) != run_simulation(other)

    def test_derive_seed_stable(self):
        assert derive_seed(42, 0) == derive_seed(42, 0)
        assert derive_seed(42, 0) != derive_seed(42, 1)

    def test_run_batch_reproducible(self):
        config = SimConfig(rounds=50, seed=77)
        assert run_batch(config, 5) == run_batch(config, 5)

    @pytest.mark.parametrize(
        "func, args",
        [
            (run_batch, (SimConfig(rounds=5), -1)),
            (run_batch, (SimConfig(rounds=5), True)),
            (run_batch, (SimConfig(rounds=5), 1.5)),
            (run_batch, (SimConfig(rounds=-1), 0)),
            (derive_seed, (-1, 0)),
            (derive_seed, (2**64, 0)),
            (derive_seed, (1.5, 0)),
            (derive_seed, (True, 0)),
            (derive_seed, (0, -1)),
            (derive_seed, (0, 1.5)),
        ],
    )
    def test_bad_batch_input_rejected(self, func, args):
        with pytest.raises(ConfigError):
            func(*args)


class TestSingleKeyModes:
    """Keeping Alice's or Bob's bits gives the same report: a round's mismatch
    mask is k ^ a ^ b from either side, and the checked positions depend only
    on the key length. This is why the CLI offers a single mode, not two."""

    @settings(max_examples=60, deadline=None)
    @given(
        rounds=st.integers(0, 150),
        attack=st.sampled_from(ALL_ATTACKS),
        control_prob=st.floats(0.0, 1.0),
        check_fraction=st.floats(0.0, 1.0),
        threshold=st.integers(0, 5),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_alice_and_bob_agree(
        self, rounds, attack, control_prob, check_fraction, threshold, seed
    ):
        reports = [
            run_simulation(
                SimConfig(
                    rounds=rounds, control_prob=control_prob, key_mode=key_mode,
                    check_fraction=check_fraction, mismatch_threshold=threshold,
                    attack=attack, seed=seed,
                )
            )
            for key_mode in (KeyMode.SINGLE_ALICE, KeyMode.SINGLE_BOB)
        ]
        for fmt in ("json", "csv"):
            assert serialize_report(reports[0], fmt) == serialize_report(reports[1], fmt)
        policy = KeyCheckPolicy(check_fraction, threshold)
        n = reports[0].message_rounds
        assert abort_probability(attack, policy, n, KeyMode.SINGLE_ALICE) == abort_probability(
            attack, policy, n, KeyMode.SINGLE_BOB
        )


class TestOracleAgreement:
    """Monte Carlo estimates within 4 binomial SE of the exact oracle, for
    every supported attack strategy."""

    @pytest.mark.parametrize("attack", ALL_ATTACKS)
    def test_key_error_rates_match_oracle(self, attack):
        exact = exact_oracle(attack)
        # control_prob 0: pure message rounds, so forward attacks cannot
        # abort the run and error statistics accumulate freely.
        config = SimConfig(rounds=20_000, control_prob=0.0, check_fraction=0.0,
                           attack=attack, seed=314)
        report = run_simulation(config)
        n = report.message_rounds  # positions within a round are correlated
        pairs = [
            (report.key_error_rate_amplitude_bit, float(exact.key_error_rate_amplitude_bit)),
            (report.key_error_rate_phase_bit, float(exact.key_error_rate_phase_bit)),
        ]
        for got, want in pairs:
            se = math.sqrt(want * (1.0 - want) / n)
            assert abs(got - want) <= 4 * se + 1e-12, (attack, got, want)

    @pytest.mark.parametrize("attack", ALL_ATTACKS)
    def test_joint_error_mask_matches_oracle(self, attack):
        # The rate tests pin only the marginals of e = announced ^ u_A ^ u_B;
        # the random-basis {1/2, 1/4, 1/4, 0} and {9/16, 3/16, 3/16, 1/16}
        # share them, so count e per message round against its full law.

        config = SimConfig(rounds=4_000, control_prob=0.0, attack=attack, seed=2024)
        records = run_session(config, keep_records=True).records
        counts = Counter(r.outcome.announced ^ r.u_a ^ r.outcome.u_b for r in records)
        n = len(records)
        for e, p in message_error_distribution(attack).items():
            want = float(p)
            if want == 0:
                assert counts[e] == 0, (attack, e)
            else:
                se = math.sqrt(n * want * (1.0 - want))
                assert abs(counts[e] - n * want) <= 5 * se, (attack, e, counts[e], n * want)
        assert message_error_distribution(attack)[3] == 0

    @pytest.mark.parametrize("policy", [EveBasisPolicy.Z, EveBasisPolicy.X, EveBasisPolicy.RANDOM])
    def test_forward_detection_matches_oracle(self, policy):

        attack = InterceptResend(ChannelLeg.FORWARD, policy)
        want = float(control_detection_probability(attack))
        detections = control_rounds = 0
        index = 0
        while control_rounds < 4_000:
            config = SimConfig(rounds=40, attack=attack, seed=derive_seed(2718, index))
            report = run_simulation(config)
            detections += report.detections
            control_rounds += report.control_rounds
            index += 1
        se = math.sqrt(want * (1.0 - want) / control_rounds)
        assert abs(detections / control_rounds - want) <= 4 * se

    @pytest.mark.parametrize(
        "attack, key_mode, want",
        [
            (BACKWARD_Z, KeyMode.COMBINED, Fraction(49555, 73112)),
            (InterceptResend(ChannelLeg.BACKWARD, EveBasisPolicy.RANDOM), KeyMode.SINGLE_ALICE,
             Fraction(67, 152)),
        ],
    )
    def test_interior_abort_rate_matches_oracle(self, attack, key_mode, want):
        # control_prob 0 fixes 10 message rounds, so every session meets the
        # same exact abort probability, well inside (0, 1).
        config = SimConfig(rounds=10, control_prob=0.0, key_mode=key_mode, check_fraction=0.1,
                           mismatch_threshold=0, attack=attack, seed=4242)
        assert abort_probability(attack, KeyCheckPolicy(0.1, 0), 10, key_mode) == want
        n = 4_000
        aborts = sum(report.aborted for report in run_batch(config, n))
        se = math.sqrt(float(want) * (1.0 - float(want)) / n)
        assert abs(aborts / n - float(want)) <= 5 * se


def _wilson(successes, trials, z=1.96):
    """Textbook form of the Wilson score interval."""
    p = successes / trials
    centre = (p + z * z / (2 * trials)) / (1 + z * z / trials)
    half = z / (1 + z * z / trials) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials**2))
    return centre - half, centre + half


class TestDetectionInterval:
    def test_no_trials(self):
        assert _binomial_ci(0, 0) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("trials", [1, 251, 10_000])
    def test_no_successes_has_width(self, trials):
        p, low, high = _binomial_ci(0, trials)
        assert p == low == 0.0
        assert high == pytest.approx(1.96**2 / (trials + 1.96**2), rel=1e-12)

    @pytest.mark.parametrize("trials", [1, 251, 10_000])
    def test_all_successes_has_width(self, trials):
        p, low, high = _binomial_ci(trials, trials)
        assert p == high == 1.0
        assert low == pytest.approx(trials / (trials + 1.96**2), rel=1e-12)

    def test_interior_matches_closed_form(self):
        p, low, high = _binomial_ci(3, 10)
        want_low, want_high = _wilson(3, 10)
        assert p == 0.3
        assert low == pytest.approx(want_low, rel=1e-12)
        assert high == pytest.approx(want_high, rel=1e-12)

    def test_session_coverage_matches_geometric_law(self):
        # A session aborts at its first detection, so with control_prob 1 an
        # attacked session's interval is 1 detection in K ~ Geometric(d)
        # control rounds, or 0 in the cap R when no round detects. Its exact
        # coverage of d is a sum over that law, not the nominal 95%.

        d = control_detection_probability(FORWARD_Z)
        rounds, n = 200, 4_000

        def covers(detections, trials):
            _p, low, high = _binomial_ci(detections, trials)
            return low <= float(d) <= high

        coverage = sum(d * (1 - d) ** (k - 1) for k in range(1, rounds + 1) if covers(1, k))
        coverage += (1 - d) ** rounds if covers(0, rounds) else 0
        # 1 in K covers 1/4 iff K <= 18, and 0 in R never does for R >= 12.
        assert d == Fraction(1, 4) and coverage == 1 - (1 - d) ** 18
        config = SimConfig(rounds=rounds, control_prob=1.0, attack=FORWARD_Z, seed=2026)
        share = sum(
            report.detection_ci_low <= float(d) <= report.detection_ci_high
            for report in run_batch(config, n)
        ) / n
        se = math.sqrt(float(coverage) * (1.0 - float(coverage)) / n)
        assert abs(share - float(coverage)) <= 5 * se

    def test_report_without_detections_has_width(self):
        config = SimConfig(rounds=500, attack=BACKWARD_Z, check_fraction=0.0, seed=3)
        report = run_simulation(config)
        assert report.detections == 0 and report.control_rounds > 0
        assert report.detection_ci_low == 0.0
        assert report.detection_ci_high == pytest.approx(
            1.96**2 / (report.control_rounds + 1.96**2), rel=1e-12
        )


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rounds": -1},
            {"rounds": 10, "control_prob": 1.5},
            {"rounds": 10, "check_fraction": -0.1},
            {"rounds": 10, "mismatch_threshold": -2},
            {"rounds": 10, "seed": -1},
            {"rounds": True},
            {"rounds": 10, "mismatch_threshold": 0.5},
            {"rounds": 10, "seed": 1.5},
            {"rounds": 10, "seed": "x"},
            {"rounds": 10, "key_mode": "combined"},
            {"rounds": 10, "control_prob": "x"},
            {"rounds": 10, "control_prob": None},
            {"rounds": 10, "check_fraction": "x"},
            {"rounds": 10, "attack": InterceptResend("forward")},
            {"rounds": 10, "attack": InterceptResend("backward", EveBasisPolicy.X)},
            {"rounds": 10, "attack": InterceptResend(ChannelLeg.FORWARD, "z")},
            {"rounds": 10, "attack": "bogus"},
            {"rounds": 10, "control_prob": True},
            {"rounds": 10, "check_fraction": False},
            {"rounds": 10, "control_prob": float("nan")},
            {"rounds": 10, "check_fraction": float("inf")},
            {"rounds": 10, "control_prob": Decimal("0.1")},
            {"rounds": 10, "check_fraction": Decimal("0.1")},
            {"rounds": 10, "control_prob": np.True_},
            {"rounds": 10, "check_fraction": np.True_},
            {"rounds": 10, "control_prob": _NoExactValue()},
        ],
    )
    def test_bad_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError) as raised:
            run_simulation(SimConfig(**kwargs))
        if any(isinstance(value, (Decimal, np.bool_)) for value in kwargs.values()):
            # Refused for its type, which lies in [0, 1].
            assert "must be a real number (not a bool)" in str(raised.value)

    def test_numpy_scalars_accepted(self):
        attack = InterceptResend(ChannelLeg.FORWARD, EveBasisPolicy.RANDOM)
        builtin = SimConfig(
            rounds=120, control_prob=0.5, mismatch_threshold=2, attack=attack, seed=2**63 + 5
        )
        numpy_typed = SimConfig(
            rounds=np.int64(120),
            control_prob=np.float32(0.5),
            mismatch_threshold=np.int64(2),
            attack=attack,
            seed=np.uint64(2**63 + 5),
        )
        assert numpy_typed.validate() is numpy_typed
        assert serialize_report(run_simulation(numpy_typed)) == serialize_report(
            run_simulation(builtin)
        )

    def test_narrow_numpy_control_prob_decides_as_its_exact_value(self):
        """np.float32(0.5) and np.float16(0.5) give the report bytes of 0.5.
        This session has a mode uniform in [0.5 - 2**-26, 0.5), which numpy 2
        would round to the float32 0.5 before comparing: a control_prob at
        the foot of that window decides it otherwise."""

        def report(control_prob):
            config = SimConfig(rounds=400, control_prob=control_prob, seed=352974)
            return serialize_report(run_simulation(config))

        want = report(0.5)
        assert report(np.float32(0.5)) == report(np.float16(0.5)) == want
        assert report(0.5 - 2**-26) != want
        # bob_choose_mode, the scalar reference, compares the same way.
        _assert_matches_reference(SimConfig(rounds=400, control_prob=np.float32(0.5), seed=352974))

    def test_narrow_numpy_check_fraction_counts_as_its_exact_value(self):
        """A numpy float16, float32 or small integer check_fraction checks
        ceil(value * length) of its exact value. Computed in its own type, a
        float16 overflows past 65504 key bits, np.float32(0.1) * 1600 rounds
        down to 160, and a uint8 overflows past 255."""

        def report(rounds, check_fraction):
            config = SimConfig(rounds=rounds, control_prob=0.0, check_fraction=check_fraction)
            return serialize_report(run_simulation(config))

        assert report(40000, np.float16(0.5)) == report(40000, float(np.float16(0.5)))
        assert report(400, np.float32(0.1)) == report(400, float(np.float32(0.1)))
        assert json.loads(report(400, np.float32(0.1)))["final_key_length"] == 1600 - 161
        assert report(400, np.uint8(1)) == report(400, 1)
        narrow, exact = (KeyCheckPolicy(f) for f in (np.float16(0.001), float(np.float16(0.001))))
        assert abort_probability(BACKWARD_Z, narrow, 20000) == abort_probability(
            BACKWARD_Z, exact, 20000
        )
        # 1/3 as a longdouble lies above 1/3, so 12 key bits check 5; the
        # longdouble product with 12 rounds to 4.0.
        third = np.longdouble(1) / 3
        exact_third = Fraction(*third.as_integer_ratio())
        assert report(3, third) == report(3, exact_third)
        assert abort_probability(BACKWARD_Z, KeyCheckPolicy(third), 3) == abort_probability(
            BACKWARD_Z, KeyCheckPolicy(exact_third), 3
        )


def _report_json(**changes) -> bytes:
    """The JSON of a valid 0-round report with the given fields replaced."""
    data = json.loads(serialize_report(run_simulation(SimConfig(rounds=0, seed=0))))
    return json.dumps({**data, **changes}).encode()


def _bad_report(**changes):
    return pytest.param(_report_json(**changes), id=",".join(f"{k}={v!r}" for k, v in changes.items()))


_WRITER_COUNTS = st.one_of(
    st.integers(), st.integers(min_value=-(10**300), max_value=10**300), st.booleans()
)
_WRITER_FLOATS = st.one_of(
    st.floats(), st.sampled_from([-0.0, 5e-324, 1e16, 1e-7, math.nan, math.inf, -math.inf])
)
_WRITER_CAUSES = st.one_of(
    st.none(),
    st.text(),
    st.sampled_from(['"', "\\", "\x00\x1f\x7f\n", "é", "\u2028", "\U0001f600", "a,b", "\r\n"]),
)
_WRITER_FIELD_VALUES = {
    f.name: {int: _WRITER_COUNTS, float: _WRITER_FLOATS, bool: st.booleans()}.get(
        f.type, _WRITER_CAUSES
    )
    for f in dataclasses.fields(SimulationReport)
}


class TestSerialization:
    @settings(max_examples=400, deadline=None)
    @given(
        values=st.fixed_dictionaries(_WRITER_FIELD_VALUES),
        unencodable=st.one_of(st.none(), st.sampled_from(list(_WRITER_FIELD_VALUES))),
    )
    def test_json_writer_matches_json_dumps(self, values, unencodable):
        if unencodable is not None:
            values[unencodable] = Fraction(1, 3)
        report = SimulationReport(**values)
        data = {f.name: getattr(report, f.name) for f in dataclasses.fields(SimulationReport)}
        try:
            expected = (json.dumps(data, indent=2) + "\n").encode()
        except TypeError:
            with pytest.raises(TypeError):
                serialize_report(report)
        else:
            assert serialize_report(report) == expected

    @settings(max_examples=400, deadline=None)
    @given(values=st.fixed_dictionaries(_WRITER_FIELD_VALUES))
    def test_csv_writer_bytes(self, values):
        """The header, then one row whose cells are written as csv writes
        strings: None as empty, a bool as true or false, a float as its repr
        and any other value as its str."""

        def cell(value):
            if value is None:
                return ""
            if isinstance(value, bool):
                return "true" if value else "false"
            return repr(value) if isinstance(value, float) else str(value)

        names = list(_WRITER_FIELD_VALUES)  # the schema order
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow(cell(values[name]) for name in names)
        expected = ",".join(names) + "\n" + buf.getvalue()
        assert serialize_report(SimulationReport(**values), "csv") == expected.encode()

    def test_json_bytes_without_the_c_encoder(self, monkeypatch):
        """A Python without the json module's C accelerator (PyPy, say) writes
        the same bytes through the pure-Python encoder."""
        reports = [
            run_simulation(SimConfig(rounds=200, seed=6, attack=BACKWARD_Z)),
            SimulationReport(**{
                name: {int: -(10**30), float: math.nan, bool: True}.get(kind, 'é"\r\n,\U0001f600')
                for name, kind in simulate._REPORT_FIELDS.items()
            }),
        ]
        accelerated = [serialize_report(report) for report in reports]
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
        assert [serialize_report(report) for report in reports] == accelerated
        for report, data in zip(reports, accelerated):
            assert data == (json.dumps(dataclasses.asdict(report), indent=2) + "\n").encode()

    def test_json_roundtrip(self):
        report = run_simulation(SimConfig(rounds=200, seed=6))
        assert parse_report(serialize_report(report, "json")) == report
        assert parse_report(bytearray(serialize_report(report, "json"))) == report

    def test_csv_columns_match_json_keys(self):
        report = run_simulation(SimConfig(rounds=50, seed=6))
        json_keys = list(json.loads(serialize_report(report, "json")))
        header, row = serialize_report(report, "csv").decode().splitlines()
        assert header.split(",") == json_keys
        assert len(row.split(",")) == len(json_keys)

    def test_empty_run_serializes(self):
        report = run_simulation(SimConfig(rounds=0, seed=0))
        data = json.loads(serialize_report(report, "json"))
        assert data["rounds_total"] == 0
        assert data["final_key_length"] == 0
        assert data["abort_cause"] is None
        assert parse_report(_report_json()) == report

    def test_unknown_format_rejected(self):
        report = run_simulation(SimConfig(rounds=0, seed=0))
        for fmt in ("yaml", "xml"):
            with pytest.raises(ConfigError):
                serialize_report(report, fmt)

    @pytest.mark.parametrize(
        "data",
        [
            b"1",
            b"null",
            b"not json",
            b"\xff",
            b"[]",
            b'{"rounds_total": 0}',
            _bad_report(rounds_total="many", aborted="no", detection_prob=[1]),
            _bad_report(rounds_total="many"),
            _bad_report(rounds_total=True),
            _bad_report(final_key_length=1.0),
            _bad_report(detection_prob=[1]),
            _bad_report(detection_prob=0),
            _bad_report(capacity_bits_per_message_round="4.0"),
            _bad_report(aborted="no"),
            _bad_report(aborted=0),
            _bad_report(abort_cause=7),
            _bad_report(abort_cause=False),
            "{}",
            None,
        ],
    )
    def test_malformed_report_rejected(self, data):
        with pytest.raises(ConfigError):
            parse_report(data)


class TestOutcomeTable:
    def test_matches_xor_law(self):
        table = unitary_outcome_table()
        for a in LocalUnitary:
            for b in LocalUnitary:
                assert table[a][b] == BellOutcome(int(a) ^ int(b))

    def test_symmetric(self):
        table = unitary_outcome_table()
        for a in range(4):
            for b in range(4):
                assert table[a][b] == table[b][a]

    def test_rendering_contains_rows(self):
        text = render_unitary_table()
        lines = text.splitlines()
        assert len(lines) == 5
        assert lines[1].split()[-4:] == ["Ψ+", "Ψ−", "Φ+", "Φ−"]
        assert lines[4].split()[-4:] == ["Φ−", "Φ+", "Ψ−", "Ψ+"]


# --- The table-driven session against the scalar round functions ---


def _reference_error_rates(alice_key, bob_key):
    n = len(alice_key)
    if n == 0:
        return 0.0, 0.0, 0.0
    overall = amp = phase = 0
    for i, (a, b) in enumerate(zip(alice_key, bob_key)):
        if a != b:
            overall += 1
            if i % 2 == 0:
                amp += 1
            else:
                phase += 1
    half = n // 2
    return (
        overall / n,
        amp / half if half else 0.0,
        phase / half if half else 0.0,
    )


def _reference_session(config):
    """One session by the public scalar round functions, drawing from
    default_rng of the protocol seed sequence: the session loop as it was
    before the round tables. Returns (report, records, transcript,
    observations, pre-check keys, final keys)."""
    proto_ss, check_ss = np.random.SeedSequence(config.seed).spawn(2)
    rng = np.random.default_rng(proto_ss)
    transcript, observations, records = [], [], []
    alice_key, bob_key = [], []
    control_rounds = message_rounds = detections = 0
    aborted = False
    abort_cause = None

    def return_channel(s):
        s2, obs2 = apply_attack(s, ChannelLeg.BACKWARD, config.attack, rng, index)
        if obs2 is not None:
            observations.append(obs2)
        return s2

    for index in range(config.rounds):
        state, u_a = alice_prepare(rng)
        state, obs = apply_attack(state, ChannelLeg.FORWARD, config.attack, rng, index)
        if obs is not None:
            observations.append(obs)
        mode = bob_choose_mode(config.control_prob, rng)
        if mode is RoundMode.CONTROL:
            control_rounds += 1
            outcome = run_control_round(u_a, state, rng)
        else:
            message_rounds += 1
            outcome = run_message_round(u_a, state, rng, return_channel)
            accumulate_key(alice_key, u_a.label, outcome.alice_view.label, config.key_mode)
            accumulate_key(bob_key, outcome.bob_view.label, outcome.u_b.label, config.key_mode)
        transcript.extend(outcome.transcript)
        records.append(RoundRecord(index, u_a, outcome))
        if mode is RoundMode.CONTROL and outcome.verdict is ControlVerdict.EVE_DETECTED:
            detections += 1
            aborted = True
            abort_cause = ABORT_CONTROL
            break

    alice_pre, bob_pre = tuple(alice_key), tuple(bob_key)
    overall, amp_rate, phase_rate = _reference_error_rates(alice_pre, bob_pre)
    checked = 0
    alice_final, bob_final = alice_pre, bob_pre
    if not aborted:
        policy = KeyCheckPolicy(config.check_fraction, config.mismatch_threshold)
        check = key_check(alice_pre, bob_pre, policy, np.random.default_rng(check_ss))
        transcript.extend(check.transcript)
        checked = len(check.positions)
        alice_final, bob_final = tuple(check.alice_final), tuple(check.bob_final)
        if check.verdict is CheckVerdict.ABORT:
            aborted = True
            abort_cause = ABORT_KEY_CHECK
    detection_prob, ci_low, ci_high = _binomial_ci(detections, control_rounds)
    report = SimulationReport(
        rounds_total=control_rounds + message_rounds,
        control_rounds=control_rounds,
        message_rounds=message_rounds,
        detections=detections,
        detection_prob=detection_prob,
        detection_ci_low=ci_low,
        detection_ci_high=ci_high,
        key_error_rate_overall=overall,
        key_error_rate_amplitude_bit=amp_rate,
        key_error_rate_phase_bit=phase_rate,
        aborted=aborted,
        abort_cause=abort_cause,
        final_key_length=len(alice_pre) - checked,
        capacity_bits_per_message_round=len(alice_pre) / message_rounds if message_rounds else 0.0,
        publicly_inferable_bits=2 * message_rounds,
    )
    return report, records, transcript, observations, (alice_pre, bob_pre), (alice_final, bob_final)


def _assert_matches_reference(config):
    report, records, transcript, observations, pre, final = _reference_session(config)
    session = run_session(config, keep_records=True)
    assert session.records == records
    assert session.transcript == transcript
    assert session.observations == observations
    assert (tuple(session.alice_pre_check), tuple(session.bob_pre_check)) == pre
    assert (tuple(session.alice_final), tuple(session.bob_final)) == final
    assert serialize_report(session.report) == serialize_report(report)
    assert serialize_report(session.report, "csv") == serialize_report(report, "csv")


# control_prob at and next to the edges of the mode decision: 0, the
# smallest positive double, the doubles either side of 1/2, and 1.
CONTROL_PROB_EDGES = (0.0, 5e-324, 0.5 - 2.0**-53, 0.5, 0.5 + 2.0**-53, 1.0 - 2.0**-53, 1.0)
# No attack, and the random policies, whose odd 32-bit draws shift the
# buffered half.
REFILL_ATTACKS = [
    NoAttack(),
    InterceptResend(ChannelLeg.FORWARD, EveBasisPolicy.RANDOM),
    InterceptResend(ChannelLeg.BACKWARD, EveBasisPolicy.RANDOM),
]


def _fresh_words_of_one_round(attack, control_prob, buffered):
    """The PCG64 words one round of the scalar reference opens, from a stream
    whose last opened word has (buffered) or has not a 32-bit half left."""
    bitgen = np.random.PCG64(11)
    rng = np.random.Generator(bitgen)
    if buffered:
        rng.integers(2)
    start = bitgen.state
    state, u_a = alice_prepare(rng)
    state, _ = apply_attack(state, ChannelLeg.FORWARD, attack, rng, 0)
    if bob_choose_mode(control_prob, rng) is RoundMode.CONTROL:
        run_control_round(u_a, state, rng)
    else:
        run_message_round(
            u_a, state, rng, lambda s: apply_attack(s, ChannelLeg.BACKWARD, attack, rng, 0)[0]
        )
    probe = np.random.PCG64()
    probe.state = start
    for words in range(4 * _ROUND_WORDS):
        if probe.state["state"] == bitgen.state["state"]:
            return words
        probe.advance(1)
    raise AssertionError("the round read more words than the probe counts")


class TestSessionStream:
    """run_session draws exactly what the scalar round functions draw from
    numpy's Generator, so both give the same sessions, unless a draw hits one
    of FLOAT_OFF_UNIFORMS (probability at most 2**-52 per draw)."""

    @settings(max_examples=80, deadline=None)
    @given(
        rounds=st.integers(0, 200),
        attack=st.sampled_from(ALL_ATTACKS),
        key_mode=st.sampled_from(list(KeyMode)),
        control_prob=st.floats(0.0, 1.0),
        check_fraction=st.floats(0.0, 1.0),
        threshold=st.integers(0, 5),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_matches_scalar_rounds(
        self, rounds, attack, key_mode, control_prob, check_fraction, threshold, seed
    ):
        _assert_matches_reference(
            SimConfig(
                rounds=rounds,
                control_prob=control_prob,
                key_mode=key_mode,
                check_fraction=check_fraction,
                mismatch_threshold=threshold,
                attack=attack,
                seed=seed,
            )
        )

    @pytest.mark.parametrize("key_mode", list(KeyMode))
    @pytest.mark.parametrize("attack", ALL_ATTACKS)
    def test_matrix_matches_scalar_rounds(self, attack, key_mode):
        for control_prob in (0.0, 0.5):
            _assert_matches_reference(
                SimConfig(rounds=300, control_prob=control_prob, key_mode=key_mode,
                          attack=attack, seed=2024)
            )

    @pytest.mark.parametrize("seed", [0, 5, 2**64 - 1])
    def test_decoded_words_equal_generator_draws(self, seed):
        """Every decoded byte is a Generator draw: lo2 and hi2 are integers(4)
        and their top bits integers(2); rank and control decide random() < t
        for every table threshold t and every control_prob in
        CONTROL_PROB_EDGES."""
        bitgen = np.random.PCG64(np.random.SeedSequence(seed))
        chunks = [bitgen.random_raw(chunk) for chunk in (1, 7, 64, 4096)]
        generator = np.random.default_rng(np.random.SeedSequence(seed))
        uniforms = np.array([generator.random() for _ in range(sum(map(len, chunks)))])
        for attack in ALL_ATTACKS:
            edges = _round_lookup(*_bases(attack), KeyMode.COMBINED)[0]
            thresholds = _thresholds(_tables(attack))
            assert edges.tolist() == sorted({math.ceil(t * 2**53) for t in thresholds})
            for control_prob in CONTROL_PROB_EDGES:
                lo2, hi2, rank, control = (
                    b"".join(part)
                    for part in zip(*(_decode_words(c, edges, _edge(control_prob)) for c in chunks))
                )
                rank = np.frombuffer(rank, dtype=np.uint8)
                for t in thresholds:
                    j = edges.tolist().index(math.ceil(t * 2**53))
                    # t equals its float, so the fast float comparison is exact.
                    assert t == float(t)
                    assert ((rank <= j) == (uniforms < float(t))).all()
                assert list(control) == (uniforms < control_prob).tolist()
        # lo2 and hi2 do not depend on the edges: the last decode stands for all.
        halves = [two_bits for pair in zip(lo2, hi2) for two_bits in pair]
        generator = np.random.default_rng(np.random.SeedSequence(seed))
        assert halves == [generator.integers(4) for _ in halves]
        generator = np.random.default_rng(np.random.SeedSequence(seed))
        assert [two_bits >> 1 for two_bits in halves] == [generator.integers(2) for _ in halves]

    @pytest.mark.parametrize("control_prob", CONTROL_PROB_EDGES)
    @pytest.mark.parametrize("attack", REFILL_ATTACKS)
    def test_matches_scalar_rounds_at_control_prob_edges(self, attack, control_prob):
        # floats(0, 1) rarely draws these, where a mode decision is closest
        # to its edge.
        for seed in range(5):
            _assert_matches_reference(
                SimConfig(rounds=300, control_prob=control_prob, attack=attack, seed=seed)
            )

    @pytest.mark.parametrize(
        "value",
        [0, 1, np.int64(1), np.int8(1), np.uint8(0), 5e-324, 0.1, 1.0, np.float64(0.1),
         np.float32(0.5), np.float32(0.1), np.float16(0.3), Fraction(1, 3), Decimal("0.1"),
         Fraction(2**52 + 1, 2**53) + Fraction(1, 2**60),
         Fraction(2**52 + 1, 2**53) - Fraction(1, 2**60), Fraction(2**53 - 1, 2**53),
         np.longdouble(1) / 3, np.nextafter(np.longdouble(0.5), np.longdouble(0))],
    )
    def test_control_edge_decides_as_the_comparison(self, value):
        """control_prob may be any real in [0, 1]: its edge splits the stream
        uniforms exactly where r < control_prob does, by that type's own
        comparison, which for an exact type means at ceil(value * 2**53). A
        numpy float16, float32 or integer is compared as its Python value,
        which is its exact value, on every numpy version. A numpy longdouble
        is compared as the Fraction of its as_integer_ratio()."""
        narrow = (np.integer, np.float16, np.float32)
        exact = value.item() if isinstance(value, narrow) else value
        edge = _edge(value)
        assert edge == 0 or (edge - 1) * 2.0**-53 < exact
        assert edge == 2**53 or not edge * 2.0**-53 < exact
        if isinstance(value, (int, float, Fraction, Decimal, np.longdouble, *narrow)):
            assert edge == math.ceil(Fraction(*exact.as_integer_ratio()) * 2**53)
        ks = [k for k in (edge - 1, edge, edge + 1) if 0 <= k < 2**53]
        words = np.array([k << 11 for k in ks], dtype=np.uint64)
        control = _decode_words(words, _round_lookup((), (), KeyMode.COMBINED)[0], edge)[3]
        assert list(control) == [k * 2.0**-53 < exact for k in ks]

    def test_round_words_bounds_every_round(self):
        """_ROUND_WORDS bounds the fresh words one round reads, as the scalar
        reference reads them, under every attack, in both modes and with or
        without a buffered 32-bit half."""
        most = max(
            _fresh_words_of_one_round(attack, control_prob, buffered)
            for attack in ALL_ATTACKS
            for control_prob in (0.0, 1.0)
            for buffered in (False, True)
        )
        assert most == 6 <= _ROUND_WORDS

    @pytest.mark.parametrize("control_prob", [0.0, 0.5])
    @pytest.mark.parametrize("attack", REFILL_ATTACKS)
    def test_long_session_spans_refills(self, attack, control_prob):
        # 2,500 rounds read past the 4,096-word chunk cap; the random
        # policies' odd 32-bit draws make refills meet a buffered half.
        _assert_matches_reference(
            SimConfig(rounds=2500, control_prob=control_prob, attack=attack, seed=31)
        )

    @pytest.mark.parametrize("seed", [0, 1, 12345, 2**64 - 1])
    def test_stream_sequences_are_spawned_children(self, seed):
        children = np.random.SeedSequence(seed).spawn(2)
        for index, child in enumerate(children):
            direct = np.random.SeedSequence(seed, spawn_key=(index,))
            assert direct.generate_state(4).tolist() == child.generate_state(4).tolist()
            assert (
                np.random.PCG64(direct).random_raw(8).tolist()
                == np.random.PCG64(child).random_raw(8).tolist()
            )

    # sha-256 of the concatenated JSON reports of the 400-round matrix below,
    # recorded from the scalar session loop before the round tables.
    GOLDEN_DIGEST = "4acaf072da6a6c99b9279339bbfe55ddf96e17e865f0093233caadaa1648af0e"

    def test_golden_digest(self):
        digest = hashlib.sha256()
        for attack in ALL_ATTACKS:
            for key_mode in KeyMode:
                for seed in range(5):
                    for control_prob in (0.0, 0.5):
                        config = SimConfig(rounds=400, control_prob=control_prob,
                                           key_mode=key_mode, attack=attack, seed=seed)
                        digest.update(serialize_report(run_simulation(config)))
        assert digest.hexdigest() == self.GOLDEN_DIGEST


def _uniforms_around(*points):
    """Stream uniforms at and next to each point, plus a few fixed ones: the
    multiples of 2**-53 in [0, 1), the values of (w >> 11) * 2**-53."""
    steps = {0, 2**52, 2**53 - 1}
    for p in points:
        m = math.floor(p * 2**53)
        steps.update((m - 1, m, m + 1))
    return sorted(m * 2.0**-53 for m in steps if 0 <= m < 2**53)


def _bell_rule(thresholds, r):
    """The loop's Bell decision: the first outcome whose threshold exceeds r."""
    return next((k for k, acc in enumerate(thresholds) if r < acc), 3)


def _control_entry(detected, basis, bob_bit, alice_bit):
    """A control round's lookup entry: the detection and the outcome."""
    verdict = ControlVerdict.EVE_DETECTED if detected else ControlVerdict.PASS
    return detected, ControlOutcome(verdict, basis, bob_bit, alice_bit)


def _message_outcome(u_a, u_b, k):
    """A message round's outcome when Alice announces Bell outcome k."""
    return MessageOutcome(u_b, k, decode(u_a, k), decode(u_b, k))


def _lookup_outcomes(table):
    """Every ControlOutcome and MessageOutcome held in a nested round lookup."""
    if isinstance(table, (ControlOutcome, MessageOutcome)):
        yield table
    elif isinstance(table, tuple):
        for entry in table:
            yield from _lookup_outcomes(entry)


def _bases(attack):
    return eve_bases(attack, ChannelLeg.FORWARD), eve_bases(attack, ChannelLeg.BACKWARD)


def _tables(attack):
    return _round_tables(*_bases(attack))


def _thresholds(tables):
    """Every p0 and Bell threshold of the round tables."""
    p0s = [e[0] for rows in tables.measure for row in rows for e in row if e is not None]
    return p0s + [acc for row in tables.bell if row is not None for acc in row]


def _rank_spans(edges):
    """{rank: (first k, last k)} of each rank a word can have: rank j holds
    the k = word >> 11 from the j-th bound to below the next, the bounds
    being 0, the edges and 2**53; a rank between equal bounds has no word."""
    bounds = [0, *edges.tolist(), 2**53]
    spans = enumerate(zip(bounds, bounds[1:]))
    return {j: (low, high - 1) for j, (low, high) in spans if low < high}


def _same_ray(amps, state):
    """Whether float amplitudes and an integer state agree up to scale and phase."""
    norm = math.sqrt(sum(x * x for x in state))
    return abs(kernels.inner(amps, [x / norm for x in state])) >= 1.0 - 1e-12


# The only stream uniforms at which a float kernel decides otherwise than the
# exact tables: its thresholds 0.5 - 2**-53, 0.5 + 2**-53 and 0.5 + 2**-52
# stand for an exact 1/2.
FLOAT_OFF_UNIFORMS = (0.5 - 2.0**-53, 0.5, 0.5 + 2.0**-53)

# Single-qubit projectors by basis then bit, the X ones scaled by 2, and the
# Bell vectors scaled by sqrt(2): integer matrices, so zero tests are exact.
INT_PROJECTORS = (
    (np.array([[1, 0], [0, 0]]), np.array([[0, 0], [0, 1]])),
    (np.array([[1, 1], [1, 1]]), np.array([[1, -1], [-1, 1]])),
)
INT_BELL = np.array([[0, 1, 1, 0], [0, 1, -1, 0], [1, 0, 0, 1], [1, 0, 0, -1]])


def _int_op(qubit, matrix):
    """A single-qubit matrix on the home (0) or travel (1) qubit of |ht>."""
    eye = np.eye(2, dtype=int)
    return np.kron(matrix, eye) if qubit == 0 else np.kron(eye, matrix)


def _exact_branches(tables, s, qubit, basis):
    """(exact probability, bit, successor) of each possible outcome of a table entry."""
    p0, s0, s1 = tables.measure[qubit][s][basis]
    return [(p, bit, t) for p, bit, t in ((p0, 0, s0), (1 - p0, 1, s1)) if p]


class TestRoundTables:
    """The round tables, built in exact arithmetic, against the oracle's
    statistics and the float kernels."""

    # sha-256 of the repr of (states, measure, encode, bell, prepared) per
    # attack, in ALL_ATTACKS order, with every threshold written as its
    # float, which equals it. repr round-trips every float, so a changed
    # threshold, or a renumbered state, changes the digest even when no
    # report does.
    TABLE_DIGESTS = (
        "bbe84632a5597ca77cef4fccde81ff20a9352721f466d7da3125250ce5dfefea",
        "86cbc05367a95b30c7c6f66bcf3d3eac3fbb21c6ef321541beb8b46063de111e",
        "7d787483856e231d9884f8467f552e2442edfb9a6e672bb3892799117c88d9d0",
        "a9e515fb88fdd5f642982859d4b521dd71c288ee15f2d5da01a09e23cf95d40d",
        "e8d67be3930b5a17cbd2b849ba2805806c1ef2315bff8aee4a53310444208c15",
        "0545d512ac8eaa232173390f0cbea0b93c2b7a68552301c205998923af2d6bac",
        "1edbc281661b8f1b4986014c0ffca91f3c2e08d90188e9ddc19908f8c2ea0fa7",
    )
    STATE_COUNTS = (12, 16, 16, 20, 12, 12, 12)

    @pytest.mark.parametrize("attack, digest", zip(ALL_ATTACKS, TABLE_DIGESTS))
    def test_tables_are_bit_identical(self, attack, digest):
        tables = _tables(attack)
        assert all(type(t) is Fraction and t == float(t) for t in _thresholds(tables))
        measure = tuple(
            [[e and (float(e[0]), *e[1:]) for e in row] for row in rows] for rows in tables.measure
        )
        bell = [row and tuple(map(float, row)) for row in tables.bell]
        text = repr((tables.states, measure, tables.encode, bell, tables.prepared))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("attack, count", zip(ALL_ATTACKS, STATE_COUNTS))
    def test_states_are_distinct_up_to_scale_and_sign(self, attack, count):
        states = _tables(attack).states
        assert len(states) == count
        for i, a in enumerate(states):
            for b in states[:i]:
                # Parallel integer vectors meet Cauchy-Schwarz with equality.
                assert np.dot(a, b) ** 2 != np.dot(a, a) * np.dot(b, b)

    @pytest.mark.parametrize("attack", ALL_ATTACKS)
    def test_decisions_match_kernels(self, attack):
        """The float kernels, walked alongside the tables from Alice's
        prepared states, agree with them in bit and in collapsed state (up to
        scale and phase) at every probed uniform but FLOAT_OFF_UNIFORMS, and
        differ there only where a float threshold is off from the exact one."""
        tables = _tables(attack)
        psi_plus = kernels.BELL_AMPS[0]
        todo = [(s, kernels.apply_u(psi_plus, 1, u)) for u, s in enumerate(tables.prepared)]
        seen = set()
        checked = 0
        while todo:
            s, amps = todo.pop()
            if (s, amps) in seen:
                continue
            seen.add((s, amps))
            assert _same_ray(amps, tables.states[s])
            for qubit in (0, 1):
                for basis in (0, 1):
                    if tables.measure[qubit][s][basis] is None:
                        continue
                    p0, s0, s1 = tables.measure[qubit][s][basis]
                    float_p0 = kernels.qubit_probs(amps, qubit, basis)[0]
                    for r in _uniforms_around(p0, float_p0):
                        checked += 1
                        bit, t = (0, s0) if r < p0 else (1, s1)
                        float_bit, collapsed = kernels.measure_qubit(amps, qubit, basis, r)
                        if float_bit == bit:
                            todo.append((t, collapsed))
                        else:
                            assert r in FLOAT_OFF_UNIFORMS
                            assert min(p0, float_p0) <= r < max(p0, float_p0)
            if tables.encode[s] is not None:
                for u, t in enumerate(tables.encode[s]):
                    todo.append((t, kernels.apply_u(amps, 1, u)))
            if tables.bell[s] is not None:
                exact, floats = tables.bell[s], kernels.bell_thresholds(amps)
                for r in _uniforms_around(*exact, *floats):
                    checked += 1
                    if _bell_rule(exact, r) != kernels.measure_bell(amps, r)[0]:
                        assert r in FLOAT_OFF_UNIFORMS
                        assert any(min(e, f) <= r < max(e, f) for e, f in zip(exact, floats))
        assert {s for s, _ in seen} == set(range(len(tables.states)))
        assert checked > 0

    @pytest.mark.parametrize("attack", ALL_ATTACKS)
    def test_thresholds_are_exact(self, attack):
        """Every p0 and Bell threshold is the exact Fraction of squared norms
        of integer projections; in this protocol each is 0, 1/2 or 1."""
        tables = _tables(attack)
        for s, state in enumerate(tables.states):
            for qubit in (0, 1):
                for basis in (0, 1):
                    if tables.measure[qubit][s][basis] is None:
                        continue
                    low, high = (_int_op(qubit, proj) @ state for proj in INT_PROJECTORS[basis])
                    n0, n1 = int(low @ low), int(high @ high)
                    p0 = tables.measure[qubit][s][basis][0]
                    assert type(p0) is Fraction
                    assert p0 == Fraction(n0, n0 + n1) in (0, Fraction(1, 2), 1)
            if tables.bell[s] is not None:
                weights = [int(overlap) ** 2 for overlap in INT_BELL @ state]
                exact = [Fraction(sum(weights[: k + 1]), sum(weights)) for k in range(3)]
                assert all(type(acc) is Fraction for acc in tables.bell[s])
                assert tables.bell[s] == tuple(exact)
                assert set(tables.bell[s]) <= {0, Fraction(1, 2), 1}

    @pytest.mark.parametrize("attack", ALL_ATTACKS)
    def test_zero_probability_branches_are_unselectable(self, attack):
        """A branch of probability 0 has no successor and lies behind a
        threshold of exactly 0.0 or 1.0 (a Bell outcome: between two equal
        thresholds), which no stream uniform in [0, 1) selects."""
        tables = _tables(attack)
        zeros = impossible_bell_3 = 0
        for s, state in enumerate(tables.states):
            for qubit in (0, 1):
                for basis in (0, 1):
                    if tables.measure[qubit][s][basis] is None:
                        continue
                    p0, s0, s1 = tables.measure[qubit][s][basis]
                    low, high = (
                        not (_int_op(qubit, proj) @ state).any() for proj in INT_PROJECTORS[basis]
                    )
                    assert (s0 is None, s1 is None) == (low, high)
                    if low:
                        assert p0 == 0.0
                    if high:
                        assert p0 == 1.0
                    zeros += low + high
            if tables.bell[s] is not None:
                edges = (0.0, *tables.bell[s], 1.0)
                for k, overlap in enumerate(INT_BELL @ state):
                    assert (edges[k] == edges[k + 1]) == (overlap == 0)
                    zeros += overlap == 0
                impossible_bell_3 += tables.bell[s][2] == 1.0
        assert zeros > 0 and impossible_bell_3 > 0

    @pytest.mark.parametrize("attack", ALL_ATTACKS)
    def test_exact_walk_reproduces_the_oracle(self, attack):
        """Walking the tables' raw entries in Fraction arithmetic, apart
        from the oracle's own walk, gives its per-round statistics exactly."""
        tables = _tables(attack)

        def leg(s, bases):
            if not bases:
                return [(Fraction(1), s)]
            return [
                (p / len(bases), t)
                for basis in bases
                for p, _bit, t in _exact_branches(tables, s, QubitId.T, basis)
            ]

        forward = eve_bases(attack, ChannelLeg.FORWARD)
        backward = eve_bases(attack, ChannelLeg.BACKWARD)
        detection = Fraction(0)
        errors = [Fraction(0)] * 4
        for a, prepared in enumerate(tables.prepared):
            for p_forward, s in leg(prepared, forward):
                for basis in MeasBasis:
                    correlated = expected_correlation(LocalUnitary(a), basis)
                    for p_bob, bob_bit, t in _exact_branches(tables, s, QubitId.T, basis):
                        for p_alice, alice_bit, _ in _exact_branches(tables, t, QubitId.H, basis):
                            if (alice_bit == bob_bit) != (correlated is Correlation.CORRELATED):
                                detection += p_forward * p_bob * p_alice / 8
                for b, returned in enumerate(tables.encode[s]):
                    for p_backward, t in leg(returned, backward):
                        edges = (0, *tables.bell[t], 1)
                        p_path = p_forward * p_backward / 16
                        for k in range(4):
                            errors[k ^ a ^ b] += p_path * (edges[k + 1] - edges[k])
        assert detection == control_detection_probability(attack)
        assert dict(enumerate(errors)) == message_error_distribution(attack)

    @pytest.mark.parametrize("attack", ALL_ATTACKS)
    def test_ranked_entries_decide_as_thresholds(self, attack):
        """Each entry of the round lookup, read at the rank _decode_words
        gives a word, decides as the round tables' thresholds do at the
        word's uniform: bit 0 iff r < p0, and the first Bell outcome whose
        threshold exceeds r. Checked along every path of the lookup whose
        draws all share one uniform r, for r at and next to every threshold
        and at 0 and 1 - 2**-53."""
        tables = _tables(attack)
        forward, backward = _bases(attack)
        measure_h, measure_t = tables.measure[QubitId.H], tables.measure[QubitId.T]
        edges, root, _ = _round_lookup(forward, backward, KeyMode.COMBINED)
        uniforms = _uniforms_around(*_thresholds(tables))
        assert uniforms[0] == 0.0 and uniforms[-1] == 1.0 - 2.0**-53
        # The 11 low bits of a word are not part of its uniform.
        words = np.array(
            [int(r * 2**53) << 11 | (0x7FF if i % 2 else 0) for i, r in enumerate(uniforms)],
            dtype=np.uint64,
        )
        ranks = _decode_words(words, edges, 0)[2]
        checked = 0

        def measured(entry, r):
            """(bit, successor) of a table entry at uniform r."""
            p0, s0, s1 = entry
            return (0, s0) if r < p0 else (1, s1)

        def eve(cell, s, bases, r, rank):
            """(subtree, state) after Eve's measurement on a leg, for each of
            her bases; the cell itself when she leaves the leg alone."""
            nonlocal checked
            if not bases:
                return [(cell, s)]
            walked = []
            for basis in bases:
                bit, subtree = cell[basis][rank]
                want_bit, t = measured(measure_t[s][basis], r)
                checked += 1
                assert bit == want_bit
                walked.append((subtree, t))
            return walked

        for r, rank in zip(uniforms, ranks):
            for u_a, prepared in zip(LocalUnitary, tables.prepared):
                for (control, message), s in eve(root[u_a], prepared, forward, r, rank):
                    for basis in MeasBasis:
                        correlated = expected_correlation(u_a, basis) is Correlation.CORRELATED
                        bob_bit, t = measured(measure_t[s][basis], r)
                        alice_bit, _ = measured(measure_h[t][basis], r)
                        detected = (alice_bit == bob_bit) != correlated
                        checked += 1
                        assert control[basis][rank][rank] == _control_entry(
                            detected, basis, bob_bit, alice_bit
                        )
                    for u_b, returned in zip(LocalUnitary, tables.encode[s]):
                        for leaf_row, t in eve(message[u_b], returned, backward, r, rank):
                            checked += 1
                            k = BellOutcome(_bell_rule(tables.bell[t], r))
                            assert leaf_row[rank][1] == _message_outcome(u_a, u_b, k)
        assert checked > 0

    @pytest.mark.parametrize("count", [255, 256])
    def test_ranks_must_fit_in_a_byte(self, count, monkeypatch):
        """A rank is stored in a byte, so the round lookup refuses 256 or
        more distinct threshold edges when it is built."""
        thresholds = [j / 512 for j in range(count)]
        tables = types.SimpleNamespace(
            measure=([[(t, 0, 1), None] for t in thresholds], []),
            bell=[None] * count,
            prepared=(),
            encode=[],
        )
        monkeypatch.setattr(simulate, "_round_tables", lambda forward, backward: tables)
        _round_lookup.cache_clear()
        try:
            if count < 256:
                assert len(_round_lookup((), (), KeyMode.COMBINED)[0]) == count
            else:
                with pytest.raises(OverflowError):
                    _round_lookup((), (), KeyMode.COMBINED)
        finally:
            _round_lookup.cache_clear()

    @pytest.mark.parametrize("key_mode", list(KeyMode))
    @pytest.mark.parametrize("attack", ALL_ATTACKS)
    def test_lookup_entries_equal_the_state_walk(self, attack, key_mode):
        """Every entry of the nested round lookup that a word can reach
        equals the walk through the round tables from Alice's prepared
        state, decided at the word's uniform r as the protocol decides: bit
        0 iff r < p0, the first Bell outcome whose threshold exceeds r, a
        detection iff the bits' correlation differs from the expected one,
        the round's ControlOutcome or MessageOutcome, and the key bytes of
        accumulate_key. The reprs agree too, so an outcome holds enum
        members where the protocol's do. Each entry is checked at the
        first and the last uniform of its rank, which lie next to the
        thresholds, and _decode_words gives that rank to a word of either
        uniform, whatever its 11 low bits. None sits at exactly the ranks no
        word has and at the bases Eve does not use. One node stands for each
        (u_A, state at Bob) and one leaf row for each (u_A, u_B, state at
        Alice), so the lookup holds at most 4 and 16 of them per state,
        however many draws lead there."""
        forward, backward = _bases(attack)
        tables = _tables(attack)
        measure_h, measure_t = tables.measure[QubitId.H], tables.measure[QubitId.T]
        edges, root, key_dtype = _round_lookup(forward, backward, key_mode)
        assert np.dtype(key_dtype).itemsize == key_mode.bits_per_round
        spans = _rank_spans(edges)
        # Every attack has a branch of probability 0, so some rank holds None.
        assert spans and len(spans) < len(edges) + 1
        for rank, span in spans.items():
            # The 11 low bits of a word are not part of its uniform.
            words = np.array([k << 11 | low for k in span for low in (0, 0x7FF)], dtype=np.uint64)
            assert set(_decode_words(words, edges, 0)[2]) == {rank}
        entries = 0

        def by_rank(row, rule):
            """(row[rank], rule(r)) at each reached rank, rule(r) being the
            same at the rank's first and last uniform r, once None is found
            at exactly the other ranks."""
            nonlocal entries
            assert len(row) == len(edges) + 1
            assert {r for r, e in enumerate(row) if e is None} == set(range(len(row))) - set(spans)
            entries += len(spans)
            pairs = []
            for rank, span in spans.items():
                first, last = (rule(Fraction(k, 2**53)) for k in span)
                assert first == last
                pairs.append((row[rank], first))
            return pairs

        def measured(entry):
            """A table entry's measurement at uniform r: (bit, successor),
            bit 0 iff r < p0."""
            p0, s0, s1 = entry
            return lambda r: (0, s0) if r < p0 else (1, s1)

        def leg(entry, s, bases):
            """(entry, state) after Eve's measurement, for each of her
            bases and ranks; (entry, s) when she leaves the leg alone."""
            if not bases:
                return [(entry, s)]
            walked = []
            for basis in MeasBasis:
                if basis not in bases:
                    assert entry[basis] is None
                    continue
                eve = measured(measure_t[s][basis])
                for (bit, after), (want_bit, t) in by_rank(entry[basis], eve):
                    assert bit == want_bit
                    walked.append((after, t))
            return walked

        nodes, leaf_rows = {}, {}
        for u_a, prepared in zip(LocalUnitary, tables.prepared):
            for node, s in leg(root[u_a], prepared, forward):
                nodes.setdefault((u_a, s), set()).add(id(node))
                control, message = node
                for basis in MeasBasis:
                    correlated = expected_correlation(u_a, basis) is Correlation.CORRELATED
                    bob = measured(measure_t[s][basis])
                    for row, (bob_bit, t) in by_rank(control[basis], bob):
                        for entry, (alice_bit, _) in by_rank(row, measured(measure_h[t][basis])):
                            detected = (alice_bit == bob_bit) != correlated
                            want = _control_entry(detected, basis, bob_bit, alice_bit)
                            assert entry == want
                            assert repr(entry) == repr(want)
                for u_b, returned in zip(LocalUnitary, tables.encode[s]):
                    for leaf_row, t in leg(message[u_b], returned, backward):
                        leaf_rows.setdefault((u_a, u_b, t), set()).add(id(leaf_row))
                        bell = functools.partial(_bell_rule, tables.bell[t])
                        for (keys, outcome), k in by_rank(leaf_row, bell):
                            k = BellOutcome(k)
                            want = _message_outcome(u_a, u_b, k)
                            assert outcome == want
                            assert repr(outcome) == repr(want)
                            alice = accumulate_key([], u_a, decode(u_a, k), key_mode)
                            bob = accumulate_key([], decode(u_b, k), u_b, key_mode)
                            assert keys == bytes(alice + bob)
        assert entries > 0
        assert all(len(ids) == 1 for ids in [*nodes.values(), *leaf_rows.values()])
        states = len(tables.states)
        assert len(nodes) <= 4 * states and len(leaf_rows) <= 16 * states

    @staticmethod
    def _refuse_float_kernels(monkeypatch):
        """Make every float kernel raise, and empty the caches built from
        the round tables so that they are built again."""

        def refuse(*args):
            raise AssertionError("a float kernel was called")

        for name, value in list(vars(kernels).items()):
            if inspect.isfunction(value):
                monkeypatch.setattr(kernels, name, refuse)
        _round_tables.cache_clear()
        _round_lookup.cache_clear()
        oracle._round_statistics.cache_clear()

    @pytest.mark.parametrize("attack", ALL_ATTACKS)
    def test_sessions_call_no_float_kernel(self, attack, monkeypatch):
        self._refuse_float_kernels(monkeypatch)
        config = SimConfig(rounds=400, attack=attack, seed=3)
        session = run_session(config, keep_records=True)
        assert session.report.rounds_total > 0

    @pytest.mark.parametrize("attack", ALL_ATTACKS)
    def test_oracle_calls_no_float_kernel(self, attack, monkeypatch):
        self._refuse_float_kernels(monkeypatch)
        assert exact_oracle(attack).detection_prob_per_control_round >= 0
        assert 0 <= abort_probability(attack, KeyCheckPolicy(0.5, 1), 20) <= 1
        assert eve_resolved_bits(attack, KeyMode.SINGLE_ALICE) == 0
        assert len(unitary_outcome_table()) == 4
