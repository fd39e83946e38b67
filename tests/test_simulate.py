"""Harness tests: determinism, accounting, serialization, table rendering."""

import dataclasses
import hashlib
import math
import json
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdkd import _kernels_py as kernels
from qdkd import simulate
from qdkd.adversary import (
    ChannelLeg,
    EveBasisPolicy,
    InterceptResend,
    NoAttack,
    apply_attack,
    eve_bases,
)
from qdkd.errors import ConfigError, DegenerateBranchError
from qdkd.protocol import (
    BellAnnouncement,
    CheckVerdict,
    ControlOutcome,
    ControlVerdict,
    KeyCheckChallenge,
    KeyCheckPolicy,
    KeyMode,
    MessageOutcome,
    RoundMode,
    accumulate_key,
    alice_prepare,
    bob_choose_mode,
    key_check,
    run_control_round,
    run_message_round,
)
from qdkd.oracle import abort_probability, unitary_outcome_table
from qdkd.quantum import BellOutcome, LocalUnitary
from qdkd.simulate import (
    ABORT_CONTROL,
    _binomial_ci,
    _decode_words,
    _round_tables,
    _RoundTables,
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

        alice_key, bob_key = [], []
        for r in records:
            if isinstance(r.outcome, MessageOutcome):
                accumulate_key(alice_key, r.u_a.label, r.outcome.alice_view.label, key_mode)
                accumulate_key(bob_key, r.outcome.bob_view.label, r.outcome.u_b.label, key_mode)
        assert tuple(alice_key) == session.alice_pre_check
        assert tuple(bob_key) == session.bob_pre_check

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
        "leg, control_prob",
        [(ChannelLeg.FORWARD, 0.0), (ChannelLeg.BACKWARD, 0.5)],
    )
    def test_only_kept_sessions_build_round_objects(self, monkeypatch, leg, control_prob):
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

        session = run_session(config)
        assert not built
        assert session.transcript == session.observations == []

        session = run_session(config, keep_records=True)
        intercepted = (
            session.report.rounds_total if leg is ChannelLeg.FORWARD else session.report.message_rounds
        )
        assert built["EveObservation"] == len(session.observations) == intercepted > 0
        assert built["RoundRecord"] == session.report.rounds_total
        assert built["ControlOutcome"] == session.report.control_rounds
        assert built["MessageOutcome"] == session.report.message_rounds


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
        from qdkd.oracle import exact_oracle

        oracle = exact_oracle(attack)
        # control_prob 0: pure message rounds, so forward attacks cannot
        # abort the run and error statistics accumulate freely.
        config = SimConfig(rounds=20_000, control_prob=0.0, check_fraction=0.0,
                           attack=attack, seed=314)
        report = run_simulation(config)
        n = report.message_rounds  # positions within a round are correlated
        pairs = [
            (report.key_error_rate_amplitude_bit, float(oracle.key_error_rate_amplitude_bit)),
            (report.key_error_rate_phase_bit, float(oracle.key_error_rate_phase_bit)),
        ]
        for got, want in pairs:
            se = math.sqrt(want * (1.0 - want) / n)
            assert abs(got - want) <= 4 * se + 1e-12, (attack, got, want)

    @pytest.mark.parametrize("attack", ALL_ATTACKS)
    def test_joint_error_mask_matches_oracle(self, attack):
        # The rate tests pin only the marginals of e = announced ^ u_A ^ u_B;
        # the random-basis {1/2, 1/4, 1/4, 0} and {9/16, 3/16, 3/16, 1/16}
        # share them, so count e per message round against its full law.
        from qdkd.oracle import message_error_distribution

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
        from qdkd.oracle import control_detection_probability

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
        from qdkd.oracle import control_detection_probability

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
        ],
    )
    def test_bad_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            run_simulation(SimConfig(**kwargs))

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
    st.sampled_from(['"', "\\", "\x00\x1f\x7f\n", "é", "\u2028", "\U0001f600"]),
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

    def test_json_roundtrip(self):
        report = run_simulation(SimConfig(rounds=200, seed=6))
        assert parse_report(serialize_report(report, "json")) == report

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
        alice_final, bob_final = check.alice_final, check.bob_final
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
    assert (session.alice_pre_check, session.bob_pre_check) == pre
    assert (session.alice_final, session.bob_final) == final
    assert serialize_report(session.report) == serialize_report(report)
    assert serialize_report(session.report, "csv") == serialize_report(report, "csv")


class TestSessionStream:
    """run_session draws exactly what the scalar round functions draw from
    numpy's Generator, so both give the same sessions."""

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
        bitgen = np.random.PCG64(np.random.SeedSequence(seed))
        lo2, hi2, uni = [], [], []
        for chunk in (1, 7, 64, 4096):
            for decoded, part in zip((lo2, hi2, uni), _decode_words(bitgen.random_raw(chunk))):
                decoded += part
        halves = [two_bits for pair in zip(lo2, hi2) for two_bits in pair]
        generator = np.random.default_rng(np.random.SeedSequence(seed))
        assert halves == [generator.integers(4) for _ in halves]
        generator = np.random.default_rng(np.random.SeedSequence(seed))
        assert [two_bits >> 1 for two_bits in halves] == [generator.integers(2) for _ in halves]
        generator = np.random.default_rng(np.random.SeedSequence(seed))
        assert uni == [generator.random() for _ in uni]

    @pytest.mark.parametrize("control_prob", [0.0, 0.5])
    @pytest.mark.parametrize(
        "attack",
        [
            NoAttack(),
            InterceptResend(ChannelLeg.FORWARD, EveBasisPolicy.RANDOM),
            InterceptResend(ChannelLeg.BACKWARD, EveBasisPolicy.RANDOM),
        ],
    )
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
    """Stream uniforms at and next to each point, plus a few fixed ones; all
    in [0, 1), the range of (w >> 11) * 2**-53."""
    values = {0.0, 0.5, 1.0 - 2.0**-53}
    for p in points:
        values.update((math.nextafter(p, -1.0), p, math.nextafter(p, 2.0)))
    return sorted(v for v in values if 0.0 <= v < 1.0)


def _bell_rule(thresholds, r):
    """The loop's Bell decision: the first outcome whose threshold exceeds r."""
    return next((k for k, acc in enumerate(thresholds) if r < acc), 3)


class TestRoundTables:
    """Every table decision a stream uniform can reach equals the kernel's."""

    # sha-256 of the repr of (amps, measure, encode, bell, prepared) per
    # attack, in ALL_ATTACKS order. repr round-trips every float and keeps the
    # sign of a zero, so a one-ulp change of a threshold or an amplitude, or a
    # renumbered state, changes the digest even when no report does.
    TABLE_DIGESTS = (
        "596e7b6d4e00d7bfbb39276dca692c930b075e43e9c14d60c35b6f522882f479",
        "72817fc752027f2839ff0e47b3f86fa7c96e1d934287fb9650b83b7bfcde82a5",
        "b3f746ac29f7825682c151a254f0127c9675720de13e7c31c0f51fbfa66215d4",
        "2f1b637fbfb0288663da7077423219b08627f441de1f1c25faa9e1be9c17d9c5",
        "15df551d6fb6fe7341fcbbd8e23622a38807c9f688b4bf0e6280c87c07c5672c",
        "361039af7bce7b69b35cbf25fb37845595bb27df7f8f9e116812c80776db27d2",
        "935ad4c37fa565976dded215ec4e49edf0456e51a522a52a3d4f611246b2a428",
    )

    @pytest.mark.parametrize("attack, digest", zip(ALL_ATTACKS, TABLE_DIGESTS))
    def test_tables_are_bit_identical(self, attack, digest):
        tables = _round_tables(
            eve_bases(attack, ChannelLeg.FORWARD), eve_bases(attack, ChannelLeg.BACKWARD)
        )
        text = repr((tables.amps, tables.measure, tables.encode, tables.bell, tables.prepared))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("attack", ALL_ATTACKS)
    def test_decisions_match_kernels(self, attack):
        tables = _round_tables(
            eve_bases(attack, ChannelLeg.FORWARD), eve_bases(attack, ChannelLeg.BACKWARD)
        )
        checked = refused = 0
        for s, amps in enumerate(tables.amps):
            for qubit in (0, 1):
                for basis in (0, 1):
                    entry = tables.measure[qubit][s][basis]
                    if entry is None:
                        continue
                    p0, s0, s1 = entry
                    refused += (s0 is None) + (s1 is None)
                    for r in _uniforms_around(p0):
                        checked += 1
                        bit, t = (0, s0) if r < p0 else (1, s1)
                        assert (bit, tables.amps[t]) == kernels.measure_qubit(amps, qubit, basis, r)
            if tables.encode[s] is not None:
                for u in range(4):
                    assert tables.amps[tables.encode[s][u]] == kernels.apply_u(amps, 1, u)
            if tables.bell[s] is not None:
                refused += kernels.bell_probs(amps)[3] < 1e-12
                for r in _uniforms_around(*tables.bell[s]):
                    checked += 1
                    assert _bell_rule(tables.bell[s], r) == kernels.measure_bell(amps, r)[0]
        assert checked > 0 and refused > 0

    @pytest.mark.parametrize(
        "name, nudge",
        [
            # A certain outcome one ulp short of 1: a draw can select the refused bit 1.
            ("qubit_probs", lambda p0, p1: (min(p0, 1.0 - 2.0**-52), p1)),
            # ... or fall through to a refused Bell outcome 3.
            ("bell_probs", lambda p0, p1, p2, p3: (min(p0, 1.0 - 2.0**-52), p1, p2, p3)),
        ],
    )
    def test_selectable_refused_branch_fails_the_build(self, monkeypatch, name, nudge):
        probs = getattr(kernels, name)
        monkeypatch.setattr(kernels, name, lambda *args: nudge(*probs(*args)))
        with pytest.raises(DegenerateBranchError):
            _RoundTables((), ())

    @pytest.mark.parametrize("name", ["qubit_probs", "bell_probs"])
    def test_certain_branch_at_exactly_one_builds(self, monkeypatch, name):
        # No uniform reaches 1.0, so the refused partner of a branch with
        # probability exactly 1 stays unselectable.
        probs = getattr(kernels, name)
        monkeypatch.setattr(kernels, name, lambda *args: tuple(min(p, 1.0) for p in probs(*args)))
        _RoundTables((), ())
