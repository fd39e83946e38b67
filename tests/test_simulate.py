"""Harness tests: determinism, accounting, serialization, table rendering."""

import bisect
import csv
import dataclasses
import functools
import hashlib
import io
import inspect
import itertools
import math
import json
import numbers
import tracemalloc
import types
from collections import Counter, defaultdict
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ALL_ATTACKS,
    BACKWARD_R,
    BACKWARD_X,
    BACKWARD_Z,
    FORWARD_R,
    FORWARD_X,
    FORWARD_Z,
    ScriptedRng,
)
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
from qdkd.cli import render_unitary_table
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
    _binomial_ci,
    _code_passes,
    _code_records,
    _code_table,
    _compile_codes,
    _edge,
    _round_codes,
    _round_ranks,
    _round_tables,
    ABORT_KEY_CHECK,
    RoundRecord,
    SimConfig,
    SimulationReport,
    derive_seed,
    parse_report,
    run_batch,
    run_session,
    run_simulation,
    serialize_report,
)


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
            accumulate_key(alice_key, r.u_a, r.outcome.alice_view, key_mode)
            accumulate_key(bob_key, r.outcome.bob_view, r.outcome.u_b, key_mode)
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
            # round, and in their second after one message round: each seed
            # is the first seed >= 0 whose _reference_session does so.
            pytest.param(SimConfig(rounds=60, attack=FORWARD_Z, seed=0), 1, 0, id="detected-1st"),
            pytest.param(SimConfig(rounds=60, attack=FORWARD_Z, seed=42), 2, 1, id="detected-2nd"),
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

    @pytest.mark.parametrize("key_mode", list(KeyMode))
    @pytest.mark.parametrize("attack", ALL_ATTACKS)
    def test_error_rates_are_those_of_the_keys(self, monkeypatch, attack, key_mode):
        """The report counts its error rates from the message rounds' packed
        key bytes, a round's two XORed, in blocks of _TALLY_BLOCK rounds;
        they equal the rates of the keys unpacked from those bytes, at
        control_prob 0 and 1/2, in one block or several, and are 0 for an
        empty key."""
        rates = []
        for control_prob in (0.0, 0.5):
            config = SimConfig(rounds=3000, control_prob=control_prob, key_mode=key_mode,
                               attack=attack, seed=11)
            session = run_session(config)
            report = session.report
            rates.append((report.key_error_rate_overall, report.key_error_rate_amplitude_bit,
                          report.key_error_rate_phase_bit))
            assert rates[-1] == _reference_error_rates(session.alice_pre_check, session.bob_pre_check)
            with monkeypatch.context() as patch:
                patch.setattr(simulate, "_TALLY_BLOCK", 7)
                assert run_session(config).report == report
        # With no control round to end it, every attack garbles the key; its
        # basis decides at which positions.
        assert (rates[0][0] > 0) == (attack != NoAttack())
        empty = run_session(SimConfig(rounds=50, control_prob=1.0, key_mode=key_mode, attack=attack))
        assert empty.alice_pre_check == b""
        report = empty.report
        assert report.key_error_rate_overall == report.key_error_rate_amplitude_bit == 0.0
        assert report.key_error_rate_phase_bit == 0.0 == _reference_error_rates(b"", b"")[2]

    def test_tally_fields_cannot_carry(self, monkeypatch):
        """Each of _TALLY's three fields, its largest value per row summed
        over _TALLY_BLOCK rows, fits in the field, and nothing lies above
        the fields; the pass row counts 1 in the third field alone. Blocks
        that split a run of control rows count the report of one block."""
        width = simulate._TALLY_FIELD
        tally = simulate._TALLY
        for shift in (0, width, 2 * width):
            largest = int((tally >> shift & (1 << width) - 1).max())
            assert 0 < largest and largest * simulate._TALLY_BLOCK < 1 << width
        assert not (tally >> 3 * width).any()
        assert tally[simulate._PASS_ROW] == 1 << 2 * width
        assert not (tally[: simulate._PASS_ROW] >> 2 * width).any()

        block = 7
        config = SimConfig(rounds=600, control_prob=0.5, attack=BACKWARD_R, seed=5)
        session = run_session(config, keep_records=True)
        control = [isinstance(r.outcome, ControlOutcome) for r in session.records]
        assert any(control[i - 1] and control[i] for i in range(block, len(control), block))
        assert serialize_report(session.report) == serialize_report(_reference_session(config)[0])
        with monkeypatch.context() as patch:
            patch.setattr(simulate, "_TALLY_BLOCK", block)
            assert run_session(config).report == session.report

    @pytest.mark.parametrize(
        "leg, control_prob",
        [(ChannelLeg.FORWARD, 0.0), (ChannelLeg.BACKWARD, 0.5)],
    )
    def test_only_kept_sessions_build_round_objects(self, monkeypatch, leg, control_prob):
        """The round outcomes are built with the round tables' paths, as
        many at 300 rounds as at 3,000, and no session builds one;
        keep_records builds only the records and Eve's observations, and
        each record holds an outcome of the compile. Only a session that
        keeps records builds the code records table."""
        built = Counter()
        for module, name in (
            (simulate, "EveObservation"),
            (oracle, "ControlOutcome"),
            (oracle, "MessageOutcome"),
            (simulate, "RoundRecord"),
        ):

            def counted(*args, _cls=getattr(module, name), _name=name, **kwargs):
                built[_name] += 1
                return _cls(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        config = SimConfig(
            rounds=300,
            control_prob=control_prob,
            attack=InterceptResend(leg, EveBasisPolicy.RANDOM),
            seed=0,
        )
        per_build = []
        for rounds in (300, 3000):
            for cache in (_round_tables, _compile_codes, _code_table, _code_records):
                cache.cache_clear()
            built.clear()
            run_session(dataclasses.replace(config, rounds=rounds))
            per_build.append((built["ControlOutcome"], built["MessageOutcome"]))
        assert per_build[0] == per_build[1] and min(per_build[0]) > 0

        built.clear()
        session = run_session(config)
        assert not built
        assert session.transcript == session.observations == []
        assert _code_records.cache_info().currsize == 0

        session = run_session(config, keep_records=True)
        assert _code_records.cache_info().currsize == 1
        intercepted = (
            session.report.rounds_total if leg is ChannelLeg.FORWARD else session.report.message_rounds
        )
        assert built["EveObservation"] == len(session.observations) == intercepted > 0
        assert built["RoundRecord"] == session.report.rounds_total
        assert built["ControlOutcome"] == built["MessageOutcome"] == 0
        entries = _compile_codes(*_bases(config.attack), config.key_mode)[3]
        held = {id(outcome) for _, outcome, _, _ in entries}
        assert all(id(record.outcome) in held for record in session.records)

    @pytest.mark.parametrize("fraction", [0.1, 0.01, 0.0])
    def test_report_only_sessions_leave_the_check_unbuilt(self, fraction):
        """A report-only session's key check only draws and counts: the
        pre-check keys, and the check's keys, sorted positions, samples and
        final keys stay unbuilt until read. Then the pre-check keys equal
        those of the scalar rounds, the check's keys are read-only uint8
        views of them, and the rest equals the public key_check on them,
        with the Generator of the stream at word 2**100."""
        config = SimConfig(rounds=3000, check_fraction=fraction, attack=BACKWARD_Z, seed=4)
        session = run_session(config)
        check = session.check
        report = session.report
        assert report.final_key_length == 4 * report.message_rounds - len(check.drawn)
        lazy = ("_keys", "positions", "_finals", "alice_sample", "bob_sample")
        assert not set(lazy) & set(vars(check))
        assert "keys" not in vars(session.pre_check)
        # The message rounds' rows are gathered from all the rows for the
        # check's flags only if it drew a position.
        assert report.rounds_total > report.message_rounds
        gathered = len(session.pre_check._rows) == report.message_rounds
        assert gathered == (len(check.drawn) > 0)

        keys = (check.alice_bits, check.bob_bits)
        assert "keys" in vars(session.pre_check)
        assert not {"_rows", "_unpack"} & set(vars(session.pre_check))
        pre = (session.alice_pre_check, session.bob_pre_check)
        assert tuple(map(tuple, pre)) == _reference_session(config)[4]
        for bits, key in zip(keys, pre):
            assert type(key) is bytes
            assert bits.dtype == np.uint8 and not bits.flags.writeable
            assert bits.tobytes() == key and np.shares_memory(bits, np.frombuffer(key, np.uint8))

        bitgen = np.random.PCG64(np.random.SeedSequence(config.seed, spawn_key=(0,)))
        policy = KeyCheckPolicy(config.check_fraction, config.mismatch_threshold)
        want = key_check(
            session.alice_pre_check,
            session.bob_pre_check,
            policy,
            np.random.Generator(bitgen.advance(2**100)),
        )
        assert (session.alice_final, session.bob_final) == (want.alice_final, want.bob_final)
        assert np.array_equal(check.positions, want.positions)
        assert (check.alice_sample, check.bob_sample) == (want.alice_sample, want.bob_sample)
        assert check.transcript == want.transcript
        assert (check.verdict, check.mismatches) == (want.verdict, want.mismatches)
        assert set(lazy) <= set(vars(check))
        with pytest.raises(dataclasses.FrozenInstanceError):
            check.verdict = CheckVerdict.ACCEPT

    @pytest.mark.parametrize(
        "config",
        [
            # The first seed >= 0 whose detection ends its session after a
            # passing control round and a message round.
            pytest.param(SimConfig(rounds=3000, attack=FORWARD_Z, seed=5), id="detected"),
            pytest.param(
                SimConfig(rounds=3000, check_fraction=0.0, attack=BACKWARD_Z, seed=4), id="unchecked"
            ),
        ],
    )
    def test_report_only_sessions_gather_no_message_rows(self, config):
        """A session that a detection ends, or whose check draws no
        position, never gathers its message rounds' rows from its control
        rounds' pass rows. Its keys, when read, are unpacked from the rows
        it then gathers and equal the scalar rounds' keys."""
        session = run_session(config)
        report = session.report
        assert report.control_rounds > report.detections and report.message_rounds > 0
        assert (report.abort_cause == ABORT_CONTROL) == (session.check is None)
        assert session.check is None or not len(session.check.drawn)
        assert "keys" not in vars(session.pre_check)
        assert len(session.pre_check._rows) == report.rounds_total - report.detections
        pre = (session.alice_pre_check, session.bob_pre_check)
        assert tuple(map(tuple, pre)) == _reference_session(config)[4]
        assert (session.alice_final, session.bob_final) == pre
        assert not {"_rows", "_unpack"} & set(vars(session.pre_check))

    def test_equality_and_repr_cover_the_final_keys(self):
        """Two sessions compare on all four keys, the final ones read from
        the check, and repr shows them; they are read-only."""
        config = SimConfig(rounds=40, seed=3)
        session = run_session(config)
        assert session == run_session(config)
        assert repr(session) == repr(run_session(config))
        unchecked = dataclasses.replace(session, check=None)
        assert unchecked.alice_final == session.alice_pre_check != session.alice_final
        assert unchecked.bob_final == session.bob_pre_check != session.bob_final
        assert unchecked != session
        for name in ("alice_pre_check", "bob_pre_check", "alice_final", "bob_final"):
            assert f"{name}={getattr(session, name)!r}" in repr(session)
        with pytest.raises(AttributeError):
            session.alice_final = b""

    def test_report_only_memory_per_key_bit(self):
        # The key check builds no Python object per bit, so the traced peak
        # stays near 9.3 bytes per pre-check key bit: 8 of them are the
        # arange(length) that numpy's choice shuffles the tail of, 0.8 the
        # int64 draw of a tenth of the positions, copied out of it, and 0.5
        # the packed joint keys, two bytes per message round of 4 key bits.
        # The last chunk's codes and rows are freed before the check. The
        # pre-check keys, the final keys, and the int64 index of the
        # unchecked positions the final keys are gathered at, are built
        # only when read, and a report-only session reads none of them. A
        # tuple of the bits alone would take 8 per bit for each key.
        config = SimConfig(rounds=200_000, control_prob=0.0, attack=BACKWARD_Z, seed=1)
        report, peak = _traced_peak(config)
        key_bits = 4 * report.message_rounds
        assert key_bits == 800_000
        assert peak <= 16 * key_bits, f"traced peak {peak / key_bits:.1f} bytes per key bit"

    def test_report_only_memory_per_key_bit_with_control_rounds(self):
        # At control_prob 1/2 a session holds a row for every round, a
        # control round's pass row too: 2 bytes per round, 1 per key bit,
        # through the check's draw, where numpy's arange(length) still sets
        # the peak. The message rounds' rows are gathered, 0.5 bytes per
        # key bit more, only after the draw. The traced peak is 9.83 bytes
        # per key bit (9.32 at control_prob 0, where the rows hold no pass
        # row).
        config = SimConfig(rounds=200_000, control_prob=0.5, attack=BACKWARD_Z, seed=1)
        report, peak = _traced_peak(config)
        key_bits = 4 * report.message_rounds
        assert key_bits == 399_108
        assert peak <= 16 * key_bits, f"traced peak {peak / key_bits:.1f} bytes per key bit"


def _traced_peak(config):
    """(report, traced peak in bytes) of a report-only session, its round
    tables built beforehand."""
    run_simulation(dataclasses.replace(config, rounds=100))  # the round tables
    tracemalloc.start()
    try:
        report = run_simulation(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return report, peak


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
        # An honest report depends only on the number of control rounds, so
        # two seeds share it with probability about 4% at 500 rounds (these
        # two do). Their 980-bit keys coincide with probability 2**-980.
        base = SimConfig(rounds=500, seed=123)
        other = dataclasses.replace(base, seed=124)
        assert run_session(base).alice_pre_check != run_session(other).alice_pre_check

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
            (BACKWARD_R, KeyMode.SINGLE_ALICE, Fraction(67, 152)),
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

    # A session stops at its first detection, so at control_prob 1 and a
    # per-round rate d its control count K is geometric, P(K = k) = d (1 -
    # d)**(k - 1), and a report that detects prints 1 in K: detection_prob is
    # 1/K. Exact sums over K, uncensored, at d = 1/4 (every forward attack's
    # rate) and at smaller rates.
    @pytest.mark.parametrize(
        "d, mean, coverage, covered",
        [
            (Fraction(1, 4), 0.462, 0.994, (1, 18)),
            (Fraction(1, 8), 0.297, 0.871, (2, 41)),
            (Fraction(1, 16), 0.185, 0.875, (3, 86)),
        ],
    )
    def test_detection_prob_under_the_stopping_rule(self, d, mean, coverage, covered):
        """E[1/K] is -d ln d / (1 - d), not d: 0.462 at d = 1/4, 1.85 times
        the rate, which pooled counts (detections over control rounds summed
        over sessions) estimate instead. The Wilson interval of 1 in K
        covers d only for K in an interval of counts, with probability
        0.994 at d = 1/4 and below the 0.95 it names at 1/8 and 1/16."""
        terms = 1000  # the tail past it is below 2**-80 at d = 1/16
        law = [d * (1 - d) ** (k - 1) for k in range(1, terms + 1)]
        expected = sum(p / k for k, p in enumerate(law, 1))
        tail = (1 - d) ** terms
        closed = -float(d) * math.log(d) / (1 - float(d))
        assert abs(closed - float(expected)) <= float(tail) + 1e-15
        assert round(closed, 3) == mean
        if d == Fraction(1, 4):
            assert round(closed / float(d), 2) == 1.85
        intervals = [_binomial_ci(1, k)[1:] for k in range(1, terms + 1)]
        hits = [k for k, (low, high) in enumerate(intervals, 1) if low <= d <= high]
        low, high = covered
        assert hits == list(range(low, high + 1))
        exact = sum(law[k - 1] for k in hits)
        assert exact == (1 - d) ** (low - 1) - (1 - d) ** high
        assert round(float(exact), 3) == coverage

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
        # A forward attack's session ends at a detection; an honest one runs
        # all its rounds and the key check, which count them: a narrow numpy
        # integer's arithmetic would wrap.
        for attack, rounds in ((FORWARD_R, np.int64(120)), (NoAttack(), np.uint8(200))):
            builtin = SimConfig(
                rounds=int(rounds), control_prob=0.5, mismatch_threshold=2, attack=attack,
                seed=2**63 + 5,
            )
            numpy_typed = SimConfig(
                rounds=rounds,
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
        the foot of that window decides it otherwise. Its seed is the first
        seed >= 0 whose 400 rounds draw such a mode uniform (w1's uniform)."""

        def report(control_prob):
            config = SimConfig(rounds=400, control_prob=control_prob, seed=116943)
            return serialize_report(run_simulation(config))

        want = report(0.5)
        assert report(np.float32(0.5)) == report(np.float16(0.5)) == want
        assert report(0.5 - 2**-26) != want
        # bob_choose_mode, the scalar reference, compares the same way.
        _assert_matches_reference(SimConfig(rounds=400, control_prob=np.float32(0.5), seed=116943))

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
    """The field changes of a malformed report, whose JSON the test builds,
    so that no session runs while the tests are collected."""
    return pytest.param(changes, id=",".join(f"{k}={v!r}" for k, v in changes.items()))


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
            _bad_report(rounds_total=-5, detection_prob=math.nan),
            _bad_report(rounds_total=-5),
            _bad_report(final_key_length=-1),
            _bad_report(detection_prob=math.nan),
            _bad_report(key_error_rate_overall=math.inf),
            _bad_report(capacity_bits_per_message_round=-math.inf),
            "{}",
            None,
        ],
    )
    def test_malformed_report_rejected(self, data):
        if isinstance(data, dict):
            data = _report_json(**data)
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


def _uniform(word):
    """A stream word's uniform (w >> 11) * 2**-53, Generator.random() of it."""
    return (word >> 11) * 2.0**-53


def _reference_round(attack, control_prob, words, index, observations):
    """One round by the public scalar round functions, each served the
    draws of its slots of the round's four words (see the qdkd.simulate
    docstring) by a ScriptedRng: alice_prepare, Eve on the forward leg,
    bob_choose_mode, then run_control_round, or run_message_round with Eve
    on the backward leg. A basis is the top bit of its 2-bit field.
    Appends Eve's observations to observations; returns the RoundRecord."""
    w0, w1, w2, w3 = map(int, words)

    def channel(state, leg, basis_field, word):
        slots = ScriptedRng([basis_field >> 1], [_uniform(word)])
        state, obs = apply_attack(state, leg, attack, slots, index)
        if obs is not None:
            observations.append(obs)
        return state

    state, u_a = alice_prepare(ScriptedRng([w0 & 3]))
    state = channel(state, ChannelLeg.FORWARD, w0 >> 2 & 3, w0)
    if bob_choose_mode(control_prob, ScriptedRng(randoms=[_uniform(w1)])) is RoundMode.CONTROL:
        slots = ScriptedRng([w1 >> 1 & 1], [_uniform(w2), _uniform(w3)])
        outcome = run_control_round(u_a, state, slots)
    else:
        slots = ScriptedRng([w1 & 3], [_uniform(w3)])
        backward = functools.partial(
            channel, leg=ChannelLeg.BACKWARD, basis_field=w1 >> 2 & 3, word=w2
        )
        outcome = run_message_round(u_a, state, slots, backward)
    return RoundRecord(index, u_a, outcome)


def _reference_session(config):
    """One session of _reference_rounds, round i reading words 4i to 4i + 3
    of the PCG64 of the protocol seed sequence: the session loop as it was
    before the round tables. The key check draws from a second PCG64 of that
    seed sequence, advanced 2**100 words. Returns (report, records,
    transcript, observations, pre-check keys, final keys)."""
    proto_ss = np.random.SeedSequence(config.seed).spawn(2)[0]
    words = np.random.PCG64(proto_ss).random_raw(4 * config.rounds).reshape(-1, 4)
    transcript, observations, records = [], [], []
    detections = 0
    aborted = False
    abort_cause = None

    for index, round_words in enumerate(words):
        record = _reference_round(
            config.attack, config.control_prob, round_words, index, observations
        )
        records.append(record)
        outcome = record.outcome
        transcript.extend(outcome.transcript)
        if isinstance(outcome, ControlOutcome) and outcome.verdict is ControlVerdict.EVE_DETECTED:
            detections += 1
            aborted = True
            abort_cause = ABORT_CONTROL
            break

    control_rounds = sum(isinstance(r.outcome, ControlOutcome) for r in records)
    message_rounds = len(records) - control_rounds
    alice_pre, bob_pre = map(tuple, _keys_from_records(records, config.key_mode))
    overall, amp_rate, phase_rate = _reference_error_rates(alice_pre, bob_pre)
    checked = 0
    alice_final, bob_final = alice_pre, bob_pre
    if not aborted:
        policy = KeyCheckPolicy(config.check_fraction, config.mismatch_threshold)
        check_rng = np.random.Generator(np.random.PCG64(proto_ss).advance(2**100))
        check = key_check(alice_pre, bob_pre, policy, check_rng)
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
# No attack, and the random policies, which also read Eve's basis draws
# from bits 2-3 of w0 or w1.
REFILL_ATTACKS = [NoAttack(), FORWARD_R, BACKWARD_R]


def _round_words(words):
    """Single words as rounds whose four slots each hold that word."""
    return np.repeat(np.asarray(words, dtype=np.uint64), 4)


def _code_digits(code, radix):
    """(f0, r0, f1, message, r2, r3) of a round code, read off the layout
    of the qdkd.simulate docstring, (f0 + 16 r0) + 16R (f1 + 16 message) +
    512R (r2 + R r3) with R = radix, once the code is found to lie in
    range(512 * R**3)."""
    assert 0 <= code < 512 * radix**3
    high, low = divmod(code, 16 * radix)
    r0, f0 = divmod(low, 16)
    ranks, mode = divmod(high, 32)
    message, f1 = divmod(mode, 16)
    r3, r2 = divmod(ranks, radix)
    return f0, r0, f1, message, r2, r3


def _code_at(radix, f0, r0, f1, message, r2, r3):
    """The round code of the given digits, by the same layout."""
    return f0 + 16 * r0 + 16 * radix * (f1 + 16 * message) + 512 * radix * (r2 + radix * r3)


def _codes(words, edges, control_edge):
    """The round codes of whole rounds' words, as Python ints, coded in
    chunks of at most _MAX_CHUNK rounds, the largest run_session codes,
    each plus the offset that run_session reads the code tables from:
    the flag's place at control edge 0, where no pass holds the flag,
    else 0."""
    words = np.asarray(words, dtype=np.uint64)
    passes, weights, offset = _code_passes(tuple(edges), control_edge)
    size = 4 * simulate._MAX_CHUNK
    return [
        int(code) + offset
        for start in range(0, len(words), size)
        for code in _round_codes(words[start : start + size], passes, weights)
    ]


def _chunk_sizes(rounds, first=simulate._FIRST_CHUNK):
    """The chunks, in rounds, that run_session codes a session of this many
    rounds in when no round detects: by default _FIRST_CHUNK rounds,
    growing _CHUNK_GROWTH times over up to the cap of _MAX_CHUNK, which
    they reach exactly, as _MAX_CHUNK is _FIRST_CHUNK times a power of
    _CHUNK_GROWTH: 16, 64, 256 and 1,024 rounds, then 4,096 at a time.
    With first=_MAX_CHUNK, 4,096 at a time from the start."""
    sizes, chunk = [], first
    while sum(sizes) < rounds:
        sizes.append(min(chunk, rounds - sum(sizes)))
        chunk = min(simulate._CHUNK_GROWTH * chunk, simulate._MAX_CHUNK)
    return sizes


# The chunks before the first one of _MAX_CHUNK rounds: 16, 64, 256, 1,024.
GROWING_CHUNKS = _chunk_sizes(simulate._MAX_CHUNK)[:-1]
# Rounds that end in the second chunk of _MAX_CHUNK rounds, which starts at
# round sum(GROWING_CHUNKS) + _MAX_CHUNK.
PAST_THE_CAP = 2 * simulate._MAX_CHUNK + 500
# The chunk sizes the code is checked at: 1 round, 7 rounds, which divide
# no chunk, and every chunk size of the schedule up to the cap.
CHUNK_SIZES = (1, 7, *GROWING_CHUNKS, simulate._MAX_CHUNK)


def _first_chunk(attack, control_prob):
    """The first chunk run_session codes: _FIRST_CHUNK rounds when a round
    can detect, which only a control round under a forward attack can,
    else _MAX_CHUNK."""
    can_detect = bool(eve_bases(attack, ChannelLeg.FORWARD)) and control_prob > 0
    return simulate._FIRST_CHUNK if can_detect else simulate._MAX_CHUNK


# The multiplier of PCG64's 128-bit LCG.
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _pcg64_serving(word):
    """A PCG64 whose next raw word is word: its LCG steps to the state
    whose high half is 0 and whose low half is word, and its XSL-RR output
    of that state rotates by 0 and is high ^ low."""
    bitgen = np.random.PCG64()
    inc = 1
    state = (word - inc) * pow(_PCG64_MULTIPLIER, -1, 2**128) % 2**128
    bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                    "has_uint32": 0, "uinteger": 0}
    return bitgen


def _ranked_ks(edges):
    """The k = word >> 11 either side of and at each edge, and the extreme
    k 0 and 2**53 - 1."""
    return sorted({0, 2**53 - 1, *(k + d for k in edges for d in (-1, 0, 1) if k + d < 2**53)})


def _code_columns(words, edges, control_edge):
    """(f0, r0, f1, message, r2, r3), each a list over the rounds of
    whole rounds' words, from the digits of their round codes."""
    radix = len(edges) + 1
    digits = [_code_digits(code, radix) for code in _codes(words, edges, control_edge)]
    return tuple(map(list, zip(*digits)))


def _word_ranks(words, edges):
    """The rank the round code gives each word, read in every ranked slot:
    round j holds words j to j + 3, cyclically, so each slot ranks every
    word and a digit read from the wrong slot shows."""
    words = list(words)
    rounds = [words[(j + slot) % len(words)] for j in range(len(words)) for slot in range(4)]
    _, r0, _, _, r2, r3 = _code_columns(rounds, edges, 0)
    assert r2 == r0[2:] + r0[:2] and r3 == r0[3:] + r0[:3]
    return r0


class TestSessionStream:
    """run_session reads the draws that _reference_round serves the scalar
    round functions from each round's four words, so both give the same
    sessions, unless a draw hits one of FLOAT_OFF_UNIFORMS (probability at
    most 2**-52 per draw)."""

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
    def test_code_digits_equal_generator_draws(self, seed):
        """Every digit of a round's code is read off its slot, in every
        chunk size the session codes: the fields are the low 4 bits of w0
        and w1, and the ranks of w0, w2 and w3 and the message flag of w1
        decide r < t for the word's uniform r, which is Generator.random()
        of that word and _uniform's, for every table threshold t and every
        control_prob in CONTROL_PROB_EDGES. The edges are the thresholds'
        ceilings that split the words, and rank <= _rank_bound(t) decides
        r < t, thresholds of exactly 0 and 1 included. The passes and the
        codes are np.uint64 and the weights np.uint16, so numpy 1.x cannot
        promote the code to float64."""
        bitgen = np.random.PCG64(np.random.SeedSequence(seed))
        chunks = [bitgen.random_raw(4 * rounds) for rounds in CHUNK_SIZES]
        words = np.concatenate(chunks).tolist()
        generator = np.random.default_rng(np.random.SeedSequence(seed))
        uniforms = np.array([generator.random() for _ in words])
        assert uniforms.tolist() == [_uniform(w) for w in words]
        kinds = set()
        for attack in ALL_ATTACKS:
            edges = _code_table(*_bases(attack), KeyMode.COMBINED)[0]
            thresholds = _thresholds(_tables(attack))
            ceilings = {math.ceil(t * 2**53) for t in thresholds}
            assert all(type(e) is int for e in edges)
            assert list(edges) == sorted(c for c in ceilings if 0 < c < 2**53)
            radix = len(edges) + 1
            for control_prob in CONTROL_PROB_EDGES:
                passes, weights, offset = _code_passes(edges, _edge(control_prob))
                assert all(p.dtype == np.uint64 for p in passes)
                assert all(w.dtype == np.uint16 for w in weights)
                codes = np.concatenate([_round_codes(c, passes, weights) for c in chunks])
                assert codes.dtype == np.uint64
                field0, r0, field1, message, r2, r3 = map(
                    np.array, zip(*(_code_digits(int(code) + offset, radix) for code in codes))
                )
                for t in thresholds:
                    j = _rank_bound(edges, t)
                    kinds.add({-1: "below none", len(edges): "below all"}.get(j, "edge"))
                    # t equals its float, so the fast float comparison is exact.
                    assert t == float(t)
                    for slot, rank in zip((0, 2, 3), (r0, r2, r3)):
                        assert ((rank <= j) == (uniforms[slot::4] < float(t))).all()
                assert (message == 0).tolist() == (uniforms[1::4] < control_prob).tolist()
        assert kinds == {"below none", "edge", "below all"}
        # The fields do not depend on the edges: the last code stands for all.
        assert field0.tolist() == [w & 15 for w in words[0::4]]
        assert field1.tolist() == [w & 15 for w in words[1::4]]

    @pytest.mark.parametrize(
        "edges",
        [
            (),
            (1, 2**40 + 7, 2**40 + 8, 2**52 + 3, 2**53 - 1),
            (*range(1, 255), 2**53 - 1),
        ],
        ids=["no-edges", "adjacent-pair", "255-edges"],
    )
    def test_rank_sums_every_edge(self, edges):
        """The rank is the number of edges at or below k, summed over all of
        them as bisect_right counts them, in every chunk size the session
        codes; a logical or of the passes would stop at 1. The edges are
        synthetic: none, as thresholds of only 0 and 1 give, an adjacent
        pair e, e + 1 among the extreme edges 1 and 2**53 - 1, and 255
        edges, more than a code table takes, whose top rank 255 would
        overflow a digit's byte once shifted into it. Past 4 edges no round
        code exists (test_round_codes_at_every_radix), so the rank is
        checked alone, one pass row per edge."""
        ks = _ranked_ks(edges)
        # The 11 low bits of a word are not part of its uniform.
        words = np.array([k << 11 | low for k in ks for low in (0, 0x7FF)], np.uint64)
        size = 4 * simulate._MAX_CHUNK
        # Pass rows in word units: k >= e exactly when word > e * 2**11 - 1.
        rows = [np.full(size, (e << 11) - 1, np.uint64) for e in edges or (2**53,)]
        rng = np.random.default_rng(7)
        for chunk in (*(words[rng.integers(len(words), size=4 * n)] for n in CHUNK_SIZES), words):
            rank = _round_ranks(chunk, rows)
            assert rank.tolist() == [bisect.bisect_right(edges, w >> 11) for w in chunk.tolist()]
        assert rank.max() == len(edges)

    @pytest.mark.parametrize(
        "edges",
        [(), (2**52,), (2**40 + 7, 2**40 + 8), (1, 2**52 + 3, 2**53 - 1),
         (1, 2**40 + 7, 2**40 + 8, 2**53 - 1)],
        ids=lambda edges: f"R={len(edges) + 1}",
    )
    def test_round_codes_at_every_radix(self, edges):
        """At every radix R the code table allows, 1 to 5, each word's rank
        read back from the code's digits in every slot is the number of
        edges at or below its k, in every chunk size the session codes; the
        lowest code is 0 and the top one 512 R**3 - 1, each of whose four
        uint16 lanes adds its most. Past R = 5 a code could exceed 2**16
        and carry out of its lane, which _compile_codes refuses."""
        radix = len(edges) + 1
        words = [k << 11 | low for k in _ranked_ks(edges) for low in (0, 0x7FF)]
        rng = np.random.default_rng(7)
        for rounds in CHUNK_SIZES:
            chunk = [words[i] for i in rng.integers(len(words), size=rounds)]
            assert _word_ranks(chunk, edges) == [bisect.bisect_right(edges, w >> 11) for w in chunk]
        rank = _word_ranks(words, edges)
        assert rank == [bisect.bisect_right(edges, w >> 11) for w in words]
        assert max(rank) == len(edges)
        top = _round_words([2**64 - 1])
        assert _codes(top, edges, 0) == [512 * radix**3 - 1]
        assert _codes(np.zeros(4, np.uint64), edges, 1) == [0]
        codes = math.prod(r or radix for _, _, r in simulate._DIGITS)
        assert codes == 512 * radix**3 <= simulate._CODE_LIMIT

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
        words = _round_words([k << 11 for k in ks])
        edges = _code_table((), (), KeyMode.COMBINED)[0]
        message = _code_columns(words, edges, edge)[3]
        assert [m == 0 for m in message] == [k * 2.0**-53 < exact for k in ks]

    def test_every_round_reads_four_words(self, monkeypatch):
        """A round reads exactly 4 words, whatever it draws: under every
        attack and at control_prob 0, 1/2 and 1, a session that runs all
        its R rounds reads 4R words, in the chunks of _chunk_sizes(R,
        _first_chunk(...)), which span the growing chunks, where a round
        can detect, and two chunks at the _MAX_CHUNK-round cap, and its key
        check starts at word 2**100. The
        reference reads round i from words 4i to 4i + 3, so a session equal
        to it reads those words too."""
        reads = []

        class CountedPCG64(np.random.PCG64):
            def random_raw(self, size=None, output=True):
                reads.append(size)
                return super().random_raw(size, output)

            def advance(self, delta):
                reads.append(delta)
                return super().advance(delta)

        monkeypatch.setattr(np.random, "PCG64", CountedPCG64)
        full = set()
        for attack in ALL_ATTACKS:
            for control_prob in (0.0, 0.5, 1.0):
                for rounds in (0, 1, 17, PAST_THE_CAP):
                    reads.clear()
                    config = SimConfig(rounds=rounds, control_prob=control_prob, attack=attack)
                    if run_simulation(config).abort_cause == ABORT_CONTROL:
                        continue
                    full.add((attack, rounds))
                    *chunks, advanced = reads
                    first = _first_chunk(attack, control_prob)
                    assert chunks == [4 * size for size in _chunk_sizes(rounds, first)]
                    assert advanced == 2**100 - 4 * rounds
        assert {(attack, PAST_THE_CAP) for attack in ALL_ATTACKS} <= full
        sizes = _chunk_sizes(PAST_THE_CAP)
        assert sizes[:-2] == GROWING_CHUNKS == [16, 64, 256, 1024]
        assert sizes[-2] == simulate._MAX_CHUNK > sizes[-1]

    def test_chunk_schedule(self, monkeypatch):
        """A session that no round can end reads whole chunks of _MAX_CHUNK
        rounds from its first read: no attack and the backward attacks at
        every control_prob, and every attack at control_prob 0. A forward
        attack at control_prob 1/2 keeps the growing chunks 16, 64, 256,
        1,024 and then 4,096 rounds, here on a stream whose every w1 has
        its top bit set, so that every round is a message round and the
        session runs all its rounds."""
        reads = []
        crafted = []

        class CountedPCG64(np.random.PCG64):
            def random_raw(self, size=None, output=True):
                reads.append(size)
                if crafted:
                    start = getattr(self, "read", 0)
                    self.read = start + size
                    return crafted[0][start : start + size].copy()
                return super().random_raw(size, output)

        monkeypatch.setattr(np.random, "PCG64", CountedPCG64)
        rounds = PAST_THE_CAP
        full = [4 * simulate._MAX_CHUNK] * 2 + [4 * 500]
        quiet = [(attack, cp) for attack in (NoAttack(), BACKWARD_Z, BACKWARD_X, BACKWARD_R)
                 for cp in (0.5, 1.0)]
        quiet += [(attack, 0.0) for attack in ALL_ATTACKS]
        for attack, control_prob in quiet:
            reads.clear()
            run_simulation(SimConfig(rounds=rounds, control_prob=control_prob, attack=attack))
            assert reads == full
        words = np.random.PCG64(np.random.SeedSequence(11)).random_raw(4 * rounds)
        words[1::4] |= np.uint64(2**63)
        crafted.append(words)
        for attack in (FORWARD_Z, FORWARD_X, FORWARD_R):
            reads.clear()
            config = SimConfig(rounds=rounds, control_prob=0.5, attack=attack)
            report = run_simulation(config)
            assert (report.rounds_total, report.control_rounds) == (rounds, 0)
            growing = [16, 64, 256, 1024, 4096]
            assert reads == [4 * n for n in (*growing, rounds - sum(growing))]

    @pytest.mark.parametrize("attack", ALL_ATTACKS)
    def test_pass_rows_decide_at_the_word_boundaries(self, attack):
        """The pass rows compare raw words: word > e * 2**11 - 1 holds
        exactly when k = word >> 11 reaches the edge e. At each of the
        attack's edges and each control edge of CONTROL_PROB_EDGES, 0 and
        2**53 included, the words e * 2**11 - 1, e * 2**11 and e * 2**11 +
        2047, and the words 0 and 2**64 - 1, get the ranks and the message
        flag that Generator.random() of the word decides: the rank counts
        the edges e with r >= e * 2**-53, which is r >= t for each
        threshold t of the edge, and a round is a control round iff r <
        control_prob, control_prob 0 (where no pass holds the flag) and 1
        included."""
        edges = _code_table(*_bases(attack), KeyMode.COMBINED)[0]
        radix = len(edges) + 1
        control_edges = [_edge(cp) for cp in CONTROL_PROB_EDGES]
        assert control_edges[0] == 0 and control_edges[-1] == 2**53
        points = {0, 2**64 - 1}
        for e in (*edges, *control_edges):
            points.update(w for w in ((e << 11) - 1, e << 11, (e << 11) + 2047) if 0 <= w < 2**64)
        words = sorted(points)
        uniforms = []
        for word in words:
            bitgen = _pcg64_serving(word)
            assert int(_pcg64_serving(word).random_raw()) == word
            uniforms.append(np.random.Generator(bitgen).random())
        assert uniforms[0] == 0.0 and uniforms[-1] == 1.0 - 2.0**-53
        thresholds = _thresholds(_tables(attack))
        for control_prob, control_edge in zip(CONTROL_PROB_EDGES, control_edges):
            codes = _codes(_round_words(words), edges, control_edge)
            for r, code in zip(uniforms, codes):
                _, r0, _, message, r2, r3 = _code_digits(code, radix)
                assert r0 == r2 == r3 == sum(not r < e * 2.0**-53 for e in edges)
                for t in thresholds:
                    assert (r0 <= _rank_bound(edges, t)) == (r < t)
                assert message == (not r < control_prob)

    @pytest.mark.parametrize("control_prob", [0.0, 0.5])
    @pytest.mark.parametrize("attack", REFILL_ATTACKS)
    def test_long_session_spans_refills(self, attack, control_prob):
        # PAST_THE_CAP rounds read past the first chunk of _MAX_CHUNK rounds.
        _assert_matches_reference(
            SimConfig(rounds=PAST_THE_CAP, control_prob=control_prob, attack=attack, seed=31)
        )

    @pytest.mark.parametrize("after_cap", [0, 1], ids=["last-of-chunk", "first-of-next"])
    def test_first_detection_at_a_chunk_boundary(self, monkeypatch, after_cap):
        """A session whose first detection falls on the last round of its
        first capped chunk, or on the first round of the next, ends at that
        round, as the reference does, with and without its records: the
        row that detects is found at the right offset of its chunk's rows.
        The words come from a crafted stream: rounds of seed 3 that pass or
        carry keys up to the detection, one that detects there, and others
        after it, each classified by the reference."""
        attack = FORWARD_Z
        config = SimConfig(rounds=PAST_THE_CAP, control_prob=0.5, attack=attack, seed=0)
        at = list(itertools.accumulate(_chunk_sizes(config.rounds)))[-2] - 1 + after_cap
        bank = np.random.PCG64(np.random.SeedSequence(3)).random_raw(4 * 64).reshape(-1, 4)
        detects = []
        for words in bank:
            outcome = _reference_round(attack, config.control_prob, words, 0, []).outcome
            detects.append(getattr(outcome, "verdict", None) is ControlVerdict.EVE_DETECTED)
        quiet = bank[[not d for d in detects]]
        assert detects.count(True) > 0 and len(quiet) > 0
        rounds = np.resize(quiet, (config.rounds, 4))
        rounds[at] = bank[detects.index(True)]
        stream = rounds.ravel()

        class CraftedPCG64(np.random.PCG64):
            """Serves the crafted words, in order, to each instance."""

            def random_raw(self, size=None, output=True):
                start = getattr(self, "read", 0)
                self.read = start + size
                return stream[start : start + size].copy()

        monkeypatch.setattr(np.random, "PCG64", CraftedPCG64)
        report, records, _, _, pre, _ = _reference_session(config)
        assert (report.rounds_total, report.abort_cause) == (at + 1, ABORT_CONTROL)
        assert records[-1].outcome.verdict is ControlVerdict.EVE_DETECTED
        _assert_matches_reference(config)
        bare = run_session(config)
        assert serialize_report(bare.report) == serialize_report(report)
        assert (tuple(bare.alice_pre_check), tuple(bare.bob_pre_check)) == pre

    # sha-256 of the reprs of the sessions below, recorded when the chunks
    # were capped at 1,024 rounds and a code table held a byte per key bit:
    # it pins the records and the four keys, which GOLDEN_DIGEST does not.
    # Its longest sessions, 2 * _MAX_CHUNK + 5 rounds, read into a second
    # chunk of _MAX_CHUNK rounds, so it moves with _MAX_CHUNK; the value is
    # for _MAX_CHUNK = 4096.
    SESSION_DIGEST = "74b519021f23c6a9e2f89db83343ba3c2445a9476c55914a8cc15008888e4cd2"

    def test_session_digest(self):
        """Every attack and key mode, at control_prob 0, 1/2 and 1, at 0
        and 17 rounds with and without records, and into the second capped
        chunk without them: with records, over 8,000 rounds each, the reprs would
        take seconds, and no key depends on the records."""
        digest = hashlib.sha256()
        for attack in ALL_ATTACKS:
            for key_mode in KeyMode:
                for control_prob in (0.0, 0.5, 1.0):
                    for rounds in (0, 17, 2 * simulate._MAX_CHUNK + 5):
                        config = SimConfig(rounds=rounds, control_prob=control_prob,
                                           key_mode=key_mode, attack=attack, seed=7)
                        for keep_records in (False, True)[: 1 + (rounds < 100)]:
                            digest.update(repr(run_session(config, keep_records)).encode())
        assert simulate._MAX_CHUNK == 4096
        assert digest.hexdigest() == self.SESSION_DIGEST

    @pytest.mark.parametrize("seed", [0, 1, 12345, 2**32 - 1, 2**32, 2**64 - 1, np.uint64(2**63 + 5)])
    def test_stream_sequences_are_spawned_children(self, seed):
        # The stream's seed sequence is the first child of spawn(2), and
        # _stream_seed builds it from its entropy words.
        child = np.random.SeedSequence(int(seed)).spawn(2)[0]
        direct = np.random.SeedSequence(int(seed), spawn_key=(0,))
        built = simulate._stream_seed(seed)
        want = child.generate_state(4).tolist()
        assert direct.generate_state(4).tolist() == built.generate_state(4).tolist() == want
        assert (
            np.random.PCG64(built).random_raw(8).tolist()
            == np.random.PCG64(child).random_raw(8).tolist()
        )

    def test_check_stream_words_are_pinned(self):
        # The key check of seed 7 reads these words first: word 2**100 on of
        # the rounds' PCG64. A numpy whose advance differs fails here.
        assert simulate.STREAM_VERSION == 6
        bitgen = np.random.PCG64(np.random.SeedSequence(7, spawn_key=(0,))).advance(2**100)
        assert bitgen.random_raw(4).tolist() == [
            2816532671443691509, 8716957038360912089, 6645707004508324354, 9362925531012223768
        ]

    # sha-256 of the concatenated JSON reports of the 400-round matrix below,
    # recorded from _reference_session, the scalar round functions served
    # their slots, not from run_session.
    GOLDEN_DIGEST = "eefd7d804c59051bf7eaf53ad57dd2953194a7913318f368679818917e7d4391"

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


def _control_outcome(detected, basis, bob_bit, alice_bit):
    """A control round's outcome, with or without a detection."""
    verdict = ControlVerdict.EVE_DETECTED if detected else ControlVerdict.PASS
    return ControlOutcome(verdict, basis, bob_bit, alice_bit)


def _message_outcome(u_a, u_b, k):
    """A message round's outcome when Alice announces Bell outcome k."""
    return MessageOutcome(u_b, k, decode(u_a, k), decode(u_b, k))


def _bases(attack):
    return eve_bases(attack, ChannelLeg.FORWARD), eve_bases(attack, ChannelLeg.BACKWARD)


def _tables(attack):
    return _round_tables(*_bases(attack))


def _with_spans(path, w0, w2, w3):
    """A round tables' path with its forward leg's span w0 and its own w2
    and w3 replaced."""
    p, u_a, outcome, forward_leg, backward_leg, _, _ = path
    return p, u_a, outcome, (*forward_leg[:4], w0), backward_leg, w2, w3


def _thresholds(tables):
    """Every p0 and Bell threshold of the round tables."""
    p0s = [e[0] for rows in tables.measure for row in rows for e in row if e is not None]
    return p0s + [acc for row in tables.bell if row is not None for acc in row]


def _rank_spans(edges):
    """{rank: (first k, last k)} of each rank: rank j holds the k = word >>
    11 from the j-th bound to below the next, the bounds being 0, the edges
    and 2**53."""
    bounds = [0, *map(int, edges), 2**53]
    return {j: (low, high - 1) for j, (low, high) in enumerate(zip(bounds, bounds[1:]))}


def _rank_bound(edges, t):
    """The largest rank whose words' uniforms lie below threshold t: the
    index of t's ceiling among the edges, -1 for a ceiling of 0, which no
    word lies below, and len(edges) for 2**53, which every word lies below."""
    ceiling = math.ceil(t * 2**53)
    if ceiling in (0, 2**53):
        return -1 if ceiling == 0 else len(edges)
    return list(map(int, edges)).index(ceiling)


def _eve_basis(bases, field):
    """The basis Eve measures in on a leg she attacks, for the round's 4-bit
    field: her fixed basis, or the top bit of the field's basis draw."""
    return bases[field >> 3] if len(bases) == 2 else bases[0]


def _same_ray(amps, state):
    """Whether float amplitudes and an integer state agree up to scale and phase."""
    norm = math.sqrt(sum(x * x for x in state))
    return abs(np.vdot(amps, [x / norm for x in state])) >= 1.0 - 1e-12


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
        """Each compiled row and record, read at the rank the round code
        gives a word, decides as the round tables' thresholds do at the
        word's uniform: bit 0 iff r < p0, and the first Bell outcome whose
        threshold exceeds r. Checked at every code whose three ranks are
        those of one uniform r, for r at and next to every threshold and at
        0 and 1 - 2**-53, with both fields at each of their 16 values, in a
        control round and in a message round."""
        tables = _tables(attack)
        forward, backward = _bases(attack)
        measure_h, measure_t = tables.measure[QubitId.H], tables.measure[QubitId.T]
        edges, code_rows, _ = _code_table(forward, backward, KeyMode.COMBINED)
        readings = _code_records(forward, backward, KeyMode.COMBINED)
        radix = len(edges) + 1
        rows = code_rows.tobytes()
        uniforms = _uniforms_around(*_thresholds(tables))
        assert uniforms[0] == 0.0 and uniforms[-1] == 1.0 - 2.0**-53
        # The 11 low bits of a word are not part of its uniform.
        words = np.array(
            [int(r * 2**53) << 11 | (0x7FF if i % 2 else 0) for i, r in enumerate(uniforms)],
            dtype=np.uint64,
        )
        ranks = _word_ranks(words, edges)
        checked = 0

        def measured(entry, r):
            """(bit, successor) of a table entry at uniform r."""
            p0, s0, s1 = entry
            return (0, s0) if r < p0 else (1, s1)

        def eve(view, s, bases, field, r):
            """The state after Eve's measurement on a leg, in the basis the
            field draws, once her view is found to be the one the threshold
            decides; s and no view when she leaves the leg alone."""
            nonlocal checked
            if not bases:
                assert view is None
                return s
            basis = _eve_basis(bases, field)
            want_bit, t = measured(measure_t[s][basis], r)
            checked += 1
            assert view == (basis, want_bit)
            return t

        for r, rank in zip(uniforms, ranks):
            for field0, field1 in itertools.product(range(16), repeat=2):
                u_a = LocalUnitary(field0 & 3)
                control, message = (
                    _code_at(radix, field0, rank, field1, flag, rank, rank) for flag in (0, 1)
                )
                _, outcome, forward_view, backward_view = readings[control]
                assert readings[control][0] == readings[message][0] == u_a
                assert readings[message][2] == forward_view and backward_view is None
                s = eve(forward_view, tables.prepared[u_a], forward, field0, r)
                basis = MeasBasis(field1 >> 1 & 1)
                correlated = expected_correlation(u_a, basis) is Correlation.CORRELATED
                bob_bit, t = measured(measure_t[s][basis], r)
                alice_bit, _ = measured(measure_h[t][basis], r)
                detected = (alice_bit == bob_bit) != correlated
                checked += 1
                assert outcome == _control_outcome(detected, basis, bob_bit, alice_bit)
                assert rows[2 * control : 2 * control + 2] == (b"\x11" if detected else b"\x10") * 2
                u_b = LocalUnitary(field1 & 3)
                t = eve(readings[message][3], tables.encode[s][u_b], backward, field1, r)
                checked += 1
                k = BellOutcome(_bell_rule(tables.bell[t], r))
                assert readings[message][1] == _message_outcome(u_a, u_b, k)
        assert checked > 0

    @staticmethod
    def _compile_paths(paths, attack=NoAttack()):
        """_compile_codes of attack's bases, its round tables replaced by a
        fake that holds only paths, which is all the compile reads."""
        tables = types.SimpleNamespace(paths=paths)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulate, "_round_tables", lambda forward, backward: tables)
            _compile_codes.cache_clear()
            try:
                return _compile_codes(*_bases(attack), KeyMode.COMBINED)
            finally:
                # The code tables hold the cached compile's entries: rebuild them too.
                for cache in (_compile_codes, _code_table, _code_records):
                    cache.cache_clear()

    @pytest.mark.parametrize("count", [4, 5])
    def test_code_tables_hold_at_most_2_16_codes(self, count):
        """A code table holds the product of the radices of the code's
        digits, 512 * R**3 codes with R = edges + 1, so the compile refuses
        more than 4 splitting edges, 2**16 codes, when it is built: 4 edges
        give 64,000 codes and 5 give 110,592. Thresholds of exactly 0 and 1
        split no words and do not count. The compile takes its thresholds
        from the paths' spans; each fake path's spans are empty, (t, t), so
        no word decides them and no path covers a code: below the limit
        the compile sizes the table and then refuses it, naming itself and
        every one of its codes as uncovered."""
        thresholds = [0, 1] + [j / 512 for j in range(1, count + 1)]
        path = _tables(NoAttack()).paths[0]
        paths = [_with_spans(path, (t, t), (t, t), (t, t)) for t in thresholds]
        codes = math.prod(radix or count + 1 for _, _, radix in simulate._DIGITS)
        assert codes == 512 * (count + 1) ** 3
        if count <= 4:
            assert codes <= simulate._CODE_LIMIT
            message = f"_compile_codes: {codes} round codes that no path covers"
            with pytest.raises(RuntimeError, match=message):
                self._compile_paths(paths)
        else:
            assert codes > simulate._CODE_LIMIT
            with pytest.raises(OverflowError):
                self._compile_paths(paths)

    @pytest.mark.parametrize("attack", [NoAttack(), FORWARD_R, BACKWARD_R])
    def test_compile_refuses_a_code_no_path_covers(self, attack):
        """A code that no path covers is refused at the compile, not read
        later as an entry id: the round tables' paths less their first
        leave the codes of that path uncovered."""
        with pytest.raises(RuntimeError, match="_compile_codes: [0-9]+ round codes that no path"):
            self._compile_paths(_tables(attack).paths[1:], attack)

    @pytest.mark.parametrize("attack", [NoAttack(), FORWARD_R, BACKWARD_R])
    def test_compile_refuses_overlapping_paths(self, attack):
        """A code that two paths cover is refused at the compile, naming
        the later path, not left to the path written last: the round
        tables' paths with the first one twice."""
        paths = _tables(attack).paths
        with pytest.raises(RuntimeError, match="_compile_codes: path 1 overlaps an earlier path"):
            self._compile_paths(paths[:1] * 2 + paths[1:], attack)

    def test_compile_reads_thresholds_from_the_paths_spans(self):
        """The edges come from the paths' spans alone: the honest paths,
        whose one edge is 1/2, with the first split at 1/3 on w0 compile
        to the 2 edges of 1/3 and 1/2. The first half is at r0's rank 0
        only, the second at ranks 1 and 2, and every other path at all 3
        ranks, so each code is still covered once."""
        first, *rest = _tables(NoAttack()).paths
        _, _, _, _, _, w2, w3 = first
        third = Fraction(1, 3)
        halves = [_with_spans(first, w0, w2, w3) for w0 in ((0, third), (third, 1))]
        edges, ids, rows, _ = self._compile_paths(halves + rest)
        assert edges == (_edge(third), _edge(Fraction(1, 2)))
        radix = len(edges) + 1
        assert len(ids) == 512 * radix**3
        ranks = defaultdict(set)
        for code, entry in enumerate(ids.tolist()):
            ranks[entry].add(_code_digits(code, radix)[1])
        assert sorted(ranks) == list(range(len(rows))) == list(range(len(rest) + 2))
        assert ranks.pop(0) == {0} and ranks.pop(1) == {1, 2}
        assert all(r0s == {0, 1, 2} for r0s in ranks.values())

    @pytest.mark.parametrize("key_mode", list(KeyMode))
    @pytest.mark.parametrize("attack", ALL_ATTACKS)
    def test_code_tables_equal_the_state_walk(self, attack, key_mode):
        """Every round code's row and record equal the walk through the
        round tables from Alice's prepared state, read at the code's
        digits and decided at a word's uniform r as the protocol decides:
        bit 0 iff r < p0, the first Bell outcome whose threshold exceeds r,
        a detection iff the bits' correlation differs from the expected
        one. A rank is read at the first and the last uniform of its span,
        which lie next to the thresholds, and both decide alike; the round
        code gives that rank to a word of either uniform, whatever its 11
        low bits, and every rank is some word's. The walk reads u_A and
        Eve's forward basis from f0 and her measurement from r0, then at f1
        either Bob's basis, his measurement at r2 and Alice's at r3, whose
        row is the 2 bytes 0x10 0x10 on a pass and 0x11 0x11 on a
        detection, or u_B and Eve's backward basis, her measurement at r2
        and the Bell measurement at r3. A message round's row is
        accumulate_key's bits of its outcome, Alice's then Bob's, each
        party's packed into a byte with key bit j in bit j, and _UNPACK
        turns each byte back into them. The record is (u_A, the
        round's ControlOutcome or MessageOutcome, Eve's forward view, her
        backward view), a view being None on a leg she leaves alone; the
        reprs agree too, so an outcome holds enum members where the
        protocol's do. Equal records are one object."""
        forward, backward = _bases(attack)
        tables = _tables(attack)
        edges, code_rows, _ = _code_table(forward, backward, key_mode)
        unpack = simulate._UNPACK[key_mode.bits_per_round]
        readings = _code_records(forward, backward, key_mode)
        radix = len(edges) + 1
        bits = key_mode.bits_per_round
        assert len(code_rows) == len(readings) == 512 * radix**3
        assert code_rows.dtype == np.uint16 and unpack.dtype.itemsize == bits
        unpacked = [unpack[b : b + 1].tobytes() for b in range(16)]
        assert unpacked == [bytes(b >> j & 1 for j in range(bits)) for b in range(16)]
        spans = _rank_spans(edges)
        assert len(spans) == radix and all(first <= last for first, last in spans.values())
        for rank, span in spans.items():
            # The 11 low bits of a word are not part of its uniform.
            words = [k << 11 | low for k in span for low in (0, 0x7FF)]
            assert set(_word_ranks(words, edges)) == {rank}

        @functools.cache
        def decide(thresholds, rank):
            """The index of the first of thresholds that a word's uniform at
            rank lies below, else len(thresholds), once the rank's first and
            last uniform are found to agree."""
            first, last = (
                next((j for j, t in enumerate(thresholds) if k < t * 2**53), len(thresholds))
                for k in spans[rank]
            )
            assert first == last
            return first

        def measure(qubit, s, basis, rank):
            """(bit, successor) of a table entry at rank."""
            p0, *after = tables.measure[qubit][s][basis]
            bit = decide((p0,), rank)
            return bit, after[bit]

        def leg(s, bases, field, rank):
            """(Eve's view, state) after a leg entered in state s: her
            measurement in the basis the field draws, or none."""
            if not bases:
                return None, s
            basis = _eve_basis(bases, field)
            bit, t = measure(QubitId.T, s, basis, rank)
            return (basis, bit), t

        rows = code_rows.tobytes()
        for code, reading in enumerate(readings):
            field0, r0, field1, message, r2, r3 = _code_digits(code, radix)
            u_a = LocalUnitary(field0 & 3)
            forward_view, s = leg(tables.prepared[u_a], forward, field0, r0)
            row = rows[2 * code : 2 * code + 2]
            if message:
                u_b = LocalUnitary(field1 & 3)
                backward_view, t = leg(tables.encode[s][u_b], backward, field1, r2)
                outcome = _message_outcome(u_a, u_b, BellOutcome(decide(tables.bell[t], r3)))
                alice = accumulate_key([], u_a, outcome.alice_view, key_mode)
                bob = accumulate_key([], outcome.bob_view, u_b, key_mode)
                packed = (sum(bit << j for j, bit in enumerate(key)) for key in (alice, bob))
                assert row == bytes(packed)
                assert unpacked[row[0]] + unpacked[row[1]] == bytes(alice + bob)
            else:
                basis = MeasBasis(field1 >> 1 & 1)
                bob_bit, t = measure(QubitId.T, s, basis, r2)
                alice_bit, _ = measure(QubitId.H, t, basis, r3)
                correlated = expected_correlation(u_a, basis) is Correlation.CORRELATED
                detected = (alice_bit == bob_bit) != correlated
                outcome = _control_outcome(detected, basis, bob_bit, alice_bit)
                backward_view = None
                assert row == (b"\x11" if detected else b"\x10") * 2
            want = (u_a, outcome, forward_view, backward_view)
            assert reading == want
            assert repr(reading) == repr(want)
        assert len({id(reading) for reading in readings}) == len(set(readings))

    @pytest.mark.parametrize("attack", ALL_ATTACKS)
    def test_draw_indexing_adds_no_rows(self, attack):
        """The compile makes one entry per path a round can take and enters
        it at every code that takes it: a digit that the round does not
        read repeats the entry. f0 is read at its 2-bit draw, bits 0-1,
        and, when Eve draws her forward basis, at its top bit, bit 3; r0
        only when she attacks the forward leg. A control round reads f1
        only at bit 1, the top bit of Bob's draw, which is his basis; a
        message round reads it at bits 0-1 and, when Eve draws her backward
        basis, at bit 3, and reads r2 only when she attacks the backward
        leg. No two entries are equal, and every entry is some code's."""
        forward, backward = _bases(attack)
        edges, ids, rows, records = _compile_codes(forward, backward, KeyMode.COMBINED)
        radix = len(edges) + 1
        ids = ids.tolist()

        def drawn(bases):
            """The bits of a leg's field that a round reads."""
            return 0b1011 if len(bases) == 2 else 0b0011

        for code, entry in enumerate(ids):
            field0, r0, field1, message, r2, r3 = _code_digits(code, radix)
            field0 &= drawn(forward)
            r0 *= bool(forward)
            if message:
                field1 &= drawn(backward)
                r2 *= bool(backward)
            else:
                field1 &= 0b0010
            assert entry == ids[_code_at(radix, field0, r0, field1, message, r2, r3)]
        assert sorted(set(ids)) == list(range(len(rows))) == list(range(len(records)))
        assert len(set(records)) == len(records)

    @pytest.mark.parametrize("key_mode", list(KeyMode))
    @pytest.mark.parametrize("attack", ALL_ATTACKS)
    def test_code_table_law_is_the_oracles(self, attack, key_mode):
        """The law run_session samples, read off the code tables alone,
        with no state: a code weighs the product of its digits' widths,
        1/16 per value of a 4-bit field, (bounds[r + 1] - bounds[r]) / 2**53
        for rank r, the bounds being 0, the edges and 2**53, and, for
        control_prob cp, c = ceil(cp * 2**53) / 2**53 for a control round
        and 1 - c for a message round. Summed over the codes' rows, the
        rounds that detect weigh c times control_detection_probability and
        the message rounds of each error mask e, read off the XOR of the
        row's two bytes (key bit 0 the amplitude bit of e, key bit 1 its
        phase bit), 1 - c times message_error_distribution's, exactly;
        all the codes weigh 1. The records agree with the rows: a control
        record's verdict is its row's, and a message record's mask
        label(announced) ^ u_A ^ u_B, in every key bit, is its row's XOR."""
        forward, backward = _bases(attack)
        edges, code_rows, _ = _code_table(forward, backward, key_mode)
        readings = _code_records(forward, backward, key_mode)
        radix = len(edges) + 1
        bits = key_mode.bits_per_round
        widths = [last - first + 1 for first, last in _rank_spans(edges).values()]
        assert sum(widths) == 2**53
        rows = code_rows.tobytes()
        # Integer weights of the ranks, in units of 2**-159; the fields'
        # 256 values and the flag come in below.
        detected = control = 0
        errors = [0] * 4
        for code, (u_a, outcome, _, _) in enumerate(readings):
            _, r0, _, message, r2, r3 = _code_digits(code, radix)
            weight = widths[r0] * widths[r2] * widths[r3]
            alice, bob = rows[2 * code : 2 * code + 2]
            if message:
                xor = alice ^ bob
                e = (xor & 1) << 1 | xor >> 1 & 1
                flags = LocalUnitary(outcome.announced ^ u_a ^ outcome.u_b).bits * (bits // 2)
                assert xor == sum(flag << j for j, flag in enumerate(flags))
                errors[e] += weight
            else:
                assert alice == bob and alice in b"\x10\x11"
                assert (alice == 0x11) == (outcome.verdict is ControlVerdict.EVE_DETECTED)
                detected += weight * (alice == 0x11)
                control += weight
        unit = 256 * 2**159
        assert control == sum(errors) == unit
        for cp in (0.1, 0.5):
            c = Fraction(_edge(cp), 2**53)
            assert c * Fraction(detected, unit) == c * control_detection_probability(attack)
            law = {e: (1 - c) * Fraction(w, unit) for e, w in enumerate(errors)}
            oracle_law = message_error_distribution(attack)
            assert law == {e: (1 - c) * p for e, p in oracle_law.items()}
            assert c * Fraction(control, unit) + sum(law.values()) == 1

    @pytest.mark.parametrize("key_mode", list(KeyMode))
    @pytest.mark.parametrize("attack", ALL_ATTACKS)
    def test_code_table_key_law_is_the_message_paths(self, attack, key_mode):
        """The key-bit law of a message round read off the code table alone
        equals the law of the message paths of _RoundTables.paths, exactly:
        the joint law of (u_A, u_B, Alice's key bits, Bob's key bits). A
        code weighs its digits' widths as in
        test_code_table_law_is_the_oracles, u_A is the 2-bit draw of f0,
        u_B that of f1, and the key bits are the code's row unpacked
        through _UNPACK, Alice's byte then Bob's. A path weighs
        its probability given the round's mode, and its key bits are
        accumulate_key's of its outcome."""
        forward, backward = _bases(attack)
        edges, code_rows, _ = _code_table(forward, backward, key_mode)
        unpack = simulate._UNPACK[key_mode.bits_per_round]
        radix = len(edges) + 1
        widths = [last - first + 1 for first, last in _rank_spans(edges).values()]
        unpacked = [tuple(unpack[b : b + 1].tobytes()) for b in range(16)]
        rows = code_rows.tobytes()
        table_law = Counter()
        for code in range(len(code_rows)):
            field0, r0, field1, message, r2, r3 = _code_digits(code, radix)
            if message:
                alice, bob = rows[2 * code : 2 * code + 2]
                key = (field0 & 3, field1 & 3, unpacked[alice], unpacked[bob])
                table_law[key] += widths[r0] * widths[r2] * widths[r3]
        # The 16 * 16 values of the fields, the flag fixed, and 2**53 per rank.
        unit = 256 * 2**159
        table_law = {key: Fraction(weight, unit) for key, weight in table_law.items()}
        path_law = Counter()
        for p, u_a, outcome, _, backward_leg, _, _ in _tables(attack).paths:
            if backward_leg is not None:
                alice = accumulate_key([], u_a, outcome.alice_view, key_mode)
                bob = accumulate_key([], outcome.bob_view, outcome.u_b, key_mode)
                path_law[u_a, outcome.u_b, tuple(alice), tuple(bob)] += p
        assert sum(table_law.values()) == sum(path_law.values()) == 1
        assert table_law == dict(path_law)

    @staticmethod
    def _refuse_float_kernels(monkeypatch):
        """Make every float kernel raise, and empty the caches built from
        the round tables so that they are built again."""

        def refuse(*args):
            raise AssertionError("a float kernel was called")

        for name, value in list(vars(kernels).items()):
            if inspect.isfunction(value):
                monkeypatch.setattr(kernels, name, refuse)
        for cache in (_round_tables, _compile_codes, _code_table, _code_records):
            cache.cache_clear()
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
