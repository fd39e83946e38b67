"""Acceptance suite: the release gate, one test per criterion.

Each test enforces its criterion at the stated tolerance and prints one
PASS line (visible with ``pytest -s`` or on failure). Statistical targets
are frozen against the exact enumeration oracle, never guessed.
"""

import math
import time
from fractions import Fraction

import numpy as np

from conftest import BACKWARD_Z, FORWARD_Z, prob_bell, prob_qubit
from qdkd.oracle import abort_probability, control_detection_probability, exact_oracle
from qdkd.protocol import KeyCheckPolicy, KeyMode
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
from qdkd.simulate import (
    SimConfig,
    derive_seed,
    run_batch,
    run_session,
    run_simulation,
    serialize_report,
)

# The published outcome grid: rows are Alice's unitary, columns Bob's.
OUTCOME_GRID = [
    ["Ψ+", "Ψ−", "Φ+", "Φ−"],
    ["Ψ−", "Ψ+", "Φ−", "Φ+"],
    ["Φ+", "Φ−", "Ψ+", "Ψ−"],
    ["Φ−", "Φ+", "Ψ−", "Ψ+"],
]


def _report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS: {detail}")


def test_criterion_1_outcome_table_reproduction():
    start = time.perf_counter()
    psi = bell_state(BellOutcome.PSI_PLUS)
    for a in LocalUnitary:
        for b in LocalUnitary:
            state = apply_local(apply_local(psi, QubitId.T, a), QubitId.T, b)
            probs = prob_bell(state)
            expected = OUTCOME_GRID[int(a)][int(b)]
            for outcome in BellOutcome:
                want = 1.0 if outcome.symbol == expected else 0.0
                assert abs(probs[outcome] - want) < 1e-12, (a, b, outcome)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"all 16 composite outcomes deterministic and on-grid in {elapsed:.3f}s")


def test_criterion_2_xor_law_and_decode_roundtrip():
    from qdkd.protocol import decode

    symbols = [o.symbol for o in BellOutcome]
    for a in LocalUnitary:
        for b in LocalUnitary:
            k = int(a) ^ int(b)
            assert symbols[k] == OUTCOME_GRID[int(a)][int(b)]
            announced = BellOutcome(k)
            assert decode(a, announced) is b
            assert decode(b, announced) is a
    _report(2, "label XOR law equals the grid; decode round-trips both directions")


def test_criterion_3_honest_completeness_and_capacity():
    start = time.perf_counter()
    combined = run_session(SimConfig(rounds=10_000, control_prob=0.5, seed=31))
    elapsed = time.perf_counter() - start
    report = combined.report
    assert report.detections == 0
    assert not report.aborted
    assert report.key_error_rate_overall == 0.0
    assert combined.alice_final == combined.bob_final
    assert report.capacity_bits_per_message_round == 4.0
    single = run_simulation(
        SimConfig(rounds=10_000, control_prob=0.5, seed=31, key_mode=KeyMode.SINGLE_BOB)
    )
    assert single.capacity_bits_per_message_round == 2.0
    ratio = report.capacity_bits_per_message_round / single.capacity_bits_per_message_round
    assert ratio == 2.0
    assert elapsed < 10.0
    _report(3, f"clean 1e4-round run in {elapsed:.2f}s; capacity 4.0 vs 2.0 (ratio 2.0)")


def test_criterion_4_backward_attack_leak_without_check():
    oracle = exact_oracle(BACKWARD_Z)
    assert oracle.key_error_rate_phase_bit == Fraction(1, 2)
    assert oracle.key_error_rate_amplitude_bit == 0
    assert oracle.key_error_rate_overall == Fraction(1, 4)
    config = SimConfig(rounds=110_000, control_prob=0.5, check_fraction=0.0,
                       attack=BACKWARD_Z, seed=47)
    session = run_session(config)
    report = session.report
    assert report.control_rounds >= 10_000
    assert report.detections == 0  # the leak: no control round ever fires
    key_bits = len(session.alice_pre_check)
    assert key_bits >= 200_000
    assert abs(report.key_error_rate_phase_bit - float(oracle.key_error_rate_phase_bit)) <= 0.01
    assert report.key_error_rate_amplitude_bit == 0.0
    assert abs(report.key_error_rate_overall - 0.25) <= 0.005
    _report(
        4,
        f"{report.control_rounds} control rounds, 0 detections; "
        f"phase error {report.key_error_rate_phase_bit:.4f} vs oracle 0.5, "
        f"overall {report.key_error_rate_overall:.4f} vs 0.25 over {key_bits} bits",
    )


def test_criterion_5_key_check_fix_forces_abort():
    n_runs = 100
    config = SimConfig(rounds=200, control_prob=0.5, check_fraction=0.1,
                       mismatch_threshold=0, attack=BACKWARD_Z, seed=53)
    reports = run_batch(config, n_runs)
    for report in reports:
        pre = int(report.capacity_bits_per_message_round * report.message_rounds)
        checked = pre - report.final_key_length
        assert checked >= 20
    aborts = sum(r.aborted for r in reports)
    freq = aborts / n_runs
    assert freq >= 0.99
    oracle = float(abort_probability(BACKWARD_Z, KeyCheckPolicy(0.1, 0), 100))
    assert abs(freq - oracle) <= 0.03
    _report(5, f"abort frequency {freq:.2f} over {n_runs} runs; oracle {oracle:.6f}")


def test_criterion_6_forward_attack_detection_rate():
    oracle = control_detection_probability(FORWARD_Z)
    assert oracle == Fraction(1, 4)
    detections = control_rounds = 0
    base_seed = 61
    session_index = 0
    while control_rounds < 10_000:
        config = SimConfig(rounds=60, control_prob=0.5, attack=FORWARD_Z,
                           seed=derive_seed(base_seed, session_index))
        report = run_simulation(config)
        detections += report.detections
        control_rounds += report.control_rounds
        session_index += 1
    p_hat = detections / control_rounds
    se = math.sqrt(float(oracle) * (1 - float(oracle)) / control_rounds)
    assert abs(p_hat - float(oracle)) <= 4 * se
    _report(
        6,
        f"detection rate {p_hat:.4f} over {control_rounds} control rounds "
        f"({session_index} sessions) vs oracle 0.25 (4 SE = {4 * se:.4f})",
    )


def test_criterion_7_quantum_property_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(71)

    def random_state():
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        return TwoQubitState.from_amplitudes(*v)

    # Bell orthonormality.
    for a in BellOutcome:
        for b in BellOutcome:
            ip = np.vdot(bell_state(a).amps, bell_state(b).amps)
            assert abs(ip - (1.0 if a == b else 0.0)) < 1e-12

    # Normalization preservation and unitarity.
    for _ in range(200):
        s, t = random_state(), random_state()
        before = np.vdot(s.amps, t.amps)
        for u in LocalUnitary:
            su = apply_local(s, QubitId.T, u)
            tu = apply_local(t, QubitId.T, u)
            assert abs(su.norm_sq() - 1.0) < 1e-9
            assert abs(np.vdot(su.amps, tu.amps) - before) < 1e-9

    # Collapse idempotence.
    for _ in range(200):
        s = random_state()
        qubit = QubitId(int(rng.integers(2)))
        basis = MeasBasis(int(rng.integers(2)))
        bit1, s1 = measure_qubit(s, qubit, basis, rng.random())
        bit2, s2 = measure_qubit(s1, qubit, basis, rng.random())
        assert bit2 == bit1
        assert np.allclose(s2.amps, s1.amps, atol=1e-12)

    # Born/frequency agreement, N = 1e5 at 4 standard errors.
    n = 100_000
    cases = [
        (bell_state(BellOutcome.PSI_PLUS), QubitId.T, MeasBasis.Z),
        (bell_state(BellOutcome.PHI_MINUS), QubitId.H, MeasBasis.X),
        (TwoQubitState.from_amplitudes(1, 1, 1, -1), QubitId.T, MeasBasis.X),
    ]
    for state, qubit, basis in cases:
        p0, _ = prob_qubit(state, qubit, basis)
        zeros = sum(measure_qubit(state, qubit, basis, rng.random())[0] == 0 for _ in range(n))
        se = math.sqrt(max(p0 * (1 - p0), 1e-12) / n)
        assert abs(zeros / n - p0) <= 4 * se + 1e-9

    plus_plus = TwoQubitState.from_amplitudes(1, 1, 1, 1)
    probs = prob_bell(plus_plus)
    counts = [0, 0, 0, 0]
    for _ in range(n):
        outcome, _ = measure_bell(plus_plus, rng.random())
        counts[outcome] += 1
    for k in range(4):
        se = math.sqrt(max(probs[k] * (1 - probs[k]), 1e-12) / n)
        assert abs(counts[k] / n - probs[k]) <= 4 * se + 1e-9

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(7, f"normalization/unitarity/idempotence/orthonormality/Born(1e5) in {elapsed:.1f}s")


def test_criterion_8_byte_identical_reports():
    config = SimConfig(rounds=2_000, control_prob=0.4, check_fraction=0.15,
                       attack=BACKWARD_Z, seed=83)
    first = serialize_report(run_simulation(config), "json")
    second = serialize_report(run_simulation(config), "json")
    assert first == second
    assert serialize_report(run_simulation(config), "csv") == serialize_report(
        run_simulation(config), "csv"
    )
    _report(8, f"two runs serialized to identical bytes ({len(first)} bytes)")
