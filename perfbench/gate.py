"""Correctness gate of the qdkd benchmark.

Every operation the benchmark times is checked here, and a check that fails
counts the operation as failed. The checks are report invariants, exact
comparisons against oracle values recorded below, and statistical agreement
with those values at a fixed multiple of the binomial standard error. None of
them depends on which random stream the simulator draws from, only on the
distribution of its outcomes.
"""

import math
import numbers
from fractions import Fraction

ABORT_CONTROL = "control-round-detection"
ABORT_KEY_CHECK = "key-check-mismatch"

# Standard errors allowed between a simulated rate and its exact value.
SESSION_ERROR_SE = 6  # per-session key error rates, plus one count of slack
DETECTION_SE = 4  # aggregate control-round detection rate of short-sessions
ABORT_SE = 5  # aggregate key-check abort frequency of the oracle cross-check

# exact_oracle(attack) as (detection per control round, amplitude-position
# error, phase-position error), recorded from the oracle when the benchmark
# was written.
RECORDED_EXACT = {
    "none": ("0", "0", "0"),
    "bwd-z": ("0", "0", "1/2"),
    "bwd-x": ("0", "1/2", "0"),
    "bwd-random": ("0", "1/4", "1/4"),
    "fwd-z": ("1/4", "0", "1/2"),
    "fwd-x": ("1/4", "1/2", "0"),
    "fwd-random": ("1/4", "1/4", "1/4"),
}

# abort_probability(attack, KeyCheckPolicy(0.1, thr), n, key_mode), keyed by
# (attack, key mode, n, thr), recorded the same way.
RECORDED_ABORT = {
    ("bwd-z", "combined", 100, 0): (
        "840768813972328018108140021490095371456545725615871419/"
        "840779586380199168238843311450873075829272883851427840"
    ),
    ("bwd-random", "combined", 100, 0): (
        "840768813972328018108140021490095371456545725615871419/"
        "840779586380199168238843311450873075829272883851427840"
    ),
    ("bwd-z", "single-alice", 200, 0): (
        "386774841153210302589673270729804166393873817889/"
        "386777964341044983555306714932677960495393669120"
    ),
    ("bwd-random", "single-alice", 100, 3): "75262616303951453658085/96570532111051892195328",
    ("bwd-z", "combined", 10, 0): "49555/73112",
    ("bwd-random", "single-alice", 10, 0): "67/152",
    # Points of the tiny size used by the benchmark's own tests.
    ("bwd-z", "combined", 4, 0): "13/30",
    ("bwd-random", "combined", 4, 0): "13/30",
    ("bwd-z", "single-alice", 8, 0): "53/120",
    ("bwd-random", "single-alice", 6, 3): "0",
    ("bwd-z", "combined", 6, 0): "1157/2024",
    ("bwd-random", "single-alice", 6, 0): "39/88",
}


def recorded_exact(attack: str) -> tuple[Fraction, Fraction, Fraction]:
    return tuple(Fraction(v) for v in RECORDED_EXACT[attack])


def check_exact(attack: str, result) -> list[str]:
    """exact_oracle(attack) against the recorded fractions."""
    det, amp, phase = recorded_exact(attack)
    got = (
        result.detection_prob_per_control_round,
        result.key_error_rate_amplitude_bit,
        result.key_error_rate_phase_bit,
        result.key_error_rate_overall,
    )
    want = (det, amp, phase, (amp + phase) / 2)
    if got != want:
        return [f"exact_oracle({attack}) = {tuple(map(str, got))}, recorded {tuple(map(str, want))}"]
    return []


def check_abort(key: tuple, value) -> list[str]:
    """abort_probability at one query point against its recorded fraction.
    An exact rational is required; a float never passes."""
    if not isinstance(value, numbers.Rational) or value != Fraction(RECORDED_ABORT[key]):
        return [f"abort_probability{key} = {value}, recorded {RECORDED_ABORT[key]}"]
    return []


def _binomial_outlier(count: int, n: int, p: Fraction) -> bool:
    """True when count is further than SESSION_ERROR_SE standard errors plus
    one count from n * p. At p = 0 or 1 only the exact count passes."""
    mean = n * float(p)
    return abs(count - mean) > SESSION_ERROR_SE * math.sqrt(mean * (1.0 - float(p))) + (
        1 if 0 < p < 1 else 0
    )


def check_session(config, attack: str, report) -> list[str]:
    """Invariants of one session report, and its error rates against the oracle."""
    det, amp, phase = recorded_exact(attack)
    r = report
    n = r.message_rounds
    bits = config.key_mode.bits_per_round * n
    problems = []

    def expect(ok, what):
        if not ok:
            problems.append(what)

    expect(r.rounds_total == r.control_rounds + r.message_rounds, "rounds_total != control + message")
    expect(r.publicly_inferable_bits == 2 * n, "publicly_inferable_bits != 2 * message_rounds")
    expect(
        r.capacity_bits_per_message_round == (config.key_mode.bits_per_round if n else 0),
        "capacity does not match the key mode",
    )
    expect(
        r.detection_prob == (r.detections / r.control_rounds if r.control_rounds else 0.0),
        "detection_prob != detections / control_rounds",
    )
    expect(r.aborted == (r.abort_cause is not None), "aborted disagrees with abort_cause")
    if r.abort_cause == ABORT_CONTROL:
        expect(det > 0, "control-round detection without a forward attack")
        expect(r.detections == 1, "a control abort must stop at the first detection")
        expect(r.rounds_total <= config.rounds, "more rounds than configured")
        expect(r.final_key_length == bits, "final_key_length != pre-check length after a control abort")
    else:
        expect(r.abort_cause in (None, ABORT_KEY_CHECK), f"unknown abort cause {r.abort_cause!r}")
        expect(r.detections == 0, "detection without a control abort")
        expect(r.rounds_total == config.rounds, "session ended early without a detection")
        checked = math.ceil(config.check_fraction * bits)
        expect(r.final_key_length == bits - checked, "final_key_length != pre-check length - checked")
        if amp == 0 and phase == 0:
            expect(not r.aborted, "key check aborted on an error-free channel")
    expect(
        abs(r.key_error_rate_overall - (r.key_error_rate_amplitude_bit + r.key_error_rate_phase_bit) / 2)
        <= 1e-12,
        "overall error rate is not the mean of the two positions",
    )
    for position, rate, p in (
        ("amplitude", r.key_error_rate_amplitude_bit, amp),
        ("phase", r.key_error_rate_phase_bit, phase),
    ):
        count = rate * n
        if abs(count - round(count)) > 1e-6:
            problems.append(f"{position} error rate {rate} is not a count over {n} rounds")
        elif n and _binomial_outlier(round(count), n, p):
            problems.append(f"{position} error rate {rate} over {n} rounds is far from the oracle's {p}")
    return problems


def check_rate(what: str, hits: int, trials: int, p: Fraction, k: int) -> list[str]:
    """hits / trials within k binomial standard errors of p."""
    if trials == 0:
        return [f"{what}: no trials"]
    se = math.sqrt(float(p) * (1.0 - float(p)) / trials)
    rate = hits / trials
    if abs(rate - float(p)) > k * se:
        return [f"{what}: {hits}/{trials} = {rate:.5f}, oracle {float(p):.5f} ({k} SE = {k * se:.5f})"]
    return []
