"""The workloads of the qdkd benchmark and the loop that measures them.

Each workload is a closed loop in one thread: one operation at a time, the
next starting when the previous returns. An operation is one session (run
and serialize its report) or one exact oracle query. A run repeats whole
cycles until --seconds have passed; a cycle answers the workload's fixed
oracle query set once and then runs its sessions. Session seeds come from the
workload seed only. The benchmark calls qdkd through its public names and
looks them up at call time (``qdkd.run_session(...)``), so the tracer's
wrappers are seen.

Timings are reported in nominal seconds: wall seconds scaled by how fast the
process ran a fixed piece of reference work around the time they were taken.
The speed of a shared host drifts with its neighbours' load, by up to 2x over
minutes here, and the reference work slows with the simulator, so nominal
seconds are far steadier from run to run than wall seconds (NOTES.md).
"""

import hashlib
import resource
from array import array
import statistics
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction

import qdkd

import gate
from tracer import Tracer, per_layer_names, per_layer_values

ATTACKS = {
    "none": qdkd.NoAttack(),
    "bwd-z": qdkd.InterceptResend(qdkd.ChannelLeg.BACKWARD, qdkd.EveBasisPolicy.Z),
    "bwd-x": qdkd.InterceptResend(qdkd.ChannelLeg.BACKWARD, qdkd.EveBasisPolicy.X),
    "bwd-random": qdkd.InterceptResend(qdkd.ChannelLeg.BACKWARD, qdkd.EveBasisPolicy.RANDOM),
    "fwd-z": qdkd.InterceptResend(qdkd.ChannelLeg.FORWARD, qdkd.EveBasisPolicy.Z),
    "fwd-x": qdkd.InterceptResend(qdkd.ChannelLeg.FORWARD, qdkd.EveBasisPolicy.X),
    "fwd-random": qdkd.InterceptResend(qdkd.ChannelLeg.FORWARD, qdkd.EveBasisPolicy.RANDOM),
}
CHECK_FRACTION = 0.1

REFERENCE_NOMINAL_S = 0.002  # the reference work takes this long at nominal speed
CALIBRATE_EVERY_S = 0.05  # reference runs between operations at most this far apart
CALIBRATION_WINDOW_S = 0.25  # reference runs this close to an operation calibrate it


def reference_work():
    """Fixed pure-Python work of the simulator's kind: tuples of complex
    amplitudes, float arithmetic and dict stores."""
    amps = (0.5 + 0.5j, 0.5 - 0.5j, 0.5j, 0.5 + 0j)
    table, acc = {}, 0.0
    for i in range(6000):
        amps = (amps[1], -amps[0], amps[3], -amps[2])
        acc += amps[0].real * amps[0].real + amps[1].imag * amps[1].imag
        table[i & 63] = amps
    return acc


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


class Clock:
    """Runs the reference work between operations and converts the wall
    seconds of an operation into nominal seconds."""

    def __init__(self):
        self.times: list[float] = []  # when each reference run started
        self.seconds: list[float] = []  # how long it took
        self._last = -float("inf")

    def tick(self, force=False):
        now = time.perf_counter()
        if force or now - self._last >= CALIBRATE_EVERY_S:
            self.seconds.append(time_reference())
            self.times.append(now)
            self._last = now

    def nominal(self, start: float, seconds: float) -> float:
        """Scale by the median reference time within the window around the operation."""
        lo = bisect_left(self.times, start - CALIBRATION_WINDOW_S)
        hi = bisect_right(self.times, start + seconds + CALIBRATION_WINDOW_S)
        nearby = self.seconds[lo:hi] or [self.seconds[min(lo, len(self.seconds) - 1)]]
        return seconds * REFERENCE_NOMINAL_S / statistics.median(nearby)


@dataclass(frozen=True)
class Size:
    long_rounds: int  # rounds of each long-session session in a measured run
    trace_long_rounds: int  # the same in the traced run, which keeps every span
    short_sessions: int  # short-sessions sessions per cycle
    cross_sessions: int  # oracle-abort cross-check sessions per cycle
    tiny: bool  # oracle points at their tiny n


# "full" is what BENCHMARK.json runs; "tiny" exists for the benchmark's tests.
SIZES = {
    "full": Size(long_rounds=15_000, trace_long_rounds=4_000, short_sessions=1_000, cross_sessions=500, tiny=False),
    "tiny": Size(long_rounds=200, trace_long_rounds=100, short_sessions=40, cross_sessions=40, tiny=True),
}


@dataclass(frozen=True)
class Scenario:
    label: str
    attack: str
    control_prob: float
    key_mode: str = "combined"
    thr: int = 0  # key-check mismatch threshold


@dataclass(frozen=True)
class AbortPoint:
    """One exact abort_probability query, at key-check fraction 0.1."""

    label: str
    attack: str
    key_mode: str
    thr: int
    n: int
    tiny_n: int
    cross_check: bool = False  # oracle-abort also simulates sessions of this point

    def rounds(self, size: Size) -> int:
        return self.tiny_n if size.tiny else self.n

    def key(self, size: Size) -> tuple:
        return (self.attack, self.key_mode, self.rounds(size), self.thr)


# The ROADMAP matrix minus the scenarios that end early: control rounds see
# neither honest runs nor backward attacks, and forward attacks run without
# control rounds, so every session runs all its rounds.
LONG_SCENARIOS = (
    Scenario("honest-combined", "none", 0.5),
    Scenario("honest-single", "none", 0.5, "single-bob"),
    Scenario("bwd-z", "bwd-z", 0.5),
    Scenario("bwd-x", "bwd-x", 0.5),
    Scenario("bwd-random", "bwd-random", 0.5),
    Scenario("fwd-z-nocontrol", "fwd-z", 0.0),
    Scenario("fwd-x-nocontrol", "fwd-x", 0.0),
    Scenario("fwd-random-nocontrol", "fwd-random", 0.0),
)

# Shaped like acceptance criterion 6: 60-round sessions under a forward
# attack, which mostly end at their first detection after about 8 rounds.
SHORT_SCENARIOS = (Scenario("fwd-z", "fwd-z", 0.5), Scenario("fwd-random", "fwd-random", 0.5))
SHORT_ROUNDS = 60

# A subset of backward-IR {Z, random} x {combined, single} x n {100, 200} x
# thr {0, 3} that fits a run, plus two small points whose abort probability
# lies well inside (0, 1) and which sessions cross-check.
ABORT_POINTS = (
    AbortPoint("z-combined-thr0", "bwd-z", "combined", 0, 100, 4),
    AbortPoint("random-combined-thr0", "bwd-random", "combined", 0, 100, 4),
    AbortPoint("z-single-thr0", "bwd-z", "single-alice", 0, 200, 8),
    AbortPoint("random-single-thr3", "bwd-random", "single-alice", 3, 100, 6),
    AbortPoint("xcheck-z-combined-thr0", "bwd-z", "combined", 0, 10, 6, cross_check=True),
    AbortPoint("xcheck-random-single-thr0", "bwd-random", "single-alice", 0, 10, 6, cross_check=True),
)


@dataclass(frozen=True)
class Session:
    label: str
    attack: str
    config: object  # qdkd.SimConfig


@dataclass(frozen=True)
class Workload:
    name: str
    exact_attacks: tuple[str, ...]  # exact_oracle queries of the query set
    abort_points: tuple[AbortPoint, ...]  # abort_probability queries of the query set


WORKLOADS = {
    "long-session": Workload("long-session", ("none", "bwd-z", "bwd-x", "bwd-random", "fwd-z", "fwd-x", "fwd-random"), ()),
    "short-sessions": Workload("short-sessions", ("fwd-z", "fwd-random"), ()),
    "oracle-abort": Workload("oracle-abort", ("bwd-z", "bwd-random"), ABORT_POINTS),
}


def session_seed(workload: str, seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _config(rounds, control_prob, key_mode, attack, seed, thr=0):
    return qdkd.SimConfig(
        rounds=rounds,
        control_prob=control_prob,
        key_mode=qdkd.KeyMode(key_mode),
        check_fraction=CHECK_FRACTION,
        mismatch_threshold=thr,
        attack=ATTACKS[attack],
        seed=seed,
    )


def cycle_sessions(workload: str, size: Size, seed: int, cycle: int, traced: bool) -> list[Session]:
    """The sessions of one cycle, in order."""
    if workload == "long-session":
        rounds = size.trace_long_rounds if traced else size.long_rounds
        kinds, count = [(s, rounds) for s in LONG_SCENARIOS], len(LONG_SCENARIOS)
    elif workload == "short-sessions":
        kinds, count = [(s, SHORT_ROUNDS) for s in SHORT_SCENARIOS], size.short_sessions
    else:
        kinds = [
            (Scenario(p.label, p.attack, 0.0, p.key_mode, p.thr), p.rounds(size)) for p in ABORT_POINTS if p.cross_check
        ]
        count = size.cross_sessions
    out = []
    for i in range(count):
        s, rounds = kinds[i % len(kinds)]
        seed_i = session_seed(workload, seed, cycle * count + i)
        config = _config(rounds, s.control_prob, s.key_mode, s.attack, seed_i, s.thr)
        out.append(Session(s.label, s.attack, config))
    return out


@dataclass
class Tally:
    """What a pass over operations produced: counts, timings and outputs."""

    tracer: Tracer | None = None
    clock: Clock | None = None  # set in measured runs; timings stay wall seconds without it
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    # Start and wall seconds of each session, in flat arrays so that the
    # benchmark's own memory stays small next to the program's.
    session_start: array = field(default_factory=lambda: array("d"))
    session_wall: array = field(default_factory=lambda: array("d"))
    rounds: int = 0
    query_spans: list[list[tuple[float, float]]] = field(default_factory=list)  # per cycle
    # (rounds, first session, end of sessions) of each cycle
    cycle_work: list[tuple[int, int, int]] = field(default_factory=list)
    point_s: dict[str, list[float]] = field(default_factory=dict)
    # Running hash of every output (serialized report or query value), so
    # that the traced pass can be compared with the untraced one.
    outputs: object = field(default_factory=hashlib.sha256)
    # label -> [sessions, aborted, detections, control rounds]
    per_label: dict[str, list[int]] = field(default_factory=dict)
    first_session: tuple | None = None

    def output(self, data: bytes):
        self.outputs.update(len(data).to_bytes(8, "little") + data)

    def attempt(self, what, operation) -> None:
        """Run one operation, which returns its problems; count it."""
        if self.tracer is not None:
            self.tracer.session_id = self.attempted
        if self.clock is not None:
            self.clock.tick()
        try:
            problems = operation()
        except Exception as exc:  # a raising operation counts as failed; the run goes on
            problems = [f"{type(exc).__name__}: {exc}"]
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{what}: {problems[0]}")


def _exact_query(attack, tally):
    t0 = time.perf_counter()
    result = qdkd.exact_oracle(ATTACKS[attack])
    tally.query_spans[-1].append((t0, time.perf_counter() - t0))
    tally.output(repr(result).encode())
    return gate.check_exact(attack, result)


def _abort_query(point, size, tally):
    attack, key_mode, n, thr = point.key(size)
    policy = qdkd.KeyCheckPolicy(CHECK_FRACTION, thr)
    t0 = time.perf_counter()
    value = qdkd.abort_probability(ATTACKS[attack], policy, n, qdkd.KeyMode(key_mode))
    seconds = time.perf_counter() - t0
    tally.query_spans[-1].append((t0, seconds))
    tally.output(str(value).encode())
    tally.point_s.setdefault(point.label, []).append(seconds)
    return gate.check_abort(point.key(size), value)


def _session(session, tally):
    t0 = time.perf_counter()
    result = qdkd.run_session(session.config)
    data = qdkd.serialize_report(result.report)
    seconds = time.perf_counter() - t0
    report = result.report
    tally.session_start.append(t0)
    tally.session_wall.append(seconds)
    tally.rounds += report.rounds_total
    tally.output(data)
    stats = tally.per_label.setdefault(session.label, [0, 0, 0, 0])
    stats[0] += 1
    stats[1] += report.aborted
    stats[2] += report.detections
    stats[3] += report.control_rounds
    if tally.first_session is None:
        tally.first_session = (session.config, data)
    return gate.check_session(session.config, session.attack, report)


def run_cycle(workload: Workload, size: Size, seed: int, cycle: int, tally: Tally, traced=False):
    tally.query_spans.append([])
    for attack in workload.exact_attacks:
        tally.attempt(f"exact_oracle({attack})", lambda: _exact_query(attack, tally))
    for point in workload.abort_points:
        tally.attempt(f"abort_probability {point.label}", lambda: _abort_query(point, size, tally))
    first, rounds = len(tally.session_wall), tally.rounds
    for session in cycle_sessions(workload.name, size, seed, cycle, traced):
        tally.attempt(f"session {session.label}", lambda: _session(session, tally))
    tally.cycle_work.append((tally.rounds - rounds, first, len(tally.session_wall)))


def _replay(tally):
    """Run the first session again with the same config; compare its bytes."""
    config, data = tally.first_session
    again = qdkd.serialize_report(qdkd.run_session(config).report)
    return [] if again == data else ["replayed session serialized to different bytes"]


def _aggregates(workload: Workload, size: Size, tally: Tally):
    """Checks over all sessions of a run, each counted as one operation."""
    if workload.name == "short-sessions":
        detections = sum(tally.per_label[s.label][2] for s in SHORT_SCENARIOS)
        control = sum(tally.per_label[s.label][3] for s in SHORT_SCENARIOS)
        (p,) = {gate.recorded_exact(s.attack)[0] for s in SHORT_SCENARIOS}
        tally.attempt(
            "aggregate detection rate",
            lambda: gate.check_rate("detection rate", detections, control, p, gate.DETECTION_SE),
        )
    for point in workload.abort_points:
        if point.cross_check:
            sessions, aborted = tally.per_label[point.label][:2]
            p = Fraction(gate.RECORDED_ABORT[point.key(size)])
            tally.attempt(
                f"abort frequency {point.label}",
                lambda: gate.check_rate(f"abort frequency {point.label}", aborted, sessions, p, gate.ABORT_SE),
            )


def warm_up(workload: str):
    """The one call setup_s times after the import."""
    if workload == "oracle-abort":
        qdkd.abort_probability(ATTACKS["bwd-z"], qdkd.KeyCheckPolicy(CHECK_FRACTION, 0), 4)
    else:
        config = _config(200, 0.5, "combined", "fwd-z" if workload == "short-sessions" else "bwd-z", 1)
        qdkd.serialize_report(qdkd.run_session(config).report)


def measure(name: str, size_name: str, seed: int, seconds: float) -> tuple[Tally, dict]:
    """Whole cycles until seconds have passed, then the replay and aggregate checks."""
    workload, size = WORKLOADS[name], SIZES[size_name]
    tally = Tally(clock=Clock())
    start = time.perf_counter()
    cycles = 0
    while cycles == 0 or time.perf_counter() - start < seconds:
        run_cycle(workload, size, seed, cycles, tally)
        if cycles == 0:
            # The first cycle has run every kind of operation of the
            # workload; later cycles repeat them and add only bookkeeping.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        cycles += 1
    tally.clock.tick(force=True)
    wall = time.perf_counter() - start
    if tally.first_session is not None:
        tally.attempt("replay", lambda: _replay(tally))
    _aggregates(workload, size, tally)
    return tally, {"cycles": cycles, "wall_s": wall, "peak_rss_mb": peak_rss_mb}


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _timings(session_s: list[float], set_s: list[float], cycle_work) -> dict:
    """The timing metrics from per-session and per-query-set seconds.
    Throughputs are medians over cycles, which all do the same mix of work;
    a cycle whose sessions all failed has no time and is left out."""
    timed = [(r, b - a, sum(session_s[a:b])) for r, a, b in cycle_work if b > a]
    return {
        "rounds_per_s": (statistics.median(r / s for r, _n, s in timed), "rounds/s"),
        "sessions_per_s": (statistics.median(n / s for _r, n, s in timed), "sessions/s"),
        "session_ms_p50": (statistics.median(session_s) * 1e3, "ms"),
        "session_ms_p99": (percentile(session_s, 99) * 1e3, "ms"),
        "oracle_s": (statistics.median(set_s), "s"),
    }


def end_to_end(tally: Tally, setup: tuple[float, float], peak_rss_mb: float) -> tuple[dict, dict]:
    """The end-to-end metrics (name -> (value, unit)) in nominal seconds, and
    details: sample counts and the same timings in wall seconds. setup is
    (nominal, wall) seconds."""
    clock = tally.clock
    nominal = _timings(
        [clock.nominal(t, s) for t, s in zip(tally.session_start, tally.session_wall)],
        [sum(clock.nominal(t, s) for t, s in spans) for spans in tally.query_spans],
        tally.cycle_work,
    )
    wall = _timings(
        list(tally.session_wall),
        [sum(s for _t, s in spans) for spans in tally.query_spans],
        tally.cycle_work,
    )
    metrics = {
        "setup_s": (setup[0], "s"),
        **{k: v for k, v in nominal.items() if k != "oracle_s"},
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "oracle_s": nominal["oracle_s"],
    }
    p99 = wall["session_ms_p99"][0] / 1e3
    details = {
        "sessions": len(tally.session_wall),
        "rounds": tally.rounds,
        "sessions_above_p99": sum(1 for s in tally.session_wall if s > p99),
        "query_sets": len(tally.query_spans),
        "reference_runs": len(clock.seconds),
        "reference_ms_median": statistics.median(clock.seconds) * 1e3,
        "wall_seconds": {"setup_s": setup[1], **{k: v for k, (v, _unit) in wall.items()}},
    }
    return metrics, details


def trace(name: str, size_name: str, seed: int) -> tuple[Tally, dict, dict]:
    """One cycle untraced, then the same cycle traced; per-layer metrics."""
    workload, size = WORKLOADS[name], SIZES[size_name]
    warm_up(name)
    plain = Tally()
    t0 = time.perf_counter()
    run_cycle(workload, size, seed, 0, plain, traced=True)
    plain_wall = time.perf_counter() - t0
    _aggregates(workload, size, plain)

    tracer = Tracer()
    traced = Tally(tracer=tracer)
    with tracer:
        t0 = time.perf_counter()
        run_cycle(workload, size, seed, 0, traced, traced=True)
        traced_wall = time.perf_counter() - t0
    tracer.session_id = -1

    tally = plain
    tally.attempted += traced.attempted
    tally.failed += traced.failed
    tally.failures += traced.failures
    tally.attempt(
        "traced outputs equal untraced",
        lambda: [] if traced.outputs.digest() == plain.outputs.digest() else ["traced run serialized different outputs"],
    )

    values = per_layer_values(tracer)
    for point in ABORT_POINTS:
        values[f"oracle.point.{point.label}.s"] = sum(traced.point_s.get(point.label, [0.0]))
    self_total = sum(v for k, v in values.items() if k.endswith(".self_s"))
    values["trace.wall_s"] = traced_wall
    values["trace.untraced_wall_s"] = plain_wall
    values["trace.overhead_s"] = traced_wall - plain_wall
    values["trace.unattributed_s"] = traced_wall - self_total
    values["gate.op_failure_rate"] = tally.failed / tally.attempted
    units = dict(layer_metric_names())
    metrics = {k: (values[k], units[k]) for k, _unit in layer_metric_names()}
    details = {"spans": len(tracer.start), "not_observed": tracer.not_observed, "sessions": len(traced.session_wall)}
    return tally, metrics, details


def layer_metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in BENCHMARK.json order."""
    return (
        per_layer_names()
        + [(f"oracle.point.{p.label}.s", "s") for p in ABORT_POINTS]
        + [
            ("trace.wall_s", "s"),
            ("trace.untraced_wall_s", "s"),
            ("trace.overhead_s", "s"),
            ("trace.unattributed_s", "s"),
            ("gate.op_failure_rate", "ratio"),
        ]
    )
