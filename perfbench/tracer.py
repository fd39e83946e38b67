"""Span tracer that observes qdkd's layers from outside the package.

Installing the tracer replaces each traced function by a wrapper that records
one span per call: name, start, end, parent span and session id. Spans live in
memory in flat arrays until the run ends. A function is replaced under every
name that refers to it in any loaded ``qdkd`` module, so call sites that
imported it by name see the wrapper too. A traced name that no longer exists
is reported as not observed instead of failing the run.

``numpy.random.default_rng`` is wrapped so that the generators the protocol
creates are proxies: each draw is a span named ``rng`` and a count in
``rng.draws``, and the proxy returns exactly what the generator returns.
"""

import functools
import importlib
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (layer, module, public functions) in the order the metrics are listed.
LAYERS = (
    (
        "kernels",
        "qdkd._kernels_py",
        ("apply_u", "qubit_probs", "measure_qubit", "bell_probs", "measure_bell", "norm_sq"),
    ),
    ("quantum", "qdkd.quantum", ("state_validate", "apply_local", "measure_qubit", "measure_bell", "bell_state")),
    ("adversary", "qdkd.adversary", ("apply_attack",)),
    (
        "protocol",
        "qdkd.protocol",
        (
            "alice_prepare",
            "bob_choose_mode",
            "run_control_round",
            "run_message_round",
            "accumulate_key",
            "key_check",
        ),
    ),
    ("simulate", "qdkd.simulate", ("run_session", "serialize_report")),
    ("oracle", "qdkd.oracle", ("message_error_distribution", "control_detection_probability", "abort_probability")),
)

# Counters recorded at a layer boundary, from the value the function returns.
COUNTERS = ("rng.draws", "adversary.intercepts", "protocol.key_check.positions", "simulate.transcript_messages")

RNG_SPAN = "rng"


def _intercepted(result):
    return 1 if isinstance(result, tuple) and len(result) == 2 and result[1] is not None else 0


# Traced function -> (counter, increment as a function of its return value).
COUNT_HOOKS = {
    "adversary.apply_attack": ("adversary.intercepts", _intercepted),
    "protocol.key_check": ("protocol.key_check.positions", lambda r: len(getattr(r, "positions", ()))),
    "simulate.run_session": ("simulate.transcript_messages", lambda r: len(getattr(r, "transcript", ()))),
}


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.session = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self.session_id = -1
        self.not_observed: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn, count=None):
        """fn with a span named name around every call. count is an optional
        (counter name, increment as a function of the return value) pair."""
        nid = self._intern(name)
        stack, name_a, parent_a, session_a = self._stack, self.name_id, self.parent, self.session
        start_a, end_a, counters, clock = self.start, self.end, self.counters, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start_a)
            name_a.append(nid)
            parent_a.append(stack[-1] if stack else -1)
            session_a.append(self.session_id)
            start_a.append(0.0)
            end_a.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start_a[idx] = t0
                end_a[idx] = t1
            if count is not None:
                counters[count[0]] += count[1](result)
            return result

        return traced

    def _replace(self, owner, attr, name, count=None):
        original = getattr(owner, attr, None)
        if original is None:
            self.not_observed.append(name)
            return
        self._patch(original, self.wrap(name, original, count), owner)

    def _patch(self, original, replacement, owner):
        """Point every name bound to original, in owner and in any loaded
        qdkd module, at replacement."""
        targets = {id(owner): owner}
        for module_name, module in sorted(sys.modules.items()):
            if module_name == "qdkd" or module_name.startswith("qdkd."):
                targets.setdefault(id(module), module)
        for target in targets.values():
            for key, value in list(vars(target).items()):
                if value is original:
                    setattr(target, key, replacement)
                    self._patches.append((target, key, original))

    def install(self):
        for layer, module_name, functions in LAYERS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.not_observed.extend(f"{layer}.{fn}" for fn in functions)
                continue
            for fn in functions:
                name = f"{layer}.{fn}"
                if name == "quantum.state_validate":
                    owner, attr = getattr(module, "TwoQubitState", None), "__post_init__"
                    if owner is None or attr not in vars(owner):
                        self.not_observed.append(name)
                        continue
                    self._replace(owner, attr, name)
                else:
                    self._replace(module, fn, name, COUNT_HOOKS.get(name))
        real_default_rng = np.random.default_rng
        construct = self.wrap(RNG_SPAN, real_default_rng)
        draw_count = ("rng.draws", lambda _result: 1)
        tracer = self

        class TracedGenerator:
            """Delegates to a numpy Generator; every method call is a draw."""

            def __init__(self, generator):
                self._generator = generator

            def __getattr__(self, attr):
                value = getattr(self._generator, attr)
                if callable(value):
                    value = tracer.wrap(RNG_SPAN, value, draw_count)
                setattr(self, attr, value)
                return value

        def default_rng(*args, **kwargs):
            return TracedGenerator(construct(*args, **kwargs))

        self._patch(real_default_rng, default_rng, np.random)
        return self

    def uninstall(self):
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds). Self time is a span's duration minus
        the durations of its direct children, so self times sum to the time
        covered by root spans."""
        if not self.start:
            return {}
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        names = np.frombuffer(self.name_id, dtype=np.int32)
        self_time = dur.copy()
        has_parent = parent >= 0
        np.subtract.at(self_time, parent[has_parent], dur[has_parent])
        calls = np.bincount(names, minlength=len(self.names))
        seconds = np.bincount(names, weights=self_time, minlength=len(self.names))
        return {name: (int(calls[i]), float(seconds[i])) for i, name in enumerate(self.names)}


def per_layer_names() -> list[tuple[str, str]]:
    """(metric, unit) for every per-layer metric the tracer yields."""
    out = []
    for layer, _module, functions in LAYERS:
        for fn in functions:
            out += [(f"{layer}.{fn}.calls", "count"), (f"{layer}.{fn}.self_s", "s")]
    out += [("rng.draws", "count"), ("rng.self_s", "s")]
    out += [(c, "count") for c in COUNTERS if c != "rng.draws"]
    return out


def per_layer_values(tracer: Tracer) -> dict[str, float]:
    totals = tracer.layer_totals()
    values = {}
    for layer, _module, functions in LAYERS:
        for fn in functions:
            calls, seconds = totals.get(f"{layer}.{fn}", (0, 0.0))
            values[f"{layer}.{fn}.calls"] = calls
            values[f"{layer}.{fn}.self_s"] = seconds
    values["rng.self_s"] = totals.get(RNG_SPAN, (0, 0.0))[1]
    for counter in COUNTERS:
        values[counter] = tracer.counters.get(counter, 0)
    return values
