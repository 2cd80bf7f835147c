"""Per-layer attribution for the traced run, measured from outside.

:class:`LayerTracer` wraps public calls into each layer of ``repro``
(class attributes patched for the duration of a ``with`` block and
restored afterwards) and every engine event callback (via
``Engine.schedule_at``, attributed to the layer of the module that
defined the callback).  Each wrapped call is a span:

* its self time — duration minus the time its child spans cover, and
  minus the time a child process spent executing for it — is folded
  into a per-layer total on a per-thread stack, exactly;
* its calls are counted by ``Class.method`` name;
* it is recorded in a :class:`repro.obs.SpanRecorder` (bounded,
  drop-oldest) for Chrome-trace export.

Nothing under ``src/`` changes: the program runs its own code paths,
only slower by the tracing overhead the benchmark reports.
"""

from __future__ import annotations

import importlib
import os
import threading
import time
import weakref
from collections import Counter
from typing import Any, Callable

#: The measured layers, named after the ``repro`` packages.
LAYERS = ("sim", "hw", "qthreads", "rcr", "throttle", "harness", "sched",
          "cluster", "service", "obs")

#: ``repro`` sub-package -> layer.  The OpenMP front end runs on the
#: qthreads runtime; metering backends are the meter reads of rcr.
#: Anything else (apps, kernels, experiments, validate, ...) is "other".
_PACKAGE_LAYER = {
    "sim": "sim", "hw": "hw", "qthreads": "qthreads", "openmp": "qthreads",
    "rcr": "rcr", "metering": "rcr", "throttle": "throttle",
    "harness": "harness", "sched": "sched", "cluster": "cluster",
    "service": "service", "obs": "obs",
}
#: ClusterSim and its per-node stacks live in ``repro.sched.cluster`` but
#: belong to the cluster layer; the rest of ``repro.sched`` is the queue,
#: policies, analytic executor and sketches.
_MODULE_LAYER = {"repro.sched.cluster": "cluster"}

#: Spans at each layer's boundary: (module, class, methods).
SPAN_TARGETS: dict[str, list[tuple[str, str, tuple[str, ...]]]] = {
    "sim": [("repro.sim.engine", "Engine", ("run", "step"))],
    "hw": [("repro.hw.node", "Node", (
        "assign", "set_idle", "set_spin", "set_off", "set_duty",
        "refresh"))],
    "qthreads": [("repro.qthreads.scheduler", "Scheduler", (
        "enqueue", "steal_for", "feb_settle", "apply_throttle",
        "release_throttle", "wake_spinners"))],
    "rcr": [("repro.rcr.daemon", "RCRDaemon", ("start", "stop",
                                                "sample_now"))],
    "throttle": [
        ("repro.throttle.controller", "ThrottleController",
         ("evaluate_once",)),
        ("repro.throttle.clamp", "PowerClampController", ("set_budget",)),
    ],
    "harness": [
        ("repro.harness.cache", "ResultCache", ("get", "put",
                                                "execution_counts")),
        ("repro.harness.executor", "BatchExecutor", ("run",)),
    ],
    "sched": [
        ("repro.sched.policy", "FcfsFirstFit", ("select",)),
        ("repro.sched.policy", "BestFitPower", ("select",)),
        ("repro.sched.policy", "EdpGreedy", ("select",)),
        ("repro.sched.policy", "WaterfillPowerAware", ("select",)),
        ("repro.sched.policy", "PredictedPlacement", ("select",)),
        ("repro.sched.queue", "AdmissionQueue", ("offer", "take")),
        ("repro.sched.analytic", "AnalyticSim", ("run_segment",)),
    ],
    "cluster": [
        ("repro.sched.cluster", "ClusterSim", ("run",)),
        ("repro.sched.cluster", "SchedNode", ("start_job",)),
        ("repro.cluster.coordinator", "PowerCoordinator", ("start",
                                                           "stop")),
    ],
    "service": [
        ("repro.service.journal", "Journal", ("append", "recover")),
        ("repro.service.server", "ExperimentService", (
            "_submit", "_finalize", "_complete_from_cache", "_stats")),
        ("repro.service.queue", "AdmissionQueue", ("push", "pop",
                                                   "finish")),
    ],
    "obs": [
        ("repro.obs.metrics", "Counter", ("inc",)),
        ("repro.obs.metrics", "Gauge", ("set",)),
        ("repro.obs.metrics", "Histogram", ("observe",)),
    ],
}

def _child_exec_s(record: Any) -> float:
    """Seconds the service's forked worker spent executing the spec: the
    returned record's own ``wall_s``, timed inside the child (its cache
    read and write stay on the parent's side of the ledger)."""
    return record.wall_s


#: Module-level functions called through another module's namespace:
#: (namespace module, function name, layer, time spent in a child
#: process).  The child's time is taken out of the span's self time, so
#: the span keeps only the parent side: fork, pipe and wait overhead.
FUNCTION_TARGETS = [
    ("repro.service.workers", "run_spec_subprocess", "harness",
     _child_exec_s),
]

#: Small hot calls that are counted but get no span of their own: a span
#: would cost more than the call and inflate the callee's self time.
COUNT_TARGETS = [
    ("repro.hw.power", "PowerModel", ("socket_power_w",)),
    ("repro.hw.node", "Node", ("energy_j", "total_energy_j", "power_w",
                               "total_power_w", "temp_degc",
                               "counters_snapshot", "window")),
    ("repro.rcr.blackboard", "Blackboard", ("publish", "read",
                                            "read_value")),
]

#: Spans kept for the Chrome trace (drop-oldest beyond this).
MAX_SPANS = 50_000


def layer_of_module(module: str) -> str:
    if module in _MODULE_LAYER:
        return _MODULE_LAYER[module]
    parts = module.split(".")
    if len(parts) < 2 or parts[0] != "repro":
        return "other"
    return _PACKAGE_LAYER.get(parts[1], "other")


def _callable_identity(fn: Any) -> tuple[str, str]:
    """(module, qualname) of a callback, seeing through bound methods and
    ``functools.partial``."""
    while hasattr(fn, "func"):  # functools.partial
        fn = fn.func
    fn = getattr(fn, "__func__", fn)
    return (getattr(fn, "__module__", None) or "?",
            getattr(fn, "__qualname__", None) or type(fn).__name__)


class _ThreadState:
    __slots__ = ("stack", "self_s", "calls", "hits", "span_s", "child_s")

    def __init__(self) -> None:
        #: Open frames: [child_seconds, span].
        self.stack: list[list] = []
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.hits: Counter = Counter()
        #: Span durations, and seconds spent in child processes, by name.
        self.span_s: Counter = Counter()
        self.child_s: Counter = Counter()


class LayerTracer:
    """Context manager that attributes host time to layers."""

    def __init__(self) -> None:
        from repro.obs import SpanRecorder

        self.recorder = SpanRecorder(max_spans=MAX_SPANS)
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._restore: list[tuple[Any, str, Any]] = []
        # A worker forked while another thread holds the lock would
        # deadlock on its first wrapped call: give the child fresh locks
        # and stacks (its spans are never read).
        ref = weakref.ref(self)
        os.register_at_fork(
            after_in_child=lambda: ref() is not None and ref()._forget())

    def _forget(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._states = []

    # ------------------------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def call(self, layer: str, name: str, fn: Callable, args: tuple,
             kwargs: dict,
             child_time: Callable[[Any], float] | None = None) -> Any:
        state = self._state()
        stack = state.stack
        parent = stack[-1][1] if stack else None
        start = time.perf_counter()
        frame = [0.0, None]
        with self._lock:
            frame[1] = self.recorder.start(
                name, parent=parent, at=start, track=layer)
        stack.append(frame)
        try:
            result = fn(*args, **kwargs)
            if child_time is not None:
                elsewhere = child_time(result)
                frame[0] += elsewhere
                state.child_s[name] += elsewhere
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            state.self_s[layer] += duration - frame[0]
            state.span_s[name] += duration
            state.calls[name] += 1
            if stack:
                stack[-1][0] += duration
            with self._lock:
                self.recorder.finish(frame[1], at=end)
        if result is not None:
            state.hits[name] += 1
        return result

    # ------------------------------------------------------------------
    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _span_method(self, cls: type, method: str, layer: str) -> None:
        raw = cls.__dict__[method]
        static = isinstance(raw, staticmethod)
        fn = raw.__func__ if static else raw
        name = f"{cls.__name__}.{method}"
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer.call(layer, name, fn, args, kwargs)

        wrapper.__wrapped__ = fn
        self._patch(cls, method, staticmethod(wrapper) if static else wrapper)

    def _count_method(self, cls: type, method: str) -> None:
        fn = cls.__dict__[method]
        name = f"{cls.__name__}.{method}"
        state_of = self._state

        def wrapper(*args, **kwargs):
            state_of().calls[name] += 1
            return fn(*args, **kwargs)

        self._patch(cls, method, wrapper)

    def _wrap_engine_callbacks(self) -> None:
        from repro.sim.engine import Engine

        original = Engine.__dict__["schedule_at"]
        tracer = self

        def schedule_at(engine, time_s, callback, **kwargs):
            module, qualname = _callable_identity(callback)
            layer = layer_of_module(module)
            name = f"event:{qualname}"

            def fire():
                return tracer.call(layer, name, callback, (), {})

            return original(engine, time_s, fire, **kwargs)

        self._patch(Engine, "schedule_at", schedule_at)

    def __enter__(self) -> "LayerTracer":
        for layer, targets in SPAN_TARGETS.items():
            for module, cls_name, methods in targets:
                cls = getattr(importlib.import_module(module), cls_name)
                for method in methods:
                    self._span_method(cls, method, layer)
        for module, func, layer, child_time in FUNCTION_TARGETS:
            namespace = importlib.import_module(module)
            fn = getattr(namespace, func)
            tracer = self

            def wrapper(*args, _fn=fn, _name=func, _layer=layer,
                        _child=child_time, **kwargs):
                return tracer.call(_layer, _name, _fn, args, kwargs, _child)

            self._patch(namespace, func, wrapper)
        for module, cls_name, methods in COUNT_TARGETS:
            cls = getattr(importlib.import_module(module), cls_name)
            for method in methods:
                self._count_method(cls, method)
        self._wrap_engine_callbacks()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def self_seconds(self) -> dict[str, float]:
        total: Counter = Counter()
        for state in self._states:
            total.update(state.self_s)
        return {layer: total.get(layer, 0.0) for layer in LAYERS + ("other",)}

    def calls(self) -> Counter:
        total: Counter = Counter()
        for state in self._states:
            total.update(state.calls)
        return total

    def span_seconds(self) -> Counter:
        """Total span duration by span name."""
        total: Counter = Counter()
        for state in self._states:
            total.update(state.span_s)
        return total

    def child_seconds(self) -> Counter:
        """Seconds spent in child processes, by span name: not part of
        any layer's self time."""
        total: Counter = Counter()
        for state in self._states:
            total.update(state.child_s)
        return total

    def hits(self) -> Counter:
        total: Counter = Counter()
        for state in self._states:
            total.update(state.hits)
        return total

    def layer_counts(self) -> dict[str, float]:
        """The exact per-layer work counters, by benchmark metric name."""
        calls, hits = self.calls(), self.hits()
        events = sum(n for name, n in calls.items()
                     if name.startswith("event:"))
        steals = calls["Scheduler.steal_for"]
        selects = sum(n for name, n in calls.items()
                      if name.endswith(".select"))
        return {
            "sim.events": events,
            "hw.assign_calls": calls["Node.assign"],
            "hw.mutator_calls": sum(calls[f"Node.{m}"] for m in (
                "set_idle", "set_spin", "set_off", "set_duty")),
            "hw.power_reads": calls["PowerModel.socket_power_w"],
            "qthreads.enqueues": calls["Scheduler.enqueue"],
            "qthreads.steal_attempts": steals,
            "qthreads.steal_hit_ratio": (
                hits["Scheduler.steal_for"] / steals if steals else 0.0),
            "rcr.ticks": calls["event:RCRDaemon._tick"],
            "rcr.publishes": calls["Blackboard.publish"],
            "throttle.evaluations": (
                calls["ThrottleController.evaluate_once"]
                + calls["event:PowerClampController._tick"]),
            "throttle.decisions": (calls["Scheduler.apply_throttle"]
                                   + calls["Scheduler.release_throttle"]),
            "harness.cache_hits": hits["ResultCache.get"],
            "harness.cache_misses": (calls["ResultCache.get"]
                                     - hits["ResultCache.get"]),
            "sched.selects": selects,
            "cluster.coordinator_rounds": calls["event:PowerCoordinator._tick"],
        }
