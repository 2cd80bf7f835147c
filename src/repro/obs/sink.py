"""One instrumentation channel: metrics and spans derived from telemetry.

The harness, the scheduler and the service report each state change
once, as a typed event on a :class:`~repro.harness.telemetry.TelemetryBus`.
:class:`ObsSink` subscribes to that bus and turns events into instrument
updates and spans through one declarative table (:data:`RULES`), so no
instrumented module calls a registry or a tracer, or imports this package.

Events are named ``<package>.<class>`` (``sched.JobPlaced`` is
:class:`repro.sched.telemetry.JobPlaced`) and the package names the
instrument family (:data:`FAMILIES`).  A family is registered, zero
series included, when its opening event arrives (``SweepStarted``,
``JobSubmitted``) or :meth:`ObsSink.open` asks for it; until then its
events are ignored.  So a sweep exports only harness metrics, and an
analytic campaign (whose only event is ``SchedFinished``) exports no
placement counters it never measured.  Scheduler spans carry the events'
sim-time ``time_s`` stamps; the others use the recorder's clock.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.obs.metrics import COUNTER, GAUGE, HISTOGRAM, MetricsRegistry
from repro.obs.trace import SpanRecorder

#: Label values of ``service_events_total``, which are also the keys of
#: the service's ``counters`` view.  :data:`RULES` drives all but
#: ``stream_dropped``, which the service counts itself.
SERVICE_EVENT_KEYS = (
    "accepted", "attached", "cache_hits", "executed",
    "shed_queue", "shed_quota", "shed_draining",
    "retries", "timeouts", "crashes", "requeues",
    "failed", "dead", "cancelled", "recovered",
    "stream_dropped",
)
_STATUSES = ("cached", "executed", "failed", "retried", "requeued")

#: family -> ((name, kind, help, labels, zero label-value tuples), ...).
#: Names, help texts and labels are the exported contract; gauges are
#: high-water marks (``agg="max"``) when snapshots merge.
FAMILIES = {
    "harness": (
        ("harness_runs_total", COUNTER, "Per-spec run outcomes, by status.",
         ("status",), tuple((s,) for s in _STATUSES)),
        ("harness_cache_requests_total", COUNTER,
         "Result-cache lookups before scheduling work, by outcome.",
         ("result",), ()),
        ("harness_cache_puts_total", COUNTER,
         "Records written to the result cache after execution.", (), ()),
        ("harness_pool_rebuilds_total", COUNTER,
         "Broken process pools rebuilt mid-sweep.", (), ()),
        ("harness_run_seconds", HISTOGRAM,
         "Per-spec execution wall seconds (cache hits excluded).", (), ()),
    ),
    "sched": (
        ("sched_jobs_dispatched_total", COUNTER,
         "Jobs placed onto nodes, by policy.", ("policy",), ()),
        ("sched_jobs_shed_total", COUNTER,
         "Arrivals rejected by the full admission queue.", (), ((),)),
        ("sched_policy_select_seconds", HISTOGRAM,
         "Wall seconds per placement-policy select() call.", ("policy",), ()),
        ("sched_clamp_rounds_total", COUNTER,
         "Coordinator rounds with at least one node clamped below its "
         "full thread count.", (), ((),)),
    ),
    "service": (
        ("service_events_total", COUNTER,
         "Job lifecycle and admission events, by kind.", ("event",),
         tuple((key,) for key in SERVICE_EVENT_KEYS)),
        ("service_cache_requests_total", COUNTER,
         "Result-cache lookups on the admission path, by outcome.",
         ("result",), (("hit",), ("miss",))),
        ("service_queue_depth", GAUGE,
         "Jobs waiting in the admission queue.", (), ((),)),
        ("service_in_flight", GAUGE, "Jobs occupying worker slots.",
         (), ((),)),
    ),
}
_OPENERS = ("harness.SweepStarted", "sched.JobSubmitted")
_OPS = {COUNTER: "inc", GAUGE: "set", HISTOGRAM: "observe"}
_SHED_KEYS = {"draining": "shed_draining", "quota": "shed_quota"}


def _runs(status: str) -> tuple:
    return ("harness_runs_total", 1.0, {"status": status})


def _svc(key: str, value: Any = 1.0) -> tuple:
    return ("service_events_total", value, {"event": key})


def _timeout(event) -> Optional[float]:
    return 1.0 if event.reason == "timeout" else None


def _policy(event) -> dict:
    return {"policy": event.policy}


def _job_done(outcome) -> tuple:
    return ("close", lambda e: e.job, lambda e: (None, {"outcome": outcome(e)}))


#: event -> (updates, span).  An update ``(metric, value, labels)`` feeds
#: ``value`` (a constant, an event attribute name, or a callable of the
#: event; ``None`` skips) to the metric's ``inc``/``set``/``observe``;
#: ``labels`` is a dict or a callable of the event.  A span is ``(action,
#: key, make)``: ``open`` starts ``make(e) = (name, track, at, attrs)``
#: under ``key(e)``; ``close`` finishes that span with ``make(e) = (at,
#: attrs)``; ``whole`` records a finished child of it from ``make(e) =
#: (name, track, duration_s, attrs)``, ending now.
RULES: dict[str, tuple] = {
    # -- harness: BatchExecutor sweeps ------------------------------------
    "harness.SweepStarted": ((), ("open", lambda e: e.sweep, lambda e: (
        f"sweep:{e.sweep}", "harness", None,
        {"total": e.total, "workers": e.workers}))),
    "harness.RunCached": ((_runs("cached"), (
        "harness_cache_requests_total", 1.0, {"result": "hit"})), None),
    "harness.RunFinished": ((
        _runs("executed"), ("harness_run_seconds", "wall_s", {})), (
        "whole", lambda e: e.sweep,
        lambda e: (e.label, "harness", e.wall_s, {"index": e.index}))),
    "harness.RunFailed": ((_runs("failed"),), None),
    "harness.RunRetried": ((_runs("retried"),), None),
    "harness.RunRequeued": ((_runs("requeued"),), None),
    "harness.PoolRebuilt": ((("harness_pool_rebuilds_total", 1.0, {}),), None),
    "harness.SweepFinished": ((
        ("harness_cache_requests_total",
         lambda e: (e.total - e.cached) or None if e.cache else None,
         {"result": "miss"}),
        ("harness_cache_puts_total",
         lambda e: e.executed or None if e.cache else None, {})), (
        "close", lambda e: e.sweep, lambda e: (None, {
            "executed": e.executed, "cached": e.cached, "failed": e.failed}))),
    # -- sched: ClusterSim campaigns --------------------------------------
    "sched.JobSubmitted": ((), None),
    "sched.JobRejected": ((("sched_jobs_shed_total", 1.0, {}),), None),
    "sched.JobPlaced": ((
        ("sched_jobs_dispatched_total", 1.0, _policy),
        ("sched_policy_select_seconds", "select_s", _policy)), (
        "open", lambda e: e.node, lambda e: (
            f"{e.app}:j{e.index}", e.node, e.time_s,
            {"threads": e.threads, "policy": e.policy, "wait_s": e.wait_s}))),
    "sched.PolicyHeld": ((
        ("sched_policy_select_seconds", "select_s", _policy),), None),
    "sched.JobFinished": ((), ("close", lambda e: e.node,
                               lambda e: (e.time_s, {"energy_j": e.energy_j}))),
    "sched.SchedFinished": ((
        ("sched_jobs_dispatched_total", 0.0, _policy),
        ("sched_clamp_rounds_total", "clamp_rounds", {})), None),
    # -- service: ExperimentService lifecycle -----------------------------
    "service.JobAccepted": ((_svc("accepted"),), None),
    "service.JobAttached": ((_svc("attached"),), None),
    "service.JobCacheHit": ((_svc("cache_hits"), (
        "service_cache_requests_total", 1.0, {"result": "hit"})), None),
    "service.JobShed": ((("service_events_total", 1.0, lambda e: {
        "event": _SHED_KEYS.get(e.reason, "shed_queue")}),), None),
    "service.JobStarted": ((), ("open", lambda e: e.job, lambda e: (
        f"job:{e.kind}", "workers", None,
        {"job": e.job, "digest": e.digest[:12], "attempt": e.attempt}))),
    "service.JobFinished": ((_svc("executed"),), _job_done(lambda e: "ok")),
    "service.WorkerCrashDetected": ((_svc("crashes"),),
                                    _job_done(lambda e: "crash")),
    "service.JobRequeued": ((_svc("requeues"),), None),
    "service.JobRetried": ((_svc("retries"), _svc("timeouts", _timeout)),
                           _job_done(lambda e: e.reason)),
    "service.JobDead": ((_svc("dead"), _svc("timeouts", _timeout)),
                        _job_done(lambda e: e.reason)),
    "service.JobFailed": ((_svc("failed"),), _job_done(lambda e: "error")),
    "service.JobCancelled": ((_svc("cancelled"),),
                             _job_done(lambda e: "cancelled")),
    "service.ServiceRecovered": ((_svc(
        "recovered", lambda e: e.requeued + e.cache_hits),), None),
    "service.QueueDepthChanged": ((
        ("service_queue_depth", "depth", {}),
        ("service_in_flight", "in_flight", {})), None),
}


def event_name(cls: type) -> str:
    """``repro.sched.telemetry.JobPlaced`` -> ``"sched.JobPlaced"``."""
    package = cls.__module__.partition(".")[2].partition(".")[0]
    return f"{package}.{cls.__name__}"


class ObsSink:
    """Telemetry sink filling a registry and/or a span recorder.

    Attach with ``bus.subscribe(ObsSink(registry, tracer))``; either may
    be ``None``.  It only reads events, so results are bit-identical with
    or without it.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 tracer: Optional[SpanRecorder] = None) -> None:
        self.registry = registry
        self.tracer = tracer
        self._families: set[str] = set()
        self._instruments: dict[str, Any] = {}
        self._spans: dict[tuple, Any] = {}

    def open(self, family: str) -> None:
        """Register ``family``'s instruments and zero series (idempotent)."""
        if family in self._families:
            return
        self._families.add(family)
        for name, kind, help_text, labels, zeros in (
                FAMILIES[family] if self.registry is not None else ()):
            extra = {"agg": "max"} if kind == GAUGE else {}
            inst = getattr(self.registry, kind)(name, help_text, labels,
                                                **extra)
            self._instruments[name] = inst
            for values in zeros:
                getattr(inst, _OPS[kind])(0.0, **dict(zip(labels, values)))

    def handle(self, event: Any) -> None:
        name = event_name(type(event))
        rule = RULES.get(name)
        if rule is None:
            return
        family = name.split(".")[0]
        if family not in self._families:
            if name not in _OPENERS:
                return
            self.open(family)
        updates, span = rule
        if self.registry is not None:
            for metric, value, labels in updates:
                if callable(value):
                    value = value(event)
                    if value is None:
                        continue
                elif isinstance(value, str):
                    value = getattr(event, value)
                inst = self._instruments[metric]
                getattr(inst, _OPS[inst.kind])(
                    value, **(labels(event) if callable(labels) else labels))
        if self.tracer is not None and span is not None:
            self._span(event, family, *span)

    def _span(self, event, family: str, action: str, key, make) -> None:
        tracer, key = self.tracer, (family, key(event))
        if action == "open":
            name, track, at, attrs = make(event)
            self._spans[key] = tracer.start(name, at=at, track=track, **attrs)
        elif action == "close":
            opened = self._spans.pop(key, None)
            if opened is not None:
                at, attrs = make(event)
                tracer.finish(opened, at=at, **attrs)
        else:
            # The run happened in a worker: rebuild its span on this
            # timeline, ending now and lasting as long as the run did.
            name, track, duration_s, attrs = make(event)
            end = tracer.now()
            tracer.finish(tracer.start(
                name, parent=self._spans.get(key), at=end - duration_s,
                track=track, **attrs), at=end)
