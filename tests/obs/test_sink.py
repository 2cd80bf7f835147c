"""ObsSink: every mapped event moves exactly the series it should.

The expectations below are written out by hand, independently of the
sink's own table, so a mapping that drifts (a wrong label, a dropped
update, an extra one) fails here rather than in a dashboard.
"""

import dataclasses
import time
from types import SimpleNamespace

import pytest

from repro.harness import telemetry as h
from repro.harness.telemetry import TelemetryBus
from repro.obs import MetricsRegistry, ObsSink, SpanRecorder
from repro.obs.metrics import HISTOGRAM
from repro.obs.sink import FAMILIES, RULES, event_name
from repro.sched import telemetry as s
from repro.sched.spec import SchedSpec
from repro.service import telemetry as v
from repro.service.client import ServiceClient
from repro.service.server import EVENT_KEYS, ServiceConfig
from repro.service.testing import ServiceThread

pytestmark = pytest.mark.obs

_SAMPLE = {"str": "x", "int": 2, "float": 0.5, "bool": False}


def make(cls, **fields):
    """An instance of event ``cls`` with placeholder field values."""
    values = {f.name: _SAMPLE[f.type] for f in dataclasses.fields(cls)}
    values.update(fields)
    return cls(**values)


EV = "service_events_total"

#: (event, {(metric, label values): expected change}).  Histograms
#: change by their observation count; a 0 marks a series that appears.
CASES = [
    (make(h.SweepStarted), {}),
    (make(h.RunCached), {("harness_runs_total", ("cached",)): 1,
                         ("harness_cache_requests_total", ("hit",)): 1}),
    (make(h.RunFinished), {("harness_runs_total", ("executed",)): 1,
                           ("harness_run_seconds", ()): 1}),
    (make(h.RunFailed), {("harness_runs_total", ("failed",)): 1}),
    (make(h.RunRetried), {("harness_runs_total", ("retried",)): 1}),
    (make(h.RunRequeued), {("harness_runs_total", ("requeued",)): 1}),
    (make(h.PoolRebuilt), {("harness_pool_rebuilds_total", ()): 1}),
    (make(h.SweepFinished, total=5, cached=2, executed=3, cache=True),
     {("harness_cache_requests_total", ("miss",)): 3,
      ("harness_cache_puts_total", ()): 3}),
    (make(h.SweepFinished, total=5, cached=2, executed=3, cache=False), {}),
    (make(s.JobSubmitted), {}),
    (make(s.JobRejected), {("sched_jobs_shed_total", ()): 1}),
    (make(s.JobPlaced, policy="edp"),
     {("sched_jobs_dispatched_total", ("edp",)): 1,
      ("sched_policy_select_seconds", ("edp",)): 1}),
    (make(s.PolicyHeld, policy="edp"),
     {("sched_policy_select_seconds", ("edp",)): 1}),
    (make(s.JobFinished), {}),
    (make(s.SchedFinished, policy="edp", clamp_rounds=4),
     {("sched_jobs_dispatched_total", ("edp",)): 0,
      ("sched_clamp_rounds_total", ()): 4}),
    (make(v.JobAccepted), {(EV, ("accepted",)): 1}),
    (make(v.JobAttached), {(EV, ("attached",)): 1}),
    (make(v.JobCacheHit), {(EV, ("cache_hits",)): 1,
                           ("service_cache_requests_total", ("hit",)): 1}),
    (make(v.JobShed, reason="queue-full"), {(EV, ("shed_queue",)): 1}),
    (make(v.JobShed, reason="quota"), {(EV, ("shed_quota",)): 1}),
    (make(v.JobShed, reason="draining"), {(EV, ("shed_draining",)): 1}),
    (make(v.JobStarted), {}),
    (make(v.JobFinished), {(EV, ("executed",)): 1}),
    (make(v.WorkerCrashDetected), {(EV, ("crashes",)): 1}),
    (make(v.JobRequeued), {(EV, ("requeues",)): 1}),
    (make(v.JobRetried, reason="timeout"), {(EV, ("retries",)): 1,
                                            (EV, ("timeouts",)): 1}),
    (make(v.JobRetried, reason="error"), {(EV, ("retries",)): 1}),
    (make(v.JobDead, reason="timeout"), {(EV, ("dead",)): 1,
                                         (EV, ("timeouts",)): 1}),
    (make(v.JobDead, reason="poison"), {(EV, ("dead",)): 1}),
    (make(v.JobFailed), {(EV, ("failed",)): 1}),
    (make(v.JobCancelled), {(EV, ("cancelled",)): 1}),
    (make(v.ServiceRecovered, requeued=3, cache_hits=2),
     {(EV, ("recovered",)): 5}),
    (make(v.QueueDepthChanged, depth=3, in_flight=1),
     {("service_queue_depth", ()): 3, ("service_in_flight", ()): 1}),
]


def _series(registry: MetricsRegistry) -> dict:
    out = {}
    for name, inst in registry.snapshot().instruments.items():
        if name.startswith("obs_registry_"):
            continue
        for key, value in inst.series.items():
            out[(name, key)] = (value.count if inst.kind == HISTOGRAM
                                else value)
    return out


def _moved(event) -> dict:
    registry = MetricsRegistry()
    sink = ObsSink(registry)
    for family in FAMILIES:
        sink.open(family)
    before = _series(registry)
    sink.handle(event)
    after = _series(registry)
    return {key: after[key] - before.get(key, 0) for key in after
            if key not in before or after[key] != before[key]}


@pytest.mark.parametrize("event, expected", CASES,
                         ids=[f"{type(e).__module__.split('.')[1]}."
                              f"{type(e).__name__}-{i}"
                              for i, (e, _) in enumerate(CASES)])
def test_event_moves_exactly_its_series(event, expected):
    assert _moved(event) == expected


def test_every_mapped_event_is_covered():
    assert {event_name(type(event)) for event, _ in CASES} == set(RULES)


def test_every_service_event_key_but_drops_is_event_driven():
    driven = {labels[0] for _, expected in CASES
              for (name, labels) in expected if name == EV}
    assert driven == set(EVENT_KEYS) - {"stream_dropped"}


def test_unopened_family_ignores_its_events():
    registry = MetricsRegistry()
    sink = ObsSink(registry)
    sink.handle(make(s.SchedFinished, clamp_rounds=4))
    assert _series(registry) == {}
    sink.handle(make(s.JobSubmitted))  # the campaign's opening event
    assert _series(registry) == {("sched_jobs_shed_total", ()): 0.0,
                                 ("sched_clamp_rounds_total", ()): 0.0}


def test_events_the_table_does_not_map_are_ignored():
    registry = MetricsRegistry()
    sink = ObsSink(registry, SpanRecorder())
    for family in FAMILIES:
        sink.open(family)
    before = _series(registry)
    sink.handle(make(h.Note))
    sink.handle(SimpleNamespace(job="j-1"))  # a type from a top-level module
    assert _series(registry) == before


def test_analytic_campaign_exports_no_placement_metrics():
    registry = MetricsRegistry()
    spec = SchedSpec(nodes=2, jobs=20, execution="analytic", seed=1)
    spec.execute(bus=TelemetryBus([ObsSink(registry)]))
    assert _series(registry) == {}


def test_service_job_span_closes_on_the_attempt_outcome():
    tracer = SpanRecorder(clock=lambda: 1.0)
    sink = ObsSink(tracer=tracer)
    sink.open("service")
    sink.handle(make(v.JobStarted, job="j-1", kind="sched", attempt=1))
    sink.handle(make(v.JobRetried, job="j-1", reason="timeout"))
    sink.handle(make(v.JobStarted, job="j-1", kind="sched", attempt=2))
    sink.handle(make(v.JobFinished, job="j-1"))
    assert [(sp.name, sp.attrs["attempt"], sp.attrs["outcome"])
            for sp in tracer.spans] == [("job:sched", 1, "timeout"),
                                        ("job:sched", 2, "ok")]


# Module-level so the service's forked worker children resolve it.
def entry_ok(spec):
    time.sleep(0.01)
    return SimpleNamespace(spec=spec, time_s=1.0, energy_j=16.0,
                           watts=16.0, wall_s=0.01)


def _one_job(config, bus, seed):
    from repro.harness.spec import RunSpec

    with ServiceThread(config, bus=bus, worker_entry=entry_ok) as svc:
        with ServiceClient(port=svc.port, name="reuse") as client:
            done = client.submit_and_wait(
                RunSpec("nqueens", scale=0.05, seed=seed), timeout_s=30.0)
            assert done["state"] == "done"
        return svc.service


def test_services_sharing_a_bus_do_not_cross_count():
    bus = TelemetryBus()
    config = ServiceConfig(port=0, workers=1, queue_depth=4, timeout_s=30.0)
    first = _one_job(config, bus, seed=1)
    assert bus.sinks == ()  # stop() detached the first service's sink
    second = _one_job(config, bus, seed=2)
    assert bus.sinks == ()
    for service in (first, second):
        counters = service.counters
        assert (counters["accepted"], counters["executed"]) == (1, 1)
