"""Instrumentation is physics-inert: identical results with obs attached.

The acceptance bar for the observability layer is bit-identity, not
"close": subscribing an ObsSink (registry and tracer) to the harness's
or the scheduler's telemetry bus must not move a single measured joule,
second or digest.  These tests run each path bare and instrumented and
compare exact outputs — the observability analogue of the golden-trace
suite.
"""

import dataclasses

import pytest

from repro.harness.executor import BatchExecutor
from repro.harness.spec import RunSpec
from repro.harness.telemetry import TelemetryBus
from repro.obs import MetricsRegistry, ObsSink, SpanRecorder
from repro.sched.spec import SchedSpec

pytestmark = pytest.mark.obs

SPECS = [RunSpec(app="nqueens", threads=2, scale=0.05, seed=seed)
         for seed in range(3)]


def _strip_wall(record):
    # wall_s is host wall-clock (legitimately different between runs);
    # everything else is simulated physics and must match exactly.
    out = dataclasses.asdict(record)
    out.pop("wall_s", None)
    return out


def test_harness_records_bit_identical_with_obs_attached():
    bare = BatchExecutor(workers=1, cache=None).run(SPECS, sweep="bare")
    registry, tracer = MetricsRegistry(), SpanRecorder()
    instrumented = BatchExecutor(
        workers=1, cache=None,
        bus=TelemetryBus([ObsSink(registry, tracer)]),
    ).run(SPECS, sweep="instrumented")
    assert [_strip_wall(r) for r in bare] == \
        [_strip_wall(r) for r in instrumented]
    # and the instruments actually recorded the sweep
    snap = registry.snapshot()
    assert snap.instruments["harness_runs_total"].series[("executed",)] == 3.0
    assert len(tracer.spans) == len(SPECS) + 1  # runs + the sweep span


def test_sched_result_digest_bit_identical_with_obs_attached():
    spec = SchedSpec(nodes=2, jobs=6, scale=0.3, seed=5)
    bare = spec.execute()
    registry, tracer = MetricsRegistry(), SpanRecorder(clock=lambda: 0.0)
    instrumented = spec.execute(
        bus=TelemetryBus([ObsSink(registry, tracer)]))
    assert bare.result_digest() == instrumented.result_digest()
    snap = registry.snapshot()
    dispatched = snap.instruments["sched_jobs_dispatched_total"]
    assert sum(dispatched.series.values()) == instrumented.completed
    assert len(tracer.spans) == instrumented.completed


def test_sched_trace_spans_use_sim_time():
    spec = SchedSpec(nodes=2, jobs=4, scale=0.3, seed=5)
    tracer = SpanRecorder(clock=lambda: 0.0)
    result = spec.execute(bus=TelemetryBus([ObsSink(tracer=tracer)]))
    # every span must sit inside the simulated makespan, not wall time
    for span in tracer.spans:
        assert 0.0 <= span.start_s <= span.end_s <= result.makespan_s + 1e-9


def test_spec_digests_never_see_observability():
    spec = SchedSpec(nodes=2, jobs=4)
    assert "registry" not in spec.payload_dict()
    assert "tracer" not in spec.payload_dict()
    # RunSpec's payload too: obs rides on the executor, not the spec
    assert "registry" not in RunSpec(app="nqueens").payload_dict()
