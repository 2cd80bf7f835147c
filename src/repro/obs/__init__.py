"""Unified observability: metrics, trace spans, and exporters.

The operational layer the rest of the stack reports into:

* :mod:`~repro.obs.metrics` — :class:`MetricsRegistry` with labelled
  Counter/Gauge/Histogram instruments; histograms reuse the scheduler's
  deterministic :class:`~repro.sched.sketch.QuantileSketch`, so
  percentiles are exact-mergeable across processes and bit-reproducible;
  the registry self-measures its own overhead (observer-effect books,
  mirroring :mod:`repro.metering`);
* :mod:`~repro.obs.trace` — parent-linked spans with wall clocks in the
  service and explicit sim-time stamps inside the simulator, exported
  as NDJSON or Chrome-trace JSON;
* :mod:`~repro.obs.export` — Prometheus text exposition (served by the
  service's ``metrics`` frame and optional HTTP scrape port) and its
  parsing inverse;
* :mod:`~repro.obs.report` — the ``repro obs report`` renderer;
* :mod:`~repro.obs.sink` — :class:`ObsSink`, the one path from the
  typed telemetry events into the registry and the span recorder.

The harness executor, the cluster sim and the service report each state
change once, as an event on their ``TelemetryBus``; they never import
this package.  Observability is a sink subscribed to that bus (event →
:class:`ObsSink` → registry/recorder).  Off is the default, and it only
reads events, so enabling it cannot perturb simulated physics (golden
digests stay bit-identical).
"""

from repro.obs.export import (
    PROMETHEUS_CONTENT_TYPE,
    ParsedExposition,
    parse_prometheus,
    to_prometheus,
)
from repro.obs.metrics import (
    COUNTER,
    GAUGE,
    HISTOGRAM,
    SAMPLE_EVERY,
    Counter,
    Gauge,
    Histogram,
    InstrumentSnapshot,
    MetricsRegistry,
    MetricsSnapshot,
)
from repro.obs.report import render_metrics_frame, render_snapshot
from repro.obs.sink import ObsSink
from repro.obs.trace import DEFAULT_MAX_SPANS, Span, SpanRecorder

__all__ = [
    "COUNTER",
    "GAUGE",
    "HISTOGRAM",
    "SAMPLE_EVERY",
    "DEFAULT_MAX_SPANS",
    "PROMETHEUS_CONTENT_TYPE",
    "Counter",
    "Gauge",
    "Histogram",
    "InstrumentSnapshot",
    "MetricsRegistry",
    "MetricsSnapshot",
    "ObsSink",
    "ParsedExposition",
    "Span",
    "SpanRecorder",
    "parse_prometheus",
    "to_prometheus",
    "render_metrics_frame",
    "render_snapshot",
]
