"""Typed telemetry events for the experiment service.

The service narrates itself on the same
:class:`~repro.harness.telemetry.TelemetryBus` the harness uses — the
sinks (``JsonlSink``, ``ListSink``) are event-agnostic, so service
events ride the existing machinery and stream to subscribed clients as
NDJSON.  Every operational counter the service exports is derived from
these events by :class:`repro.obs.ObsSink`: queue depth on every
transition, retries, timeouts, shed counts and restart recoveries.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ServiceStarted:
    """The listener is bound and accepting submissions."""

    host: str
    port: int
    workers: int
    queue_depth: int
    cache: bool
    journal: bool


@dataclass(frozen=True)
class ServiceRecovered:
    """Restart recovery: journaled non-terminal jobs were re-admitted."""

    jobs: int
    requeued: int
    cache_hits: int


@dataclass(frozen=True)
class ServiceDraining:
    """Shutdown begun: admissions rejected, in-flight work finishing."""

    queued: int
    in_flight: int


@dataclass(frozen=True)
class ServiceStopped:
    """End-of-life summary counters."""

    accepted: int
    executed: int
    cache_hits: int
    attached: int
    shed: int
    failed: int
    dead: int
    cancelled: int
    uptime_s: float


@dataclass(frozen=True)
class JobAccepted:
    """A submission passed admission control and was queued."""

    job: str
    digest: str
    kind: str
    client: str
    queue_depth: int


@dataclass(frozen=True)
class JobAttached:
    """A duplicate digest attached to the existing job instead of re-running."""

    job: str
    digest: str
    client: str
    state: str


@dataclass(frozen=True)
class JobCacheHit:
    """A submission was answered directly from the result cache."""

    job: str
    digest: str
    client: str


@dataclass(frozen=True)
class JobShed:
    """Admission control rejected a submission (explicit backpressure)."""

    client: str
    reason: str  # queue-full | quota | draining
    retry_after_s: float


@dataclass(frozen=True)
class JobStarted:
    """A worker process began executing the job."""

    job: str
    digest: str
    kind: str
    attempt: int
    pid: int


@dataclass(frozen=True)
class JobRetried:
    """A failed/timed-out attempt scheduled a backoff retry."""

    job: str
    digest: str
    attempt: int
    delay_s: float
    error: str
    reason: str  # timeout | error


@dataclass(frozen=True)
class JobRequeued:
    """A crashed worker put the job back on the queue (redelivery)."""

    job: str
    digest: str
    redelivery: int
    error: str


@dataclass(frozen=True)
class WorkerCrashDetected:
    """A worker process died without reporting a result."""

    job: str
    digest: str
    pid: int


@dataclass(frozen=True)
class JobFinished:
    """The job reached DONE with a measured record."""

    job: str
    digest: str
    time_s: float
    energy_j: float
    watts: float
    wall_s: float


@dataclass(frozen=True)
class JobFailed:
    """The job exhausted its retry budget on a spec-level error."""

    job: str
    digest: str
    attempts: int
    error: str


@dataclass(frozen=True)
class JobDead:
    """Terminal dead-letter: timeout budget or redelivery budget exhausted."""

    job: str
    digest: str
    reason: str  # timeout | poison
    attempts: int
    redeliveries: int


@dataclass(frozen=True)
class JobCancelled:
    """The job was cancelled before reaching a worker."""

    job: str
    digest: str


@dataclass(frozen=True)
class QueueDepthChanged:
    """Queue/in-flight gauge, emitted on every transition."""

    depth: int
    in_flight: int
