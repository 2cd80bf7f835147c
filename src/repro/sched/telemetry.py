"""Typed telemetry events for the cluster scheduler.

These ride the existing :class:`~repro.harness.telemetry.TelemetryBus`:
the bus is type-agnostic, :class:`~repro.harness.telemetry.JsonlSink`
serialises any dataclass event, and the harness's ProgressSink silently
ignores types it does not know — so scheduler events need no changes to
the harness layer.  :class:`SchedProgressSink` renders them for the
``repro sched`` CLI.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import IO, Optional


@dataclass(frozen=True)
class JobSubmitted:
    """A trace job arrived at the cluster."""

    index: int
    app: str
    threads: int
    time_s: float


@dataclass(frozen=True)
class JobRejected:
    """Admission control shed an arriving job (queue full)."""

    index: int
    app: str
    queue_depth: int
    time_s: float


@dataclass(frozen=True)
class JobPlaced:
    """The placement policy dispatched a queued job onto a node."""

    index: int
    app: str
    threads: int
    node: str
    policy: str
    wait_s: float
    time_s: float
    #: Host wall seconds the policy's ``select()`` call took.
    select_s: float


@dataclass(frozen=True)
class PolicyHeld:
    """The placement policy declined to place any queued job."""

    policy: str
    queued: int
    time_s: float
    #: Host wall seconds the policy's ``select()`` call took.
    select_s: float


@dataclass(frozen=True)
class JobFinished:
    """A placed job completed; measured figures are for its region."""

    index: int
    app: str
    node: str
    service_s: float
    energy_j: float
    watts: float
    time_s: float


@dataclass(frozen=True)
class SchedFinished:
    """End-of-run scheduler summary."""

    policy: str
    profile: str
    submitted: int
    completed: int
    rejected: int
    makespan_s: float
    peak_power_w: float
    budget_w: float
    #: Coordinator rounds with at least one node clamped below its full
    #: thread count (0 for analytic runs, which model no clamp).
    clamp_rounds: int = 0


class SchedProgressSink:
    """Human-readable per-job narration (stderr by default)."""

    def __init__(self, stream: Optional[IO[str]] = None) -> None:
        self._stream = stream

    @property
    def stream(self) -> IO[str]:
        return self._stream if self._stream is not None else sys.stderr

    def _line(self, text: str) -> None:
        print(text, file=self.stream, flush=True)

    def handle(self, event) -> None:
        if isinstance(event, JobSubmitted):
            self._line(
                f"t={event.time_s:7.2f}s  submit j{event.index:<3} "
                f"{event.app} (t{event.threads})"
            )
        elif isinstance(event, JobRejected):
            self._line(
                f"t={event.time_s:7.2f}s  REJECT j{event.index:<3} "
                f"{event.app} (queue full at {event.queue_depth})"
            )
        elif isinstance(event, JobPlaced):
            self._line(
                f"t={event.time_s:7.2f}s  place  j{event.index:<3} "
                f"{event.app} -> {event.node} "
                f"[{event.policy}] after {event.wait_s:.2f}s queued"
            )
        elif isinstance(event, JobFinished):
            self._line(
                f"t={event.time_s:7.2f}s  done   j{event.index:<3} "
                f"{event.app} on {event.node}: {event.service_s:.2f} s, "
                f"{event.energy_j:.1f} J, {event.watts:.1f} W"
            )
        elif isinstance(event, SchedFinished):
            self._line(
                f"sched [{event.policy}/{event.profile}]: "
                f"{event.completed}/{event.submitted} jobs "
                f"({event.rejected} rejected), makespan "
                f"{event.makespan_s:.1f} s, peak {event.peak_power_w:.1f} W "
                f"of {event.budget_w:.1f} W budget"
            )
        # Harness events (SweepStarted etc.) fall through silently, the
        # same contract ProgressSink applies to ours.
