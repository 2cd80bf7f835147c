"""Structured telemetry for the experiment harness.

Every sweep narrates itself through typed events on a
:class:`TelemetryBus` instead of ad-hoc ``print()`` calls: run
started/finished/cached/failed/retried, sweep progress, and an
end-of-sweep summary.  Sinks subscribe to the bus; three ship here:

* :class:`ProgressSink` — human-readable progress lines (stderr by
  default, so piping table output keeps working);
* :class:`JsonlSink` — one JSON object per event, appended to a file;
* :class:`ListSink` — in-memory capture for tests and smoke checks.

The bus measures its own cost: every :meth:`TelemetryBus.emit` is timed
and the cumulative overhead is reported in :class:`SweepFinished`
(``telemetry_s``), so the claim that structured telemetry is near-free
is a measured number, not an assertion — the same discipline the
RAPL-overhead literature demands of the measurement layer itself.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Optional, Protocol, Union


# ----------------------------------------------------------------------
# Event types
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepStarted:
    """A batch of runs begins."""

    sweep: str
    total: int
    workers: int
    cache: bool = False


@dataclass(frozen=True)
class RunStarted:
    """One spec was handed to a worker (or the serial loop)."""

    sweep: str
    index: int
    total: int
    label: str


@dataclass(frozen=True)
class RunFinished:
    """One spec executed to completion."""

    sweep: str
    index: int
    total: int
    label: str
    time_s: float
    energy_j: float
    watts: float
    wall_s: float


@dataclass(frozen=True)
class RunCached:
    """One spec was served from the result cache."""

    sweep: str
    index: int
    total: int
    label: str
    time_s: float
    energy_j: float
    watts: float


@dataclass(frozen=True)
class RunRetried:
    """A worker failure triggered a bounded retry."""

    sweep: str
    index: int
    total: int
    label: str
    attempt: int
    error: str


@dataclass(frozen=True)
class RunRequeued:
    """A run was resubmitted after its worker process died.

    Unlike :class:`RunRetried`, the spec itself did not fail — the pool
    lost the worker executing it (OOM kill, SIGKILL) — so the resubmit
    counts against the redelivery budget, not the retry budget.
    """

    sweep: str
    index: int
    total: int
    label: str
    redelivery: int


@dataclass(frozen=True)
class RunFailed:
    """A spec exhausted its retry budget."""

    sweep: str
    index: int
    total: int
    label: str
    attempts: int
    error: str


@dataclass(frozen=True)
class SweepProgress:
    """Monotone completion counter (cached + executed + failed)."""

    sweep: str
    done: int
    total: int


@dataclass(frozen=True)
class SweepFinished:
    """End-of-sweep summary, including the harness's own overhead."""

    sweep: str
    total: int
    executed: int
    cached: int
    failed: int
    retried: int
    wall_s: float
    #: Cumulative wall time spent inside ``TelemetryBus.emit`` during the
    #: sweep — the measured cost of the telemetry layer itself.
    telemetry_s: float
    events: int
    #: Whether a result cache was attached: every spec was looked up in
    #: it (``total - cached`` misses) and every executed record stored.
    cache: bool = False


@dataclass(frozen=True)
class RunValidated:
    """One spec finished under the invariant checker (validate mode)."""

    sweep: str
    index: int
    total: int
    label: str
    #: Invariant-battery passes and total invariant evaluations — proof
    #: the checker ran, so zero violations is evidence, not silence.
    batteries: int
    checks: int
    violations: int
    unexpected: int


@dataclass(frozen=True)
class InvariantViolated:
    """One invariant violation surfaced by the checker (validate mode)."""

    sweep: str
    index: int
    label: str
    invariant: str
    category: str
    message: str
    time_s: float
    expected: bool


@dataclass(frozen=True)
class PoolRebuilt:
    """A process pool broke mid-sweep; its lost runs were requeued.

    Past ``max_rebuilds`` the pool is not rebuilt again: the remaining
    runs finish serially in-process (:attr:`serial`).
    """

    sweep: str
    attempt: int
    max_rebuilds: int
    requeued: int

    @property
    def serial(self) -> bool:
        return self.attempt > self.max_rebuilds


@dataclass(frozen=True)
class Note:
    """Free-form informational message (calibration fit notes etc.)."""

    message: str


Event = Union[
    SweepStarted, RunStarted, RunFinished, RunCached, RunRetried,
    RunRequeued, RunFailed, SweepProgress, SweepFinished, RunValidated,
    InvariantViolated, PoolRebuilt, Note,
]


class TelemetrySink(Protocol):
    def handle(self, event: Event) -> None: ...


# ----------------------------------------------------------------------
# The bus
# ----------------------------------------------------------------------
class TelemetryBus:
    """Dispatches typed events to subscribed sinks, timing itself.

    With no sinks subscribed, :meth:`emit` is a counter increment — the
    zero-subscriber cost is deliberately negligible so library callers
    (and the test suite) pay nothing for instrumented experiments.
    """

    def __init__(self, sinks: Iterable[TelemetrySink] = ()) -> None:
        self._sinks: list[TelemetrySink] = list(sinks)
        #: Cumulative seconds spent dispatching events.
        self.overhead_s = 0.0
        #: Total events emitted (dispatched or not).
        self.events_emitted = 0

    def subscribe(self, sink: TelemetrySink) -> TelemetrySink:
        self._sinks.append(sink)
        return sink

    def unsubscribe(self, sink: TelemetrySink) -> None:
        self._sinks.remove(sink)

    @property
    def sinks(self) -> tuple[TelemetrySink, ...]:
        return tuple(self._sinks)

    def emit(self, event: Event) -> None:
        self.events_emitted += 1
        if not self._sinks:
            return
        t0 = time.perf_counter()
        for sink in self._sinks:
            sink.handle(event)
        self.overhead_s += time.perf_counter() - t0


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------
class ListSink:
    """Appends every event to :attr:`events` (tests, smoke checks)."""

    def __init__(self) -> None:
        self.events: list[Event] = []

    def handle(self, event: Event) -> None:
        self.events.append(event)

    def of_type(self, *types: type) -> list[Event]:
        return [e for e in self.events if isinstance(e, types)]


class ProgressSink:
    """Human-readable progress renderer (one line per event that matters)."""

    def __init__(self, stream: Optional[IO[str]] = None) -> None:
        self._stream = stream

    @property
    def stream(self) -> IO[str]:
        return self._stream if self._stream is not None else sys.stderr

    def _line(self, text: str) -> None:
        print(text, file=self.stream, flush=True)

    def handle(self, event: Event) -> None:
        if isinstance(event, SweepStarted):
            mode = f"{event.workers} workers" if event.workers >= 2 else "serial"
            cache = ", cache on" if event.cache else ""
            self._line(f"sweep {event.sweep}: {event.total} runs ({mode}{cache})")
        elif isinstance(event, RunFinished):
            self._line(
                f"[{event.index + 1:>3}/{event.total}] {event.label:<36} "
                f"{event.time_s:>8.2f} s {event.energy_j:>10.1f} J "
                f"{event.watts:>7.1f} W  ({event.wall_s:.2f}s wall)"
            )
        elif isinstance(event, RunCached):
            self._line(
                f"[{event.index + 1:>3}/{event.total}] {event.label:<36} "
                f"{event.time_s:>8.2f} s {event.energy_j:>10.1f} J "
                f"{event.watts:>7.1f} W  (cached)"
            )
        elif isinstance(event, RunRetried):
            self._line(
                f"[{event.index + 1:>3}/{event.total}] {event.label}: "
                f"retry {event.attempt} after {event.error}"
            )
        elif isinstance(event, RunRequeued):
            self._line(
                f"[{event.index + 1:>3}/{event.total}] {event.label}: "
                f"requeued (redelivery {event.redelivery}, worker lost)"
            )
        elif isinstance(event, RunFailed):
            self._line(
                f"[{event.index + 1:>3}/{event.total}] {event.label}: "
                f"FAILED after {event.attempts} attempts: {event.error}"
            )
        elif isinstance(event, SweepFinished):
            share = (
                f" ({event.telemetry_s / event.wall_s:.2%} of wall)"
                if event.wall_s > 0 else ""
            )
            self._line(
                f"sweep {event.sweep}: {event.total} runs in "
                f"{event.wall_s:.2f} s — {event.executed} executed, "
                f"{event.cached} cached, {event.failed} failed, "
                f"{event.retried} retried; telemetry "
                f"{event.telemetry_s * 1e3:.2f} ms{share}"
            )
        elif isinstance(event, RunValidated):
            verdict = (
                "clean" if event.violations == 0
                else f"{event.unexpected} unexpected / "
                     f"{event.violations - event.unexpected} expected"
            )
            self._line(
                f"[{event.index + 1:>3}/{event.total}] {event.label:<36} "
                f"validated: {event.checks} checks in {event.batteries} "
                f"batteries — {verdict}"
            )
        elif isinstance(event, InvariantViolated):
            marker = "expected" if event.expected else "VIOLATION"
            self._line(
                f"    {marker}: {event.invariant} ({event.category}) "
                f"in {event.label}: {event.message}"
            )
        elif isinstance(event, PoolRebuilt):
            if event.serial:
                self._line(
                    f"process pool broke {event.attempt} times; finishing "
                    f"{event.requeued} runs serially in-process")
            else:
                self._line(
                    f"process pool broke; rebuilding (attempt "
                    f"{event.attempt}/{event.max_rebuilds}) and requeueing "
                    f"{event.requeued} lost runs")
        elif isinstance(event, Note):
            self._line(event.message)
        # SweepProgress / RunStarted are intentionally silent here: the
        # per-run completion lines already carry index/total.


class JsonlSink:
    """Appends one JSON object per event to ``path``.

    The file is opened lazily on the first event and kept open (line
    buffered); call :meth:`close` to release it early.  Each line is
    ``{"event": <type name>, ...fields}``.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._fh: Optional[IO[str]] = None

    def handle(self, event: Event) -> None:
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("a", buffering=1)
        payload = {"event": type(event).__name__}
        payload.update(dataclasses.asdict(event))
        self._fh.write(json.dumps(payload, sort_keys=True) + "\n")

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def stderr_bus() -> TelemetryBus:
    """A bus with a stderr progress renderer attached (CLI default)."""
    return TelemetryBus([ProgressSink()])
