"""Checkpointed segmented execution of scheduled runs.

A million-job run that dies at job 900,000 must not restart from zero.
This module executes a spec as a sequence of *drained segments* of
``spec.segment_jobs`` jobs each: a segment runs its slice of the lazy
trace to completion (queue empty, nodes idle), then the compact carry
state — ``(next job index, simulation clock, streaming accumulator,
retained records)`` — is pickled to an atomic checkpoint file.  A killed
process re-enters at the last checkpoint: the trace iterator re-seeks by
redrawing (``start=k`` on :func:`~repro.sched.workload.spec_jobs`),
a fresh engine starts at the carried clock, and the accumulator resumes
exactly where it stopped.

Why this is *bit-identical* rather than merely close: segment
boundaries are part of the spec (``segment_jobs`` is digested), so the
uninterrupted execution of a segmented spec runs the very same
per-segment code — fresh engine and node stacks at the same clock, same
carried accumulator — as the resumed one.  Floats pickle losslessly,
dict insertion orders survive pickling, and every draw comes from the
deterministic trace stream; the resume-identity invariant in
:mod:`repro.validate.scale` pins ``result_digest()`` equality, and the
kill-and-resume test exercises it across a real process boundary.

Checkpoint files are written with ``pickle → tmp file → os.replace``,
so a crash mid-write leaves the previous checkpoint intact (the same
atomicity discipline the experiment service journal uses).
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from repro.errors import ConfigError
from repro.harness.telemetry import TelemetryBus
from repro.sched.aggregate import SchedAccumulator
from repro.sched.result import JobRecord, SchedResult
from repro.sched.workload import spec_jobs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sched.spec import SchedSpec

#: Bump when the carry-state layout changes; a mismatched checkpoint is
#: discarded (the run restarts) rather than misread.
CHECKPOINT_SCHEMA = "sched-ckpt-1"


@dataclass
class SchedCheckpoint:
    """The complete between-segments carry state (picklable)."""

    spec_digest: str
    next_start: int = 0
    clock_s: float = 0.0
    accumulator: SchedAccumulator = field(default_factory=SchedAccumulator)
    records: list[JobRecord] = field(default_factory=list)
    schema: str = CHECKPOINT_SCHEMA
    #: Clamped coordinator rounds so far (telemetry only: it reaches
    #: ``SchedFinished``, never the result or its digest).
    clamp_rounds: int = 0


def checkpoint_path(directory: Path, spec: "SchedSpec") -> Path:
    """Where a spec's checkpoint lives (content-addressed by digest)."""
    return Path(directory) / f"{spec.digest[:16]}.ckpt"


def save_checkpoint(directory: Path, spec: "SchedSpec",
                    state: SchedCheckpoint) -> Path:
    """Atomically persist ``state`` (tmp + rename; crash-safe)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = checkpoint_path(directory, spec)
    tmp = path.with_suffix(f".tmp.{os.getpid()}")
    with open(tmp, "wb") as fh:
        pickle.dump(state, fh, protocol=pickle.HIGHEST_PROTOCOL)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return path


def load_checkpoint(
    directory: Path, spec: "SchedSpec"
) -> Optional[SchedCheckpoint]:
    """The spec's resumable carry state, or None to start fresh.

    A checkpoint for a different spec digest or schema version is
    ignored (never deleted here — ``clear_checkpoint`` does that once
    the run completes).  A torn/corrupt file is treated as absent: the
    atomic-rename discipline means it can only be a leftover tmp
    artifact or foreign file, and restarting is always correct.
    """
    path = checkpoint_path(Path(directory), spec)
    try:
        with open(path, "rb") as fh:
            state = pickle.load(fh)
    except FileNotFoundError:
        return None
    except (pickle.UnpicklingError, EOFError, AttributeError, OSError):
        return None
    if not isinstance(state, SchedCheckpoint):
        return None
    if state.schema != CHECKPOINT_SCHEMA or state.spec_digest != spec.digest:
        return None
    return state


def clear_checkpoint(directory: Path, spec: "SchedSpec") -> None:
    """Remove the spec's checkpoint (idempotent)."""
    try:
        checkpoint_path(Path(directory), spec).unlink()
    except FileNotFoundError:
        pass


# ----------------------------------------------------------------------
# the segmented runner
# ----------------------------------------------------------------------
def _run_one_segment(
    spec: "SchedSpec",
    bus: TelemetryBus,
    state: SchedCheckpoint,
    limit: int,
) -> float:
    """Execute one drained segment against the carried state in place."""
    jobs = spec_jobs(spec, start=state.next_start, limit=limit)
    if spec.execution == "analytic":
        from repro.sched.analytic import AnalyticSim

        sim = AnalyticSim(
            spec,
            jobs,
            bus=bus,
            clock_s=state.clock_s,
            accumulator=state.accumulator,
            records=state.records,
        )
        return sim.run_segment()
    from repro.sched.cluster import ClusterSim
    from repro.sim.engine import Engine

    sim = ClusterSim(
        spec,
        jobs,
        bus=bus,
        engine=Engine(start_time=state.clock_s),
        accumulator=state.accumulator,
        records=state.records,
    )
    clock_s = sim.run_segment()
    state.clamp_rounds += sim.clamp_rounds
    return clock_s


def run_segmented(
    spec: "SchedSpec",
    *,
    bus: Optional[TelemetryBus] = None,
    checkpoint_dir: Optional[Path] = None,
) -> SchedResult:
    """Run a ``segment_jobs`` spec segment by segment, checkpointing.

    With ``checkpoint_dir`` set, the carry state is persisted after
    every segment and a pre-existing checkpoint is resumed from; without
    it the segmentation still happens (the digest demands it) but
    nothing touches disk.
    """
    from repro.sched.cluster import build_result, emit_finished
    from repro.sched.roofline import roofline_envelope

    if spec.segment_jobs <= 0:
        raise ConfigError(
            "run_segmented requires a spec with segment_jobs > 0; "
            f"got {spec.segment_jobs!r}"
        )
    bus = bus if bus is not None else TelemetryBus()
    t0 = time.perf_counter()
    state: Optional[SchedCheckpoint] = None
    if checkpoint_dir is not None:
        state = load_checkpoint(checkpoint_dir, spec)
    if state is None:
        state = SchedCheckpoint(spec_digest=spec.digest)

    while state.next_start < spec.jobs:
        limit = min(spec.segment_jobs, spec.jobs - state.next_start)
        state.clock_s = _run_one_segment(spec, bus, state, limit)
        state.next_start += limit
        if checkpoint_dir is not None and state.next_start < spec.jobs:
            save_checkpoint(checkpoint_dir, spec, state)

    if spec.execution == "analytic":
        state.accumulator.add_violations(
            roofline_envelope(spec, state.accumulator.snapshot())
        )
    result = build_result(
        spec,
        state.accumulator,
        state.records,
        wall_s=time.perf_counter() - t0,
    )
    if checkpoint_dir is not None:
        clear_checkpoint(checkpoint_dir, spec)
    emit_finished(bus, spec, result, state.clamp_rounds)
    return result
