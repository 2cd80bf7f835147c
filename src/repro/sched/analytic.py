"""Analytic (roofline closed-form) execution of scheduled traces.

``execution="analytic"`` keeps the *scheduling* machinery real — the
same lazy trace, admission queue and placement policies as the full
simulation — but replaces each job's execution with the calibrated
roofline closed form from :mod:`repro.sched.roofline`: service time and
energy are two multiplies off a cached per-configuration point, so a
job costs a couple of heap operations instead of a full qthreads
runtime, RCR daemon and power-clamp microsimulation.  That is the
difference between ~2 ms/job and ~2 µs/job — i.e. between "a
million-job trace is a week" and "a million-job trace is a minute".

What the analytic mode deliberately does not model: the power clamp
(jobs run unthrottled at their roofline wattage), the coordinator's
budget re-division (``coordinator_rounds`` is 0), and RCR measurement
noise.  Peak cluster power is still tracked (busy nodes at job wattage,
idle nodes at the coordinator's power floor) so budget-sizing sweeps
remain meaningful, and the roofline envelope oracle audits every run's
aggregates at the end.

The event loop is a plain two-stream merge — pending arrivals (pulled
one at a time from the job iterator the sim is given, so memory stays
O(nodes + queue)) against a finish-time heap — with a fixed
deterministic tie rule (finishes before arrivals at equal times).
Segmentation carries ``(clock, accumulator, records)`` exactly like the
full path, so checkpoint/resume identity holds here too.
"""

from __future__ import annotations

import heapq
import time
from typing import TYPE_CHECKING, Iterable, Optional

from repro.cluster.coordinator import NODE_FLOOR_W
from repro.errors import SimulationError
from repro.harness.telemetry import TelemetryBus
from repro.sched.aggregate import SchedAccumulator
from repro.sched.policy import ClusterState, NodeView, make_policy
from repro.sched.queue import AdmissionQueue
from repro.sched.result import JobRecord, SchedResult
from repro.sched.roofline import job_cost, roofline_envelope
from repro.sched.workload import Job, spec_jobs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sched.spec import SchedSpec


class AnalyticSim:
    """One analytic segment: merged arrival/finish event loop."""

    def __init__(
        self,
        spec: "SchedSpec",
        jobs: Iterable[Job],
        *,
        bus: Optional[TelemetryBus] = None,
        clock_s: float = 0.0,
        accumulator: Optional[SchedAccumulator] = None,
        records: Optional[list[JobRecord]] = None,
    ) -> None:
        self.spec = spec
        self.bus = bus if bus is not None else TelemetryBus()
        #: This segment's jobs, pulled one at a time; the segment ends
        #: when the source runs out.
        self._source = iter(jobs)
        self.accumulator = (
            accumulator if accumulator is not None else SchedAccumulator()
        )
        self.records: list[JobRecord] = records if records is not None else []
        self.policy = make_policy(spec.policy, model=spec.predictor)
        self.queue = AdmissionQueue(spec.queue_depth)
        self.now = clock_s
        self._t0_sim = clock_s
        self._names = [f"node{i}" for i in range(spec.nodes)]
        self._busy = [False] * spec.nodes
        self._watts = [0.0] * spec.nodes
        self._index = {name: i for i, name in enumerate(self._names)}
        for name in self._names:
            self.accumulator.note_node(name)
        #: (finish_time, seq, node_idx, record) — seq breaks float ties
        #: deterministically in placement order.
        self._heap: list[tuple[float, int, int, JobRecord]] = []
        self._seq = 0
        self._events = 0
        self._peak_power_w = 0.0
        self._next_job = None

    # ------------------------------------------------------------------
    def run_segment(self) -> float:
        """Drain this segment's jobs; returns the drain-time clock."""
        spec = self.spec
        self._next_job = next(self._source, None)
        while self._next_job is not None or self._heap:
            if self.now > self._t0_sim + spec.time_limit_s:
                raise SimulationError(
                    f"analytic run exceeded {spec.time_limit_s} s with "
                    f"{len(self.queue)} queued and "
                    f"{sum(self._busy)} running jobs"
                )
            arrival_t = (
                None
                if self._next_job is None
                else max(self._next_job.submit_s, self._t0_sim)
            )
            # Finishes before arrivals at equal times: the node frees
            # first, so the arriving job can be placed immediately —
            # fixed rule, applied identically on every (re)run.
            if self._heap and (
                arrival_t is None or self._heap[0][0] <= arrival_t
            ):
                self._fire_finish()
            else:
                self._fire_arrival(arrival_t)
            self._dispatch()
        self.accumulator.add_segment(
            peak_power_w=self._peak_power_w,
            peak_queue_depth=self.queue.peak_depth,
            coordinator_rounds=0,
            engine_events=self._events,
        )
        return self.now

    # ------------------------------------------------------------------
    def _fire_finish(self) -> None:
        finish_t, _seq, idx, record = heapq.heappop(self._heap)
        self.now = finish_t
        self._events += 1
        self._busy[idx] = False
        self._watts[idx] = 0.0
        self.accumulator.add_job(record)
        if self.spec.retain_jobs:
            self.records.append(record)

    def _fire_arrival(self, arrival_t: float) -> None:
        job = self._next_job
        self._next_job = next(self._source, None)
        self.now = max(self.now, arrival_t)
        self._events += 1
        if not self.queue.offer(job):
            self.accumulator.add_rejection(job.index)

    def _dispatch(self) -> None:
        while len(self.queue) > 0:
            views = [
                NodeView(
                    name=name,
                    busy=self._busy[i],
                    budget_w=self.spec.budget_w / self.spec.nodes,
                    measured_power_w=self._watts[i],
                    clamp_pressure=0.0,
                )
                for i, name in enumerate(self._names)
            ]
            total = sum(self._watts)
            state = ClusterState(
                time_s=self.now,
                global_budget_w=self.spec.budget_w,
                total_power_w=total,
            )
            pick = self.policy.select(self.queue.jobs, views, state)
            if pick is None:
                return
            position, node_name = pick
            idx = self._index.get(node_name)
            if idx is None or self._busy[idx]:
                raise SimulationError(
                    f"policy {self.spec.policy!r} chose "
                    f"{'unknown' if idx is None else 'busy'} node "
                    f"{node_name!r}"
                )
            job = self.queue.take(position)
            cost = job_cost(job)
            record = JobRecord(
                index=job.index,
                app=job.app,
                threads=job.threads,
                node=node_name,
                submit_s=job.submit_s,
                start_s=self.now,
                finish_s=self.now + cost.time_s,
                time_s=cost.time_s,
                energy_j=cost.energy_j,
                avg_watts=cost.avg_watts,
            )
            self._busy[idx] = True
            self._watts[idx] = cost.avg_watts
            heapq.heappush(
                self._heap, (record.finish_s, self._seq, idx, record)
            )
            self._seq += 1
            power = sum(self._watts) + NODE_FLOOR_W * (
                self.spec.nodes - sum(self._busy)
            )
            if power > self._peak_power_w:
                self._peak_power_w = power


def run_analytic(
    spec: "SchedSpec",
    *,
    bus: Optional[TelemetryBus] = None,
    checkpoint_dir=None,
) -> SchedResult:
    """Run a spec analytically (segmented when ``segment_jobs`` is set)."""
    from repro.sched.checkpoint import run_segmented
    from repro.sched.cluster import build_result, emit_finished

    if spec.segment_jobs:
        return run_segmented(spec, bus=bus, checkpoint_dir=checkpoint_dir)
    bus = bus if bus is not None else TelemetryBus()
    t0 = time.perf_counter()
    sim = AnalyticSim(spec, spec_jobs(spec), bus=bus)
    sim.run_segment()
    sim.accumulator.add_violations(
        roofline_envelope(spec, sim.accumulator.snapshot())
    )
    result = build_result(
        spec, sim.accumulator, sim.records, wall_s=time.perf_counter() - t0
    )
    emit_finished(bus, spec, result)
    return result
