"""The multi-node scheduled cluster simulation.

One shared discrete-event engine carries N :class:`SchedNode` stacks
(each the full single-node pipeline: simulated hardware, qthreads
runtime, RCRdaemon, region client, power clamp), the existing
:class:`~repro.cluster.coordinator.PowerCoordinator` re-dividing the
global budget, and the scheduler itself: trace arrivals feed a bounded
:class:`~repro.sched.queue.AdmissionQueue`, and a repeating scheduling
tick snapshots the cluster and asks the placement policy where queued
jobs should run.

Arrivals are *streamed*: the sim takes its jobs as an iterable (the
lazy :func:`~repro.sched.workload.spec_jobs` for a spec's trace, or a
fixed list — :func:`repro.cluster.run_cluster` hands it one job per node
at t=0) and at most :data:`ARRIVAL_WINDOW` arrival events are in the
engine at once — each arrival that fires schedules the next job from
the iterator, so a million-job trace never materializes.  Finished jobs
fold into a :class:`~repro.sched.aggregate.SchedAccumulator` as they
complete; per-job :class:`~repro.sched.result.JobRecord` tuples are kept
only when the spec's ``retain_jobs`` flag says so.

A :class:`ClusterSim` can also run a *segment* of a trace against
carried accumulator state: the checkpoint/resume runner in
:mod:`repro.sched.checkpoint` drives one fresh sim per segment, handing
each the segment's slice of the trace and draining between segments,
which is what makes kill-and-resume bit-identical to an uninterrupted
segmented run.  A segment ends when its job source runs out and every
pulled job has finished.

A :class:`SchedNode` runs a *sequence* of jobs: the runtime's root-task
slot is reused per job (``spawn_root`` is re-armable once the previous
root completes) and every job gets its own named measurement region, so
per-job energy figures come from the same RCR path as the paper's
single-node tables.

Teardown is exception-safe: the coordinator, the scheduling tick and
every node's clamp/daemon timers are cancelled in a ``finally``, so
even a timed-out run leaves no repeating events in the engine.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Iterable, Optional

from repro.apps import build_app
from repro.config import MachineConfig, PAPER_MACHINE, RuntimeConfig
from repro.errors import SimulationError
from repro.harness.telemetry import TelemetryBus
from repro.openmp import OmpEnv
from repro.qthreads import Runtime
from repro.rcr import Blackboard, RCRDaemon, RegionClient, meters
from repro.sched import telemetry as stel
from repro.sched.aggregate import SchedAccumulator
from repro.sched.policy import (
    ClusterState,
    NodeView,
    PlacementPolicy,
    make_policy,
)
from repro.sched.queue import AdmissionQueue
from repro.sched.result import JobRecord, SchedResult
from repro.sched.workload import Job, spec_jobs
from repro.sim.engine import Engine
from repro.sim.events import Priority
from repro.throttle.clamp import PowerClampController

from repro.cluster.coordinator import PowerCoordinator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sched.spec import SchedSpec

#: Bounded arrival lookahead: at most this many not-yet-fired arrival
#: events live in the engine at once; each arrival that fires pulls the
#: next job off the lazy trace iterator.  The window only bounds memory
#: — arrival *times* come from the trace, so any value >= 1 produces the
#: identical simulation.
ARRIVAL_WINDOW = 64


class SchedNode:
    """One cluster node that runs scheduler-dispatched jobs in sequence.

    Presents the surface the
    :class:`~repro.cluster.coordinator.PowerCoordinator` reads —
    ``name``, ``clamp``, ``measured_power_w``, ``done``,
    ``wants_more_power`` — where "done" means *idle*: an idle node bids
    only the power floor, so budget flows to nodes with work.

    Finished jobs are handed to the owning sim's ``_on_finish`` callback
    rather than accumulated here, so a node's memory footprint is
    independent of how many jobs it has run.
    """

    def __init__(
        self,
        name: str,
        engine: Engine,
        *,
        threads: int = 16,
        budget_w: float = 100.0,
        machine: MachineConfig = PAPER_MACHINE,
        seed: int = 0,
    ) -> None:
        self.name = name
        self.engine = engine
        self.runtime = Runtime(
            machine,
            RuntimeConfig(num_threads=threads),
            engine=engine,
            seed=seed,
            stop_engine_on_done=False,
        )
        self.blackboard = Blackboard()
        self.daemon = RCRDaemon(engine, self.runtime.node, self.blackboard)
        self.daemon.start()
        self.client = RegionClient(
            engine, self.blackboard, machine.sockets, daemon=self.daemon
        )
        self.clamp = PowerClampController(
            engine, self.runtime.scheduler, self.blackboard, budget_w
        )
        self.clamp.start()
        self._current: Optional[Job] = None
        self._start_s = 0.0
        self._on_finish = None  # set by ClusterSim

    # ------------------------------------------ coordinator duck-typing
    @property
    def done(self) -> bool:
        """True while the node is idle (bids only the floor)."""
        return self._current is None

    @property
    def busy(self) -> bool:
        return self._current is not None

    @property
    def measured_power_w(self) -> float:
        return self.blackboard.read_value(meters.NODE_POWER_W, default=0.0)

    @property
    def wants_more_power(self) -> bool:
        return self.busy and self.clamp.pressure > 0.0

    # ----------------------------------------------------- job lifecycle
    def start_job(self, job: Job) -> None:
        """Dispatch ``job`` onto this node (must be idle)."""
        if self._current is not None:
            raise SimulationError(
                f"node {self.name} is busy with j{self._current.index}; "
                f"cannot place j{job.index}"
            )
        self._current = job
        self._start_s = self.engine.now
        region = self._region_name(job)
        self.client.start(region)
        program = build_app(
            job.app,
            OmpEnv(num_threads=job.threads),
            compiler=job.compiler,
            optlevel=job.optlevel,
            scale=job.scale,
        )
        root = self.runtime.spawn_root(program, label=f"{self.name}:j{job.index}")
        root.add_listener(lambda _task: self._finish_job())

    def _region_name(self, job: Job) -> str:
        return f"{self.name}:j{job.index}"

    def _finish_job(self) -> None:
        job = self._current
        assert job is not None
        report = self.client.end(self._region_name(job))
        record = JobRecord(
            index=job.index,
            app=job.app,
            threads=job.threads,
            node=self.name,
            submit_s=job.submit_s,
            start_s=self._start_s,
            finish_s=self.engine.now,
            time_s=report.elapsed_s,
            energy_j=report.energy_j,
            avg_watts=report.avg_watts,
        )
        self._current = None
        if self._on_finish is not None:
            self._on_finish(self, record)

    def shutdown(self) -> None:
        """Cancel the node's repeating timers (idempotent)."""
        self.clamp.stop()
        self.daemon.stop()


def build_result(
    spec: "SchedSpec",
    accumulator: SchedAccumulator,
    records: list[JobRecord],
    *,
    wall_s: float = 0.0,
) -> SchedResult:
    """Assemble the frozen :class:`SchedResult` from streaming state.

    Shared by the single-segment, checkpointed and analytic runners so
    every path produces structurally identical results.
    """
    stats = accumulator.snapshot()
    return SchedResult(
        spec=spec,
        jobs=tuple(sorted(records, key=lambda r: r.index)),
        rejected=tuple(accumulator.rejected_indices),
        makespan_s=stats.makespan_s,
        peak_power_w=stats.peak_power_w,
        jobs_per_node=dict(stats.jobs_per_node),
        coordinator_rounds=stats.coordinator_rounds,
        engine_events=stats.engine_events,
        peak_queue_depth=stats.peak_queue_depth,
        budget_violations=tuple(accumulator.violations),
        stats=stats,
        wall_s=wall_s,
    )


def emit_finished(
    bus: TelemetryBus, spec: "SchedSpec", result: SchedResult,
    clamp_rounds: int = 0,
) -> None:
    """Emit the run-complete telemetry event (one per logical run)."""
    bus.emit(stel.SchedFinished(
        policy=spec.policy, profile=spec.profile,
        submitted=result.submitted, completed=result.completed,
        rejected=result.rejected_count, makespan_s=result.makespan_s,
        peak_power_w=result.peak_power_w, budget_w=spec.budget_w,
        clamp_rounds=clamp_rounds,
    ))


class ClusterSim:
    """Drives one scheduled run (or one segment of one): trace in,
    accumulator folds out, :class:`SchedResult` on :meth:`run`."""

    def __init__(
        self,
        spec: "SchedSpec",
        jobs: Iterable[Job],
        *,
        bus: Optional[TelemetryBus] = None,
        engine: Optional[Engine] = None,
        accumulator: Optional[SchedAccumulator] = None,
        records: Optional[list[JobRecord]] = None,
    ) -> None:
        self.spec = spec
        self.bus = bus if bus is not None else TelemetryBus()
        self.engine = engine if engine is not None else Engine()
        self.policy: PlacementPolicy = make_policy(spec.policy, model=spec.predictor)
        #: Lazy source of this segment's jobs; never materialized.  The
        #: segment ends once it runs out and every pulled job has drained.
        self._source = iter(jobs)
        self._exhausted = False
        self.accumulator = (
            accumulator if accumulator is not None else SchedAccumulator()
        )
        self.records: list[JobRecord] = records if records is not None else []
        self.queue = AdmissionQueue(spec.queue_depth)
        self.nodes = [
            SchedNode(
                f"node{i}",
                self.engine,
                threads=spec.node_threads,
                budget_w=spec.budget_w / spec.nodes,
                seed=spec.seed + i,
            )
            for i in range(spec.nodes)
        ]
        for node in self.nodes:
            self.accumulator.note_node(node.name)
        self.coordinator = PowerCoordinator(
            self.engine,
            self.nodes,
            spec.budget_w,
            period_s=spec.coordinator_period_s,
        )
        self._scheduled = 0
        self._arrived = 0
        #: Coordinator rounds with a node clamped below its full thread
        #: count (set when the segment drains; reported on SchedFinished).
        self.clamp_rounds = 0
        self._tick_event = None
        #: Segment start clock; the time limit is relative to it.
        self._t0_sim = self.engine.now
        for node in self.nodes:
            node._on_finish = self._job_finished

    # ------------------------------------------------------------------
    def run(self) -> SchedResult:
        """Execute this sim's whole job range and build the result."""
        t0 = time.perf_counter()
        self.run_segment()
        result = build_result(
            self.spec,
            self.accumulator,
            self.records,
            wall_s=time.perf_counter() - t0,
        )
        emit_finished(self.bus, self.spec, result, self.clamp_rounds)
        return result

    def run_segment(self) -> float:
        """Drive this segment to drain; returns the drain-time clock.

        Folds the segment's run-level aggregates (peak power, queue
        depth, coordinator rounds, engine events, budget violations)
        into the accumulator; always tears the timers down.
        """
        spec = self.spec
        self._prime_arrivals()
        self.coordinator.start()
        self._schedule_tick()
        try:
            while not self._finished():
                if self.engine.now > self._t0_sim + spec.time_limit_s:
                    raise SimulationError(
                        f"scheduled run exceeded {spec.time_limit_s} s with "
                        f"{len(self.queue)} queued and "
                        f"{sum(1 for n in self.nodes if n.busy)} running jobs"
                    )
                self.engine.run(until=self.engine.now + spec.period_s)
        finally:
            self.coordinator.stop()
            if self._tick_event is not None:
                self._tick_event.cancel()
                self._tick_event = None
            for node in self.nodes:
                node.shutdown()

        from repro.validate.cluster import check_cluster_budgets

        self.accumulator.add_violations(
            check_cluster_budgets(
                self.coordinator.samples, spec.budget_w, nodes=len(self.nodes)
            )
        )
        self.clamp_rounds = sum(
            1 for sample in self.coordinator.samples
            if any(limit < spec.node_threads
                   for limit in sample.clamp_limits.values()))
        self.accumulator.add_segment(
            peak_power_w=self.coordinator.peak_cluster_power_w,
            peak_queue_depth=self.queue.peak_depth,
            coordinator_rounds=len(self.coordinator.samples),
            engine_events=self.engine.fired,
        )
        return self.engine.now

    # ------------------------------------------------------------------
    def _finished(self) -> bool:
        return (
            self._exhausted
            and self._arrived == self._scheduled
            and len(self.queue) == 0
            and all(not node.busy for node in self.nodes)
        )

    def _prime_arrivals(self) -> None:
        """Top the arrival window back up from the lazy trace source.

        A resumed segment's first arrivals may carry submit times earlier
        than the carried clock (the previous segment drained past them);
        they fire immediately at the current clock, identically in the
        uninterrupted and resumed executions of the same spec.
        """
        while (
            not self._exhausted
            and self._scheduled - self._arrived < ARRIVAL_WINDOW
        ):
            job = next(self._source, None)
            if job is None:
                self._exhausted = True
                return
            self.engine.schedule_at(
                max(job.submit_s, self.engine.now),
                self._arrival(job),
                label=f"arrive-j{job.index}",
            )
            self._scheduled += 1

    def _arrival(self, job: Job):
        def fire() -> None:
            self._arrived += 1
            self._prime_arrivals()
            self.bus.emit(stel.JobSubmitted(
                index=job.index, app=job.app, threads=job.threads,
                time_s=self.engine.now,
            ))
            if not self.queue.offer(job):
                self.accumulator.add_rejection(job.index)
                self.bus.emit(stel.JobRejected(
                    index=job.index, app=job.app,
                    queue_depth=self.queue.depth, time_s=self.engine.now,
                ))
                return
            # Let the policy react to the arrival immediately rather than
            # waiting out the rest of the scheduling period.
            self._dispatch()
        return fire

    def _job_finished(self, node: SchedNode, record: JobRecord) -> None:
        self.accumulator.add_job(record)
        if self.spec.retain_jobs:
            self.records.append(record)
        self.bus.emit(stel.JobFinished(
            index=record.index, app=record.app, node=node.name,
            service_s=record.time_s, energy_j=record.energy_j,
            watts=record.avg_watts, time_s=self.engine.now,
        ))
        # A node just went idle: give the policy first refusal before the
        # next periodic tick.
        self._dispatch()

    def _schedule_tick(self) -> None:
        self._tick_event = self.engine.schedule(
            self.spec.period_s, self._tick, priority=Priority.DAEMON,
            label="sched-tick",
        )

    def _tick(self) -> None:
        self._dispatch()
        self._schedule_tick()

    def _snapshot(self) -> tuple[list[NodeView], ClusterState]:
        views = [
            NodeView(
                name=node.name,
                busy=node.busy,
                budget_w=node.clamp.budget_w,
                measured_power_w=node.measured_power_w,
                clamp_pressure=node.clamp.pressure,
            )
            for node in self.nodes
        ]
        total = sum(v.measured_power_w for v in views)
        state = ClusterState(
            time_s=self.engine.now,
            global_budget_w=self.spec.budget_w,
            total_power_w=total,
        )
        return views, state

    def _dispatch(self) -> None:
        """Ask the policy for placements until it holds or runs dry."""
        by_name = {node.name: node for node in self.nodes}
        while len(self.queue) > 0:
            views, state = self._snapshot()
            t0 = time.perf_counter()
            pick = self.policy.select(self.queue.jobs, views, state)
            select_s = time.perf_counter() - t0
            if pick is None:
                self.bus.emit(stel.PolicyHeld(
                    policy=self.spec.policy, queued=len(self.queue),
                    time_s=self.engine.now, select_s=select_s,
                ))
                return
            position, node_name = pick
            node = by_name.get(node_name)
            if node is None or node.busy:
                raise SimulationError(
                    f"policy {self.spec.policy!r} chose "
                    f"{'unknown' if node is None else 'busy'} node "
                    f"{node_name!r}"
                )
            job = self.queue.take(position)
            node.start_job(job)
            self.bus.emit(stel.JobPlaced(
                index=job.index, app=job.app, threads=job.threads,
                node=node.name, policy=self.spec.policy,
                wait_s=self.engine.now - job.submit_s,
                time_s=self.engine.now, select_s=select_s,
            ))


def run_sched(
    spec: "SchedSpec",
    *,
    bus: Optional[TelemetryBus] = None,
    engine: Optional[Engine] = None,
    checkpoint_dir=None,
) -> SchedResult:
    """Run a spec via whichever execution path it selects.

    ``checkpoint_dir`` (a path) enables atomic between-segment
    checkpoints and resume for specs with ``segment_jobs`` set; it is an
    execution detail (where on disk), never part of the spec digest.
    Like ``bus`` (which carries every job event a metrics or trace sink
    needs), it never reaches the digest.
    """
    if spec.execution == "analytic":
        from repro.sched.analytic import run_analytic

        return run_analytic(spec, bus=bus, checkpoint_dir=checkpoint_dir)
    if spec.segment_jobs:
        from repro.sched.checkpoint import run_segmented

        return run_segmented(spec, bus=bus, checkpoint_dir=checkpoint_dir)
    return ClusterSim(spec, spec_jobs(spec), bus=bus, engine=engine).run()
