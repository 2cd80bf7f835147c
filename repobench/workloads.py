"""The benchmark's four workloads: inputs, timed runs, traced runs and
correctness gates.

Why each workload exists
------------------------
``paper-cells``
    A cold-cache ``BatchExecutor`` sweep over the paper's Table I and
    throttling cells, using a pool of ``nproc`` workers.  The mix
    includes lulesh (bandwidth-bound; throttling changes its energy) and
    fibonacci/bots-fib (task recursion), plus dijkstra (coherence-bound),
    reduction and a BOTS kernel, each with and without ``--throttle``.
    Here hw, qthreads, sim, rcr and throttle do nearly all the work, and
    sched and service do none.  This is where work on the ``Node``
    recompute path should show.
``sched-full``
    One full-execution ``ClusterSim`` campaign per unit of work, enlarged
    from the bursty/waterfill four-node 400 W spec to a long run.  It
    exercises the cluster layer: per-node stacks, ``PowerCoordinator``
    clamps and per-job telemetry.  Folding the node-stack builders and
    ``repro.cluster``, or rewriting telemetry, moves this workload.
``sched-analytic``
    A campaign of tens of thousands of jobs with ``execution="analytic"``
    and ``retain_jobs=False``.  The sched layer takes most of the time
    and hw none, so a hot-path gain in hw must predict no change here.
    Per-job emit and registry costs show here, as does streaming memory
    through ``peak_rss_mb``.
``service-mixed``
    An open-loop load generator with at most ``nproc`` connections and a
    fixed arrival rate, against an in-thread ``ServiceThread`` with 2
    workers.
    Three jobs in four are new small RunSpecs (fork, execute, cache
    write, journal append); every fourth re-submits a finished digest,
    which exercises dedup.  After the run the service restarts over its
    journal.  Fork/IPC and the journal dominate, so worker-supervisor and
    journal work show here, and simulator speed-ups move only the
    execution share.  There is no SIGKILL chaos: crash recovery is tested
    elsewhere, and random kills would make the numbers unsteady.

How the layers should move the end-to-end metrics (see ``PREDICTIONS``;
later changes state their claims against these names).
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Optional

import benchlib
from benchlib import median, percentile, record_digest


def why(name: str) -> str:
    """The workload's one-line reason, as ``BENCHMARK.json`` records it."""
    spec = json.loads((benchlib.ROOT / "BENCHMARK.json").read_text())
    return next(w["why"] for w in spec["workloads"] if w["name"] == name)


#: Predicted effect of each per-layer metric on each end-to-end metric,
#: per workload.  "none" is a prediction too: a change to that layer must
#: leave the metric within its bound on that workload.
PREDICTIONS = {
    "hw.*, qthreads.*, sim.*, rcr.*, throttle.* (counts and self_s)": {
        "paper-cells": "sim_s_per_host_s, units_per_s",
        "sched-full": "sim_s_per_host_s, units_per_s",
        "service-mixed": "latency_p50_ms only, by at most the execution "
                         "share (service.exec_ms)",
        "sched-analytic": "none",
    },
    "sched.self_s, sched.selects": {
        "sched-analytic": "units_per_s",
        "sched-full": "negligible",
    },
    "cluster.*": {"sched-full": "units_per_s, sim_s_per_host_s, latency"},
    "harness.dispatch_s": {
        "paper-cells": "units_per_s, setup_s",
        "service-mixed": "latency_p50_ms, latency_p95_ms (worker fork, "
                         "pipe and wait)",
    },
    "service.*, obs.registry_self_s": {
        "service-mixed": "latency_p50_ms, latency_p95_ms, goodput_per_s",
    },
    "service.journal_bytes, retained state": {
        "service-mixed": "peak_rss_mb",
    },
}

LAYERS = ("sim", "hw", "qthreads", "rcr", "throttle", "harness", "sched",
          "cluster", "service", "obs")

#: Per-layer metrics of the traced run, in report order, with units.
PER_LAYER_METRICS: dict[str, str] = {
    "sim.events": "count",
    "hw.assign_calls": "count",
    "hw.mutator_calls": "count",
    "hw.power_reads": "count",
    "qthreads.enqueues": "count",
    "qthreads.steal_attempts": "count",
    "qthreads.steal_hit_ratio": "ratio",
    "rcr.ticks": "count",
    "rcr.publishes": "count",
    "throttle.evaluations": "count",
    "throttle.decisions": "count",
    "harness.cache_hits": "count",
    "harness.cache_misses": "count",
    "sched.selects": "count",
    "sched.jobs_completed": "count",
    "cluster.coordinator_rounds": "count",
    "service.dedup_hits": "count",
    "service.journal_appends": "count",
    "service.journal_bytes": "bytes",
    "service.requeues": "count",
    "service.shed": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.self_share": "ratio" for layer in LAYERS},
    "other.self_s": "s",
    "harness.spec_exec_s": "s",
    "harness.dispatch_s": "s",
    "service.queue_wait_ms": "ms",
    "service.exec_ms": "ms",
    "service.recover_s": "s",
    "obs.registry_self_s": "s",
    "bench.gen_late_p95_ms": "ms",
    "bench.trace_overhead": "ratio",
}

#: End-to-end metrics (tracing off), with units.
END_TO_END_METRICS: dict[str, str] = {
    "setup_s": "s",
    "units_per_s": "1/s",
    "sim_s_per_host_s": "s/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "goodput_per_s": "1/s",
    "ok_fraction": "ratio",
    "peak_rss_mb": "MiB",
}


# ----------------------------------------------------------------------
# shared accounting
# ----------------------------------------------------------------------
@dataclass
class Rep:
    """One repetition of a workload's fixed unit batch."""

    attempted: int
    failed: int
    completed: int
    host_s: float
    sim_s: float
    #: Latency of each unit, keyed by the unit's identity within the run
    #: (a cell, a campaign job, a service send).
    latencies_s: dict
    #: Completed, correct units that met the workload's latency limit.
    good: int


@dataclass
class Timed:
    """What one untraced run measured: repetitions of a fixed batch until
    ``--seconds`` passed.  Throughputs are the median over repetitions of
    the per-repetition value.  Each distinct unit's latency is its median
    over the repetitions that ran it; the latency percentiles are taken
    over those per-unit medians.

    Every timing is reported in reference seconds (see
    :func:`benchlib.yardstick`), scaled by the yardstick samples taken
    through the run.  An open-loop workload's throughputs are set by its
    arrival rate, not by host speed, and are left unscaled."""

    reps: list[Rep] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    limit_s: float = 1.0
    #: Host-speed yardstick samples taken through the run, in seconds.
    yard_s: list[float] = field(default_factory=list)
    #: Throughputs follow a fixed arrival rate rather than host speed.
    open_loop: bool = False

    @property
    def attempted(self) -> int:
        return sum(rep.attempted for rep in self.reps)

    @property
    def failed(self) -> int:
        return sum(rep.failed for rep in self.reps)

    @property
    def samples(self) -> int:
        return sum(len(rep.latencies_s) for rep in self.reps)

    def unit_latencies_s(self) -> list[float]:
        by_unit: dict = {}
        for rep in self.reps:
            for unit, latency in rep.latencies_s.items():
                by_unit.setdefault(unit, []).append(latency)
        return [median(samples) for samples in by_unit.values()]

    def end_to_end(self, setup_samples: list[float],
                   peak_rss_mb: float) -> dict:
        scale = benchlib.speed_scale(self.yard_s)
        per_s = 1.0 if self.open_loop else scale

        def per_rep(fn) -> float:
            return median([fn(rep) for rep in self.reps])

        latencies = self.unit_latencies_s()
        values = {
            "setup_s": median(setup_samples) * scale,
            "units_per_s": per_rep(
                lambda r: r.completed / (r.host_s * per_s)),
            "sim_s_per_host_s": per_rep(
                lambda r: r.sim_s / (r.host_s * per_s)),
            "latency_p50_ms": percentile(latencies, 50) * 1e3 * scale,
            "latency_p95_ms": percentile(latencies, 95) * 1e3 * scale,
            "goodput_per_s": per_rep(lambda r: r.good / (r.host_s * per_s)),
            "ok_fraction": (self.attempted - self.failed) / self.attempted,
            "peak_rss_mb": peak_rss_mb,
        }
        return {name: benchlib.metric(value, END_TO_END_METRICS[name])
                for name, value in values.items()}


def _good(latencies_s: dict, limit_s: float, failed: int) -> int:
    return max(0, sum(1 for lat in latencies_s.values() if lat <= limit_s)
               - failed)


def repeat_for(seconds: float, once: Callable[[], object],
               yard_s: list[float]) -> list:
    """Call ``once`` until ``seconds`` have passed (at least once),
    sampling the host-speed yardstick into ``yard_s`` before each call
    and after the last."""
    results = []
    deadline = time.perf_counter() + seconds
    while not results or time.perf_counter() < deadline:
        benchlib.sample_speed(yard_s)
        results.append(once())
    benchlib.sample_speed(yard_s)
    return results


def count_mismatches(expected: dict[str, str],
                     observed: Iterable[tuple[str, str]]) -> int:
    """The correctness gate: observed ``(key, digest)`` pairs whose digest
    differs from the expected one for that key, or whose key has no
    expected digest at all.  Nothing is skipped."""
    return sum(1 for key, digest in observed if expected.get(key) != digest)


def pinned(workload: str, seed: int) -> Optional[dict[str, str]]:
    """Digests pinned for this seed in ``pins.json`` (None: not pinned)."""
    path = benchlib.BENCH_DIR / "pins.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(workload, {}).get(str(seed))


def _sub_seed(tag: str, seed: int) -> random.Random:
    return random.Random(f"{tag}:{seed}")


# ----------------------------------------------------------------------
# paper-cells
# ----------------------------------------------------------------------
#: (app, throttled) cells: Table I rows plus the throttling pairs, in a
#: fixed longest-first submission order so the pool packs every sweep
#: the same way.
PAPER_CELLS = (
    ("fibonacci", False), ("lulesh", True), ("lulesh", False),
    ("dijkstra", True), ("dijkstra", False), ("bots-fib", False),
    ("reduction", True), ("bots-health", True), ("bots-health", False),
    ("reduction", False),
)
CELL_LATENCY_LIMIT_S = 5.0


def paper_cell_specs(seed: int) -> list:
    """The cells, with per-cell simulator seeds drawn from ``seed``."""
    from repro.harness import RunSpec

    rng = _sub_seed("paper-cells", seed)
    return [RunSpec(app, throttle=throttled, seed=rng.randrange(1 << 30))
            for app, throttled in PAPER_CELLS]


def _cell_sweep(specs, workers: int):
    """One cold-cache sweep; returns (wall seconds, records)."""
    from repro.harness import BatchExecutor, ResultCache

    scratch = benchlib.scratch_dir("cells")
    try:
        executor = BatchExecutor(workers=workers,
                                 cache=ResultCache(root=scratch))
        t0 = time.perf_counter()
        records = executor.run(specs, sweep="paper-cells")
        return time.perf_counter() - t0, records
    finally:
        benchlib.remove_tree(scratch)


def cell_reference(seed: int, records) -> dict[str, str]:
    """Digests of serial-path records, checked against the pins when the
    seed is pinned (a pin mismatch poisons the reference, so every unit
    checked against it fails)."""
    reference = {r.spec.digest: record_digest(r) for r in records}
    pins = pinned("paper-cells", seed)
    if pins is not None and pins != reference:
        return {}
    return reference


def run_paper_cells(seed: int, seconds: float) -> Timed:
    from repro.harness import execute_spec

    specs = paper_cell_specs(seed)
    workers = os.cpu_count() or 1
    out = Timed(limit_s=CELL_LATENCY_LIMIT_S)
    sweeps = repeat_for(seconds, lambda: _cell_sweep(specs, workers),
                        out.yard_s)
    reference = cell_reference(seed, [execute_spec(s) for s in specs])
    for wall, records in sweeps:
        bad = count_mismatches(
            reference, ((r.spec.digest, record_digest(r)) for r in records))
        latencies = {r.spec.digest: r.wall_s for r in records}
        out.reps.append(Rep(
            attempted=len(specs), failed=bad, completed=len(records),
            host_s=wall, sim_s=sum(r.time_s for r in records),
            latencies_s=latencies,
            good=_good(latencies, out.limit_s, bad)))
    out.notes.append(f"{len(sweeps)} sweeps x {len(specs)} cells, "
                     f"{workers} workers; pool == serial reference")
    return out


def trace_paper_cells(seed: int, tracer_factory):
    from repro.harness import BatchExecutor, ResultCache

    specs = paper_cell_specs(seed)
    workers = os.cpu_count() or 1
    serial_wall, serial = _cell_sweep(specs, 1)
    scratch = benchlib.scratch_dir("cells-traced")
    try:
        with tracer_factory() as tracer:
            executor = BatchExecutor(workers=1,
                                     cache=ResultCache(root=scratch))
            t0 = time.perf_counter()
            traced = executor.run(specs, sweep="paper-cells")
            traced_wall = time.perf_counter() - t0
            cached = executor.run(specs, sweep="paper-cells-again")
    finally:
        benchlib.remove_tree(scratch)
    pool_wall, pooled = _cell_sweep(specs, workers)
    reference = cell_reference(seed, serial)
    failed = sum(count_mismatches(
        reference, ((r.spec.digest, record_digest(r)) for r in records))
        for records in (serial, traced, cached, pooled))
    exec_s = sum(r.wall_s for r in pooled)
    extra = {
        "harness.spec_exec_s": exec_s,
        "harness.dispatch_s": pool_wall - exec_s / workers,
        "bench.trace_overhead": traced_wall / serial_wall,
    }
    return tracer, extra, 4 * len(specs), failed


# ----------------------------------------------------------------------
# sched campaigns
# ----------------------------------------------------------------------
class _JobClock:
    """Telemetry sink timing each campaign job from arrival to finish in
    host seconds, by job index."""

    def __init__(self) -> None:
        self.submitted: dict[int, float] = {}
        self.latencies_s: dict[int, float] = {}

    def handle(self, event) -> None:
        name = type(event).__name__
        if name == "JobSubmitted":
            self.submitted[event.index] = time.perf_counter()
        elif name == "JobFinished":
            self.latencies_s[event.index] = (
                time.perf_counter() - self.submitted.pop(event.index))


#: sched-full campaign shape: the waterfill four-node 400 W cluster of
#: the scheduler's reference spec, fed a steady trace of reduction jobs
#: below saturation.  Steady arrivals and one app keep the work per
#: campaign a stated size; bursty arrivals over the five-app mix move
#: host time by +-30% between seeds, wider than any usable bound.
SCHED_FULL = dict(profile="steady", policy="waterfill", nodes=4,
                  budget_w=400.0, jobs=24, scale=0.4, rate_jobs_per_s=0.06,
                  queue_depth=24, time_limit_s=1e5, apps=("reduction",))
#: The stated input size: a campaign seed is accepted only when its trace
#: asks for each thread count equally often and its total work (sum of
#: job scales) and node-seconds demand (sum of scale / threads) both lie
#: within SIZE_BAND of these values — the medians over campaign seeds
#: 0..1999.  Per-job latency quantiles then compare across seeds too.
SCHED_FULL_SIZE = (9.58652586619392, 1.395862491525103)
SIZE_BAND = 0.01
SCHED_FULL_LATENCY_LIMIT_S = 10.0

#: sched-analytic campaign shape: 30,000 jobs on sixteen nodes at about
#: 60% offered load, so long jobs queue but nothing is shed.  Steady
#: arrivals fix the simulated span; bursty lulls move it by +-15% between
#: seeds.  At this size, retaining the per-job records (retain_jobs=True)
#: raises peak RSS by more than peak_rss_mb's bound.
SCHED_ANALYTIC = dict(profile="steady", policy="waterfill", nodes=16,
                      budget_w=1600.0, jobs=30_000, rate_jobs_per_s=0.4,
                      queue_depth=512, time_limit_s=1e8,
                      execution="analytic", retain_jobs=False)
SCHED_ANALYTIC_LATENCY_LIMIT_S = 10.0


def trace_size(spec) -> tuple[dict[int, int], float, float]:
    """(jobs per thread count, total work, node-seconds demand) of a
    campaign's trace."""
    from repro.sched.workload import iter_trace

    jobs = list(iter_trace(spec.profile, jobs=spec.jobs,
                           rate_jobs_per_s=spec.rate_jobs_per_s,
                           seed=spec.seed, apps=spec.apps, scale=spec.scale))
    return (dict(Counter(job.threads for job in jobs)),
            sum(job.scale for job in jobs),
            sum(job.scale / job.threads for job in jobs))


def has_stated_size(spec) -> bool:
    from repro.sched.workload import THREAD_CHOICES

    threads, work, demand = trace_size(spec)
    even = spec.jobs // len(THREAD_CHOICES)
    return (threads == {t: even for t in THREAD_CHOICES}
            and all(abs(got / want - 1.0) <= SIZE_BAND
                    for got, want in zip((work, demand), SCHED_FULL_SIZE)))


def sched_spec(workload: str, seed: int):
    """The campaign for ``seed``: analytic campaigns take the first
    seed-drawn campaign seed; full campaigns the first whose trace has the
    stated size (:func:`has_stated_size`)."""
    from repro.sched import SchedSpec

    rng = _sub_seed(workload, seed)
    if workload == "sched-analytic":
        return SchedSpec(seed=rng.randrange(1 << 30), **SCHED_ANALYTIC)
    while True:
        spec = SchedSpec(seed=rng.randrange(1 << 30), **SCHED_FULL)
        if has_stated_size(spec):
            return spec


def _run_campaign(spec):
    from repro.harness.telemetry import TelemetryBus

    clock = _JobClock()
    t0 = time.perf_counter()
    result = spec.execute(bus=TelemetryBus([clock]))
    return time.perf_counter() - t0, result, clock.latencies_s


def campaign_failures(spec, result, expected_digest: str) -> int:
    """Jobs of one campaign that count as failed: shed jobs, jobs never
    completed, and — on a digest mismatch or a budget violation — every
    job."""
    if (result.result_digest() != expected_digest
            or result.budget_violations):
        return spec.jobs
    return max(spec.jobs - result.completed, result.rejected_count)


def _expected_digest(workload: str, seed: int, spec, first) -> str:
    pins = pinned(workload, seed)
    if pins is not None:
        return pins.get(spec.digest, "")
    return first.result_digest()


def run_sched(workload: str, seed: int, seconds: float) -> Timed:
    spec = sched_spec(workload, seed)
    analytic = spec.execution == "analytic"
    out = Timed(limit_s=(SCHED_ANALYTIC_LATENCY_LIMIT_S if analytic
                         else SCHED_FULL_LATENCY_LIMIT_S))
    reps = repeat_for(seconds, lambda: _run_campaign(spec), out.yard_s)
    expected = _expected_digest(workload, seed, spec, reps[0][1])
    for wall, result, latencies in reps:
        failed = campaign_failures(spec, result, expected)
        if analytic:
            # Analytic campaigns emit no per-job events (that is what
            # makes them streaming): the unit a user waits for is the
            # whole campaign, so p50 and p95 are both its median time.
            latencies = {"campaign": wall}
            good = max(0, (result.completed if wall <= out.limit_s else 0)
                       - failed)
        else:
            good = _good(latencies, out.limit_s, failed)
        out.reps.append(Rep(
            attempted=spec.jobs, failed=failed, completed=result.completed,
            host_s=wall, sim_s=result.makespan_s, latencies_s=latencies,
            good=good))
    out.notes.append(f"{len(reps)} campaigns of {spec.describe()}; "
                     f"digest {expected[:12]}")
    return out


def trace_sched(workload: str, seed: int, tracer_factory):
    spec = sched_spec(workload, seed)
    untraced_wall, untraced, _ = _run_campaign(spec)
    with tracer_factory() as tracer:
        traced_wall, traced, _ = _run_campaign(spec)
    expected = _expected_digest(workload, seed, spec, untraced)
    failed = (campaign_failures(spec, untraced, expected)
              + campaign_failures(spec, traced, expected))
    extra = {
        "sched.jobs_completed": traced.completed,
        "bench.trace_overhead": traced_wall / untraced_wall,
    }
    return tracer, extra, 2 * spec.jobs, failed


# ----------------------------------------------------------------------
# service-mixed
# ----------------------------------------------------------------------
SERVICE_RATE_PER_S = 16.0
SERVICE_WORKERS = 2
SERVICE_APPS = ("nqueens", "reduction", "mergesort")
SERVICE_SCALE = 0.05
#: Every RESUBMIT_EVERY-th job re-submits an earlier digest, drawn from
#: those submitted at least RESUBMIT_LAG new jobs before.
RESUBMIT_EVERY = 4
RESUBMIT_LAG = 6
SERVICE_LATENCY_LIMIT_S = 0.5
#: Sends per reporting window (the service workload's repetition).
SERVICE_WINDOW = 24
#: How long to wait for stragglers after the last send.
SERVICE_DRAIN_S = 60.0


def service_jobs(seconds: float) -> int:
    """Sends in a run of ``seconds`` at the fixed arrival rate."""
    return max(RESUBMIT_EVERY * 2, round(SERVICE_RATE_PER_S * seconds))


def service_plan(seed: int, jobs: int) -> list:
    """The submission sequence: each entry is a RunSpec; re-submits repeat
    an earlier spec object."""
    from repro.harness import RunSpec

    rng = _sub_seed("service-mixed", seed)
    plan, fresh = [], []
    for i in range(jobs):
        if i % RESUBMIT_EVERY == RESUBMIT_EVERY - 1 and \
                len(fresh) > RESUBMIT_LAG:
            plan.append(fresh[rng.randrange(len(fresh) - RESUBMIT_LAG)])
            continue
        spec = RunSpec(SERVICE_APPS[len(fresh) % len(SERVICE_APPS)],
                       scale=SERVICE_SCALE, seed=rng.randrange(1 << 30))
        fresh.append(spec)
        plan.append(spec)
    return plan


class _FinishClock:
    """Service telemetry sink: host time each job reached a terminal
    state (runs on the service's loop thread)."""

    def __init__(self) -> None:
        self.finished: dict[str, float] = {}
        self.cond = threading.Condition()

    def handle(self, event) -> None:
        name = type(event).__name__
        if name in ("JobFinished", "JobFailed", "JobDead", "JobCancelled"):
            with self.cond:
                self.finished[event.job] = time.perf_counter()
                self.cond.notify_all()


@dataclass
class ServiceRun:
    #: Per window of SERVICE_WINDOW consecutive sends: attempted, failed,
    #: latencies, span (first due time to last result) and sim seconds.
    windows: list[dict]
    late_s: list[float]
    failed: int
    attempted: int
    queue_wait_ms: list[float]
    exec_ms: list[float]
    counters: dict
    recover_s: float
    journal_bytes: int


def _journal_bytes(path: Path) -> int:
    """Journal size with the wall-clock stamp and worker pid removed from
    each entry: those two fields vary in width from run to run, the rest
    is a pure function of the submission sequence."""
    total = 0
    for line in path.read_text().splitlines():
        entry = json.loads(line)
        entry.pop("t", None)
        entry.pop("pid", None)
        total += len(json.dumps(entry, sort_keys=True)) + 1
    return total


def _send_loop(port: int, name: str, plan, indices, t0: float,
               responses: dict, late: list) -> None:
    from repro.service.client import ServiceClient

    try:
        with ServiceClient(port=port, name=name, timeout=120.0) as client:
            for i in indices:
                due = t0 + i / SERVICE_RATE_PER_S
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                sent = time.perf_counter()
                late.append(sent - due)
                response = client.submit(plan[i])
                responses[i] = (due, time.perf_counter(), response)
    except Exception as exc:  # its unsent units count as failed
        print(f"sender {name}: {exc!r}", file=sys.stderr)


def run_service(seed: int, seconds: float,
                tracer_factory=contextlib.nullcontext):
    """One open-loop run, a restart over the journal, and the output
    checks.  Only the service's lifetime runs under ``tracer_factory``;
    the checks are the benchmark's own work.  Returns (run, tracer)."""
    from repro.harness import ResultCache
    from repro.harness.telemetry import TelemetryBus
    from repro.service.client import ServiceClient
    from repro.service.jobs import result_summary
    from repro.service.server import ServiceConfig
    from repro.service.testing import ServiceThread

    jobs = service_jobs(seconds)
    plan = service_plan(seed, jobs)
    connections = max(1, min(os.cpu_count() or 1, jobs))
    scratch = benchlib.scratch_dir("service")
    cache_root = scratch / "cache"
    journal = scratch / "journal.jsonl"
    config = ServiceConfig(
        port=0, workers=SERVICE_WORKERS, queue_depth=jobs + 8,
        timeout_s=60.0, quota_rate=1e6, quota_burst=1e6,
        cache_root=str(cache_root), journal_path=str(journal))
    clock = _FinishClock()
    responses: dict[int, tuple] = {}
    late: list[float] = []
    try:
        with tracer_factory() as tracer, \
                ServiceThread(config, bus=TelemetryBus([clock])) as svc:
            t0 = time.perf_counter() + 0.05
            senders = [threading.Thread(
                target=_send_loop,
                args=(svc.port, f"bench{c}", plan,
                      range(c, jobs, connections), t0, responses, late))
                for c in range(connections)]
            for sender in senders:
                sender.start()
            for sender in senders:
                sender.join(SERVICE_DRAIN_S + seconds * 2)
            job_ids = {i: r[2].get("job") for i, r in responses.items()
                       if r[2].get("ok")}
            deadline = time.perf_counter() + SERVICE_DRAIN_S
            with clock.cond:
                while (not set(job_ids.values()) <= set(clock.finished)
                       and time.perf_counter() < deadline):
                    clock.cond.wait(0.5)
            snapshots = {}
            with ServiceClient(port=svc.port, name="bench-check",
                               timeout=120.0) as client:
                for job in sorted(set(job_ids.values())):
                    snapshots[job] = client.result(job, timeout_s=10.0)
            counters = dict(svc.service.counters)
            svc.stop()
            # Restart over the journal: time from boot to serving.
            t_boot = time.perf_counter()
            with ServiceThread(config) as again_svc:
                recover_s = time.perf_counter() - t_boot
                recovered = again_svc.service.counters["recovered"]
                with ServiceClient(port=again_svc.port, name="bench-restart",
                                   timeout=60.0) as client:
                    again = client.submit_and_wait(plan[0], timeout_s=30.0)
        journal_bytes = _journal_bytes(journal)
        cache = ResultCache(root=cache_root)
        executions = cache.execution_counts()
        records = {spec.digest: cache.get(spec)
                   for spec in {s.digest: s for s in plan}.values()}
    finally:
        benchlib.remove_tree(scratch)

    failed_units: set[int] = set()
    done: dict[int, tuple[float, float, float]] = {}
    queue_wait_ms, exec_ms = [], []
    for i, (due, answered, response) in sorted(responses.items()):
        spec = plan[i]
        if not response.get("ok"):
            failed_units.add(i)
            continue
        job = response["job"]
        snap = snapshots.get(job, {})
        record = records.get(spec.digest)
        if (snap.get("state") != "done" or record is None
                or snap.get("result") != result_summary(record)):
            failed_units.add(i)
            continue
        done_at = (answered if response.get("state") == "done"
                   else clock.finished.get(job))
        if done_at is None:
            failed_units.add(i)
            continue
        # Simulated seconds count once per execution: a re-submit is
        # answered by dedup and simulates nothing.
        done[i] = (due, done_at,
                   record.time_s if plan.index(spec) == i else 0.0)
        if "started_at" in snap and snap.get("source") == "executed":
            queue_wait_ms.append(
                (snap["started_at"] - snap["submitted_at"]) * 1e3)
            exec_ms.append((snap["finished_at"] - snap["started_at"]) * 1e3)
    # Exactly once per digest, across the run and the restart.
    for i, spec in enumerate(plan):
        if executions.get(spec.digest) != 1:
            failed_units.add(i)
    if recovered or again.get("state") != "done":
        failed_units.update(range(jobs))
    failed_units |= _sampled_output_failures(seed, plan, records)
    windows = []
    for lo in range(0, jobs, SERVICE_WINDOW):
        members = range(lo, min(jobs, lo + SERVICE_WINDOW))
        ok = {i: done[i] for i in members
              if i in done and i not in failed_units}
        if not ok:
            continue
        windows.append({
            "attempted": len(members),
            "failed": len(members) - len(ok),
            "latencies": {i: end - due for i, (due, end, _) in ok.items()},
            "span_s": (max(end for _, end, _ in ok.values())
                       - min(due for due, _, _ in ok.values())),
            "sim_s": sum(sim for _, _, sim in ok.values()),
        })
    return ServiceRun(
        windows=windows, late_s=late, failed=len(failed_units | (
            set(range(jobs)) - set(done))), attempted=jobs,
        queue_wait_ms=queue_wait_ms, exec_ms=exec_ms, counters=counters,
        recover_s=recover_s, journal_bytes=journal_bytes), tracer


#: Fresh specs re-executed in-process per run on an unpinned seed to
#: check the service's stored outputs.
SERVICE_SAMPLE = 8


def reference_specs(seed: int, plan) -> tuple[dict[str, str], list]:
    """(pinned digests, specs to re-execute in-process) for checking a
    service run's stored outputs.  On a pinned seed every fresh spec
    without a pin (a run longer than the pinned plan) is re-executed; on
    an unpinned seed, a seed-drawn sample of SERVICE_SAMPLE."""
    fresh = list({spec.digest: spec for spec in plan}.values())
    pins = pinned("service-mixed", seed)
    if pins is not None:
        return pins, [spec for spec in fresh if spec.digest not in pins]
    rng = _sub_seed("service-mixed/sample", seed)
    return {}, rng.sample(fresh, min(SERVICE_SAMPLE, len(fresh)))


def _sampled_output_failures(seed: int, plan, records) -> set[int]:
    """Indices whose stored record disagrees with the pinned digests or
    with an in-process execution of the same spec."""
    from repro.harness import execute_spec

    pins, rerun = reference_specs(seed, plan)
    expected = dict(pins)
    expected.update({spec.digest: record_digest(execute_spec(spec))
                     for spec in rerun})
    bad = set()
    for i, spec in enumerate(plan):
        if spec.digest not in expected:
            # Unpinned seed, outside the sample: this spec still gets the
            # exactly-once and wire-summary checks of run_service.
            continue
        record = records.get(spec.digest)
        observed = record_digest(record) if record is not None else ""
        if count_mismatches(expected, [(spec.digest, observed)]):
            bad.add(i)
    return bad


def run_service_timed(seed: int, seconds: float) -> Timed:
    # Host speed is sampled before and after the open-loop run: the
    # service's threads would contend with a sample taken during it.
    out = Timed(limit_s=SERVICE_LATENCY_LIMIT_S, open_loop=True)
    benchlib.sample_speed(out.yard_s)
    run, _ = run_service(seed, seconds)
    benchlib.sample_speed(out.yard_s)
    for window in run.windows:
        out.reps.append(Rep(
            attempted=window["attempted"], failed=window["failed"],
            completed=len(window["latencies"]), host_s=window["span_s"],
            sim_s=window["sim_s"], latencies_s=window["latencies"],
            good=_good(window["latencies"], out.limit_s,
                       window["failed"])))
    out.notes.append(
        f"{run.attempted} jobs at {SERVICE_RATE_PER_S:g}/s open loop in "
        f"{len(run.windows)} windows of {SERVICE_WINDOW} sends; generator "
        f"late p95 {percentile(run.late_s, 95) * 1e3:.2f} ms; restart over "
        f"journal {run.recover_s:.3f} s")
    return out


def _mean_latency(run: ServiceRun) -> float:
    latencies = [lat for window in run.windows
                 for lat in window["latencies"].values()]
    return sum(latencies) / len(latencies)


def trace_service(seed: int, seconds: float, tracer_factory):
    """Open-loop wall time is set by the arrival rate, so the tracing
    overhead is stated as the ratio of mean submit-to-result latency."""
    untraced, _ = run_service(seed, seconds)
    traced, tracer = run_service(seed, seconds, tracer_factory)
    c = traced.counters
    exec_s = tracer.child_seconds()["run_spec_subprocess"]
    extra = {
        "harness.spec_exec_s": exec_s,
        "harness.dispatch_s": (tracer.span_seconds()["run_spec_subprocess"]
                               - exec_s),
        "service.dedup_hits": c["attached"] + c["cache_hits"],
        "service.journal_appends": tracer.calls()["Journal.append"],
        "service.journal_bytes": traced.journal_bytes,
        "service.requeues": c["requeues"],
        "service.shed": c["shed_queue"] + c["shed_quota"] + c["shed_draining"],
        "service.queue_wait_ms": median(traced.queue_wait_ms),
        "service.exec_ms": median(traced.exec_ms),
        "service.recover_s": traced.recover_s,
        "bench.gen_late_p95_ms": percentile(traced.late_s, 95) * 1e3,
        "bench.trace_overhead": (_mean_latency(traced)
                                 / _mean_latency(untraced)),
    }
    return (tracer, extra, untraced.attempted + traced.attempted,
            untraced.failed + traced.failed)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    name: str
    #: ``run(seed, seconds)``: the untraced, timed run.
    run: Callable[[int, float], Timed]
    #: ``trace(seed, seconds, tracer_factory)``: the traced run; returns
    #: (tracer, extra per-layer values, units attempted, units failed).
    trace: Callable


WORKLOADS = {
    "paper-cells": Workload(
        "paper-cells", run_paper_cells,
        lambda seed, seconds, factory: trace_paper_cells(seed, factory)),
    "sched-full": Workload(
        "sched-full",
        lambda seed, seconds: run_sched("sched-full", seed, seconds),
        lambda seed, seconds, factory: trace_sched("sched-full", seed,
                                                   factory)),
    "sched-analytic": Workload(
        "sched-analytic",
        lambda seed, seconds: run_sched("sched-analytic", seed, seconds),
        lambda seed, seconds, factory: trace_sched("sched-analytic", seed,
                                                   factory)),
    "service-mixed": Workload(
        "service-mixed", run_service_timed,
        trace_service),
}
