"""Set-up probe: do what a fresh CLI call does before its first unit of
work, print ``ready``, tear down and exit.

Run by :func:`benchlib.measure_setup`, which times spawn-to-``ready``::

    python3 repobench/setup_probe.py paper-cells
"""

from __future__ import annotations

import os
import sys

import benchlib


def _warm_calibration() -> None:
    """Run one tiny cell: loads the calibration tables and every lazily
    imported module on the measurement path."""
    from repro.harness import RunSpec, execute_spec

    execute_spec(RunSpec("nqueens", scale=0.05))


def probe(workload: str) -> None:
    benchlib.ensure_src_on_path()
    if workload == "paper-cells":
        from repro.harness import BatchExecutor, ResultCache, RunSpec

        # The workload's own path: a BatchExecutor over nproc workers
        # starts its pool and each worker loads the calibration for one
        # tiny cell, into a scratch cache.
        workers = os.cpu_count() or 1
        scratch = benchlib.scratch_dir("setup")
        try:
            BatchExecutor(workers=workers,
                          cache=ResultCache(root=scratch)).run(
                [RunSpec("nqueens", scale=0.05, seed=i)
                 for i in range(workers)], sweep="setup")
            print("ready", flush=True)
        finally:
            benchlib.remove_tree(scratch)
    elif workload in ("sched-full", "sched-analytic"):
        from repro.sched import SchedSpec

        _warm_calibration()
        SchedSpec(jobs=1, nodes=1, execution=(
            "full" if workload == "sched-full" else "analytic")).execute()
        print("ready", flush=True)
    elif workload == "service-mixed":
        from repro.service.client import ServiceClient
        from repro.service.server import ServiceConfig
        from repro.service.testing import ServiceThread

        scratch = benchlib.scratch_dir("setup")
        try:
            config = ServiceConfig(
                port=0, workers=2, cache_root=str(scratch / "cache"),
                journal_path=str(scratch / "journal.jsonl"))
            with ServiceThread(config) as svc:
                with ServiceClient(port=svc.port, name="probe") as client:
                    client.ping()
                print("ready", flush=True)
        finally:
            benchlib.remove_tree(scratch)
    else:
        raise SystemExit(f"unknown workload {workload!r}")


if __name__ == "__main__":
    probe(sys.argv[1])
