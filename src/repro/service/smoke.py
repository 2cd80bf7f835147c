"""End-to-end service smoke: submit, dedup, worker kill, exactly-once.

``python -m repro.service.smoke`` (or ``make serve-smoke``) runs the
whole robustness story in a few seconds against a throwaway cache and
journal:

1. start the service (2 workers, ephemeral port);
2. submit three specs — a slow one, a fast one, and a *duplicate* of
   the fast one (same digest, different client);
3. SIGKILL the worker process running the slow spec mid-measurement;
4. assert every job reaches ``done`` and that the result cache's
   per-digest execution counts show exactly **two** executions — the
   duplicate attached instead of re-running, and the killed worker's
   redelivery re-ran without double-recording.

Exit code 0 and a single ``service smoke OK`` line on success; any
violated invariant raises.
"""

from __future__ import annotations

import os
import signal
import sys
import tempfile
import time
from pathlib import Path

from repro.harness.cache import ResultCache
from repro.harness.spec import RunSpec
from repro.service.client import ServiceClient
from repro.service.server import ServiceConfig
from repro.service.testing import ServiceThread

#: Slow enough to catch and kill mid-run (~0.7 s of simulation on a
#: 2-vCPU x86_64 host), fast enough for a smoke test.  Workers fork with
#: the simulator already imported, so start-up adds no slack to the run.
SLOW_SPEC = RunSpec(app="mergesort", threads=2, scale=50.0, seed=11)
FAST_SPEC = RunSpec(app="nqueens", threads=2, scale=0.05, seed=7)


def _wait_for_pid(client: ServiceClient, job: str,
                  deadline_s: float = 30.0) -> int:
    """Poll ``stats`` until ``job`` has a live worker pid."""
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        for active in client.stats()["active"]:
            if active["job"] == job and active["pid"]:
                return active["pid"]
        time.sleep(0.01)
    raise AssertionError(f"no worker pid observed for {job}")


def run_smoke(root: Path) -> str:
    cache_root = str(root / "cache")
    config = ServiceConfig(
        port=0,
        workers=2,
        queue_depth=16,
        timeout_s=60.0,
        retries=1,
        max_redeliveries=3,
        cache_root=cache_root,
        journal_path=str(root / "journal.jsonl"),
    )
    with ServiceThread(config) as svc:
        with ServiceClient(port=svc.port, name="smoke-a") as a, \
                ServiceClient(port=svc.port, name="smoke-b") as b:
            slow = a.submit(SLOW_SPEC)
            assert slow["ok"], slow
            fast = a.submit(FAST_SPEC)
            assert fast["ok"], fast
            dup = b.submit(FAST_SPEC)
            assert dup["ok"], dup
            assert dup["digest"] == fast["digest"]
            assert dup["job"] == fast["job"], \
                "duplicate digest must attach, not enqueue a second job"

            # Chaos: kill the worker measuring the slow spec.
            pid = _wait_for_pid(a, slow["job"])
            os.kill(pid, signal.SIGKILL)

            done_slow = a.result(slow["job"], timeout_s=120.0)
            done_fast = a.result(fast["job"], timeout_s=120.0)
            done_dup = b.result(dup["job"], timeout_s=120.0)
            for snap in (done_slow, done_fast, done_dup):
                assert snap["state"] == "done", snap
            assert done_slow["redeliveries"] >= 1, \
                "killed worker should have forced a redelivery"
            assert done_dup["subscribers"] >= 2

            stats = client_stats = a.stats()
            assert client_stats["counters"]["crashes"] >= 1, stats

    counts = ResultCache(root=cache_root).execution_counts()
    assert len(counts) == 2, f"expected 2 executed digests, got {counts}"
    assert all(n == 1 for n in counts.values()), \
        f"duplicate executions detected: {counts}"
    return (f"service smoke OK (3 submissions, {len(counts)} executions, "
            f"1 worker killed, redeliveries={done_slow['redeliveries']})")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-svc-smoke-") as tmp:
        print(run_smoke(Path(tmp)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
