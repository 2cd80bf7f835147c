"""Shared plumbing for the repository benchmark: paths, statistics,
digests, memory, host fingerprint and set-up timing.

Nothing here imports :mod:`repro` at module level, so the benchmark can
report a clean failure (and no result line) when the source tree is
missing.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space for caches, journals and traces; always inside the
#: checkout so a run reads and writes nothing outside it.
OUT_DIR = ROOT / ".bench_out"


def ensure_src_on_path() -> None:
    """Make ``repro`` importable from the checkout's ``src`` tree."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no source tree at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def scratch_dir(tag: str) -> Path:
    """A fresh, empty directory under ``.bench_out`` for this process."""
    path = OUT_DIR / f"{tag}-{os.getpid()}-{time.monotonic_ns()}"
    path.mkdir(parents=True)
    return path


def remove_tree(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in 0..100) of a non-empty list."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


# ----------------------------------------------------------------------
# digests
# ----------------------------------------------------------------------
def record_digest(record) -> str:
    """SHA-256 over a measurement record's deterministic content.

    The record's ``repr`` renders every field with exact float ``repr``;
    the host wall clock (``wall_s``) is zeroed first because it is the
    one field that legitimately differs between executions.
    """
    stable = dataclasses.replace(record, wall_s=0.0)
    return hashlib.sha256(repr(stable).encode()).hexdigest()


# ----------------------------------------------------------------------
# memory and host
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child, in MiB.

    ``ru_maxrss`` is KiB on Linux; for children the kernel reports the
    maximum over all waited-for descendants, not their sum.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _source_digest() -> str:
    """Digest of every ``.py`` file under ``src``: names the code measured
    even where no git metadata exists."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_fingerprint() -> dict:
    """Cores, interpreter, platform and the code measured.

    Wall times do not carry across machines, so every result line is
    printed next to this.
    """
    return {
        "cores": os.cpu_count() or 1,
        "interpreter": f"{platform.python_implementation()} "
                       f"{platform.python_version()}",
        "platform": platform.platform(),
        "machine": platform.machine(),
        "commit": _git_commit(),
        "source_digest": _source_digest(),
    }


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------
#: Median :func:`yardstick` time on the reference host (a 2-vCPU x86-64
#: VM running CPython 3.11).  Timings are reported in reference seconds:
#: host seconds times YARDSTICK_REF_S over the run's median yardstick.
YARDSTICK_REF_S = 0.025
#: Yardstick samples per :func:`sample_speed` call.
YARDSTICK_SAMPLES = 3


def yardstick() -> float:
    """Seconds a fixed piece of interpreter work takes on this host now.

    It shares no code with ``repro``, so a change to the program cannot
    move it.  On a shared host the speed of the same code drifts by up to
    1.9x within minutes.  Over 20-second windows of back-to-back
    sched-full campaigns, window median time spread (IQR/median) 0.22
    raw and 0.13 divided by this loop's median; an allocation-heavy
    event-loop yardstick did worse (0.26), so the loop is plain integer
    arithmetic.
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return time.perf_counter() - t0


def sample_speed(yard_s: list[float]) -> None:
    """Append YARDSTICK_SAMPLES yardstick samples to ``yard_s``."""
    yard_s.extend(yardstick() for _ in range(YARDSTICK_SAMPLES))


def speed_scale(yard_samples: Sequence[float]) -> float:
    """Factor turning host seconds into reference seconds."""
    return YARDSTICK_REF_S / median(yard_samples)


# ----------------------------------------------------------------------
# set-up timing
# ----------------------------------------------------------------------
SETUP_REPEATS = 5


def measure_setup(workload: str, yard_s: list[float]) -> list[float]:
    """Seconds from spawning a fresh interpreter to the workload being
    ready for its first timed unit, measured ``SETUP_REPEATS`` times,
    each after a host-speed yardstick sample taken into ``yard_s``.

    Each probe pays what every CLI call pays: interpreter start, import,
    calibration load, and the pool spawn or service boot.
    """
    probe = BENCH_DIR / "setup_probe.py"
    samples = []
    for _ in range(SETUP_REPEATS):
        sample_speed(yard_s)
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(probe), workload], cwd=ROOT,
            stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(
                f"set-up probe for {workload!r} failed (exit {code})")
        samples.append(elapsed)
    return samples


# ----------------------------------------------------------------------
# result line
# ----------------------------------------------------------------------
def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def result_line(*, correct: bool, attempted: int, failed: int,
                metrics: dict) -> str:
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})
