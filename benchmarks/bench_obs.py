"""Benchmark: observability overhead (``make bench-obs``).

Two numbers bound what instrumentation is allowed to cost:

* **record latency** — nanoseconds per counter increment and per
  histogram observation, labeled and unlabeled, measured over a tight
  loop.  This is the price every instrumented hot path pays.
* **sweep overhead** — wall time of an identical serial BatchExecutor
  sweep on a bare bus and on a bus with an ``ObsSink`` (registry +
  tracer) subscribed (best-of-N on both sides).  The instrumented/bare ratio minus one is the observer
  overhead fraction, and it must stay **under 5%** — the registry also
  self-reports its estimated overhead, which is cross-checked against
  the directly measured gap.

Results are compared against the committed baseline in
``BENCH_obs.json``.

Usage::

    python benchmarks/bench_obs.py             # run + compare, no writes
    python benchmarks/bench_obs.py --update    # write current results
    python benchmarks/bench_obs.py --update --record-baseline
                                               # re-stamp the baseline too
    python benchmarks/bench_obs.py --fail-above 3.0
                                               # exit 1 if > 3x baseline

The <5% overhead cap is enforced on every invocation regardless of
flags; the baseline guard additionally pins the record latencies so a
slow regression inside the registry cannot hide under the cap.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parents[1]
if str(_REPO_ROOT / "src") not in sys.path:  # script mode: no PYTHONPATH needed
    sys.path.insert(0, str(_REPO_ROOT / "src"))

#: Committed perf-trajectory file, at the repo root.
BENCH_PATH = _REPO_ROOT / "BENCH_obs.json"

RECORD_OPS = 200_000
SWEEP_SPECS = 4
SWEEP_REPEATS = 3

#: Hard acceptance cap on instrumented-vs-bare sweep overhead.
MAX_OVERHEAD_FRACTION = 0.05


def _bench_record() -> dict:
    from repro.obs import MetricsRegistry

    reg = MetricsRegistry()
    plain = reg.counter("bench_plain_total", "bench")
    labeled = reg.counter("bench_labeled_total", "bench", labels=("op",))
    hist = reg.histogram("bench_seconds", "bench")

    t0 = time.perf_counter()
    for _ in range(RECORD_OPS):
        plain.inc()
    plain_ns = (time.perf_counter() - t0) / RECORD_OPS * 1e9

    t0 = time.perf_counter()
    for _ in range(RECORD_OPS):
        labeled.inc(op="submit")
    labeled_ns = (time.perf_counter() - t0) / RECORD_OPS * 1e9

    t0 = time.perf_counter()
    for i in range(RECORD_OPS):
        hist.observe(i * 1e-6)
    hist_ns = (time.perf_counter() - t0) / RECORD_OPS * 1e9

    t0 = time.perf_counter()
    snap = reg.snapshot()
    snapshot_ms = (time.perf_counter() - t0) * 1e3

    if plain.value() != RECORD_OPS:
        raise SystemExit("FAIL: counter lost increments")
    if snap.instruments["bench_seconds"].series[()].count != RECORD_OPS:
        raise SystemExit("FAIL: histogram lost observations")
    return {
        "counter_ns": round(plain_ns, 1),
        "labeled_counter_ns": round(labeled_ns, 1),
        "histogram_ns": round(hist_ns, 1),
        "snapshot_ms": round(snapshot_ms, 3),
    }


def _sweep_once(registry, tracer) -> float:
    from repro.harness.executor import BatchExecutor
    from repro.harness.spec import RunSpec
    from repro.harness.telemetry import TelemetryBus
    from repro.obs import ObsSink

    specs = [RunSpec("nqueens", threads=2, scale=0.05, seed=seed)
             for seed in range(SWEEP_SPECS)]
    bus = TelemetryBus()
    if registry is not None:
        bus.subscribe(ObsSink(registry, tracer))
    executor = BatchExecutor(workers=1, cache=None, bus=bus)
    t0 = time.perf_counter()
    records = executor.run(specs, sweep="bench-obs")
    elapsed = time.perf_counter() - t0
    if len(records) != SWEEP_SPECS:
        raise SystemExit("FAIL: sweep dropped records")
    return elapsed


def _bench_sweep() -> dict:
    from repro.obs import MetricsRegistry, SpanRecorder

    bare = min(_sweep_once(None, None) for _ in range(SWEEP_REPEATS))
    instrumented = None
    registry = None
    for _ in range(SWEEP_REPEATS):
        reg = MetricsRegistry()
        elapsed = _sweep_once(reg, SpanRecorder())
        if instrumented is None or elapsed < instrumented:
            instrumented, registry = elapsed, reg
    overhead = max(0.0, instrumented / bare - 1.0)
    self_estimate_s = registry.estimated_overhead_s
    return {
        "sweep_specs": SWEEP_SPECS,
        "bare_s": round(bare, 4),
        "instrumented_s": round(instrumented, 4),
        "overhead_fraction": round(overhead, 4),
        "self_estimated_overhead_s": round(self_estimate_s, 6),
    }


def _run_all() -> dict:
    current = {**_bench_record(), **_bench_sweep()}
    if current["overhead_fraction"] > MAX_OVERHEAD_FRACTION:
        raise SystemExit(
            f"FAIL: instrumented sweep overhead "
            f"{current['overhead_fraction']:.1%} exceeds the "
            f"{MAX_OVERHEAD_FRACTION:.0%} cap")
    return current


# ----------------------------------------------------------------------
# pytest-benchmark entry point (make bench)
# ----------------------------------------------------------------------
def test_bench_obs_run(bench_once):
    result = bench_once(_run_all)
    assert result["overhead_fraction"] <= MAX_OVERHEAD_FRACTION
    assert result["counter_ns"] > 0


def run(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/bench_obs.py",
        description="observability overhead benchmark vs the committed "
                    "baseline",
    )
    parser.add_argument("--update", action="store_true",
                        help="write results to BENCH_obs.json "
                             "(without this flag nothing is written)")
    parser.add_argument("--record-baseline", action="store_true",
                        help="with --update: re-stamp the baseline section "
                             "from this run (intentional goalpost move)")
    parser.add_argument("--fail-above", type=float, default=None, metavar="X",
                        help="exit 1 if counter record latency exceeds X "
                             "times the committed baseline "
                             "(default: report only)")
    parser.add_argument("--json", type=Path, default=BENCH_PATH,
                        help=f"results file (default: {BENCH_PATH})")
    args = parser.parse_args(argv)

    if args.record_baseline and not args.update:
        parser.error("--record-baseline requires --update "
                     "(refusing to overwrite BENCH_obs.json)")

    current = _run_all()

    stored = json.loads(args.json.read_text()) if args.json.exists() else {}
    baseline = stored.get("baseline")

    print("observability overhead benchmark:")
    print(f"  counter inc            {current['counter_ns']:>8.1f} ns/op")
    print(f"  counter inc (labeled)  {current['labeled_counter_ns']:>8.1f} "
          f"ns/op")
    print(f"  histogram observe      {current['histogram_ns']:>8.1f} ns/op")
    print(f"  snapshot               {current['snapshot_ms']:>8.3f} ms")
    print(f"  sweep bare             {current['bare_s']:>8.4f} s "
          f"({current['sweep_specs']} specs, best of {SWEEP_REPEATS})")
    print(f"  sweep instrumented     {current['instrumented_s']:>8.4f} s")
    print(f"  observer overhead      {current['overhead_fraction']:>8.1%} "
          f"(cap {MAX_OVERHEAD_FRACTION:.0%}); registry self-estimate "
          f"{current['self_estimated_overhead_s'] * 1e3:.3f} ms")
    if baseline:
        ratio = (current["counter_ns"] / baseline["counter_ns"]
                 if baseline["counter_ns"] > 0 else 0.0)
        print(f"  baseline: counter {baseline['counter_ns']:.1f} ns, "
              f"overhead {baseline['overhead_fraction']:.1%} "
              f"-> current counter is {ratio:.2f}x baseline")
        if args.fail_above is not None and ratio > args.fail_above:
            print(f"FAIL: counter latency regressed {ratio:.2f}x > "
                  f"--fail-above {args.fail_above:.2f}x", file=sys.stderr)
            return 1

    if not args.update:
        if args.json.exists():
            print(f"(read-only run; pass --update to rewrite {args.json.name})")
        return 0

    if args.record_baseline or "baseline" not in stored:
        stored["baseline"] = dict(current)
        print(f"baseline re-stamped from this run -> {args.json.name}")
    stored["schema"] = 1
    stored["current"] = current
    args.json.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
