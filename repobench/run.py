"""The repository benchmark: one command, four workloads.

Usage (from the repository root)::

    python3 repobench/run.py --workload paper-cells --seed 1 --seconds 10 --trace 0
    python3 repobench/run.py --workload service-mixed --seed 1 --seconds 10 --trace 1

``--trace 0`` measures the end-to-end metrics with tracing off: set-up
time (median of fresh-interpreter probes), units per host second,
simulated seconds per host second, latency p50/p95, goodput within the
workload's fixed latency limit, the share of units that were correct,
and peak RSS.  A run repeats its workload's fixed batch until
``--seconds`` pass; each timing is the median over repetitions, in
reference seconds: host seconds scaled by a host-speed yardstick sampled
through the run (see ``benchlib.yardstick``).

``--trace 1`` runs a fixed amount of the workload twice, untraced and
under :class:`layers.LayerTracer`, and reports the exact per-layer work
counts, each layer's self time and share, and the tracing overhead.  It
writes a Chrome trace to ``.bench_out/``.

Every workload checks its outputs before reporting (see
``workloads.count_mismatches``).  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is non-zero when any output check failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from statistics import median

import benchlib
import workloads


def _print_attribution(name: str, self_s: dict, counts: dict) -> None:
    total = sum(self_s.values()) or 1.0
    print(f"layer attribution ({name}): self time, share of traced self "
          "time")
    for layer, seconds in sorted(self_s.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<10} {seconds:10.4f} s  {seconds / total:7.1%}")
    print("exact counts:")
    for key, value in counts.items():
        print(f"  {key:<28} {value}")


def traced_metrics(workload: workloads.Workload, seed: int,
                   seconds: float) -> tuple[dict, int, int]:
    from layers import LayerTracer

    tracer, extra, attempted, failed = workload.trace(
        seed, seconds, LayerTracer)
    self_s = tracer.self_seconds()
    counts = tracer.layer_counts()
    total = sum(self_s.values()) or 1.0
    values: dict[str, float] = {name: 0.0 for name in
                                workloads.PER_LAYER_METRICS}
    values.update(counts)
    for layer in workloads.LAYERS:
        values[f"{layer}.self_s"] = self_s[layer]
        values[f"{layer}.self_share"] = self_s[layer] / total
    values["other.self_s"] = self_s["other"]
    values["obs.registry_self_s"] = self_s["obs"]
    values.update(extra)
    _print_attribution(workload.name, self_s,
                       {k: values[k] for k in counts}
                       | {k: v for k, v in extra.items()})
    benchlib.OUT_DIR.mkdir(exist_ok=True)
    trace_path = benchlib.OUT_DIR / f"trace-{workload.name}-{seed}.json"
    spans = tracer.recorder.write_chrome_trace(trace_path)
    print(f"chrome trace: {trace_path.relative_to(benchlib.ROOT)} "
          f"({spans} spans, {tracer.recorder.dropped} dropped)")
    metrics = {name: benchlib.metric(values[name], unit)
               for name, unit in workloads.PER_LAYER_METRICS.items()}
    return metrics, attempted, failed


def timed_metrics(workload: workloads.Workload, seed: int,
                  seconds: float) -> tuple[dict, int, int]:
    timed = workload.run(seed, seconds)
    # Read before the set-up probes run, so their interpreters never
    # enter the children's figure.
    peak_rss_mb = benchlib.peak_rss_mb()
    setup = benchlib.measure_setup(workload.name, timed.yard_s)
    for note in timed.notes:
        print(note)
    print(f"host speed: yardstick median "
          f"{median(timed.yard_s) * 1e3:.2f} ms over {len(timed.yard_s)} "
          f"samples (reference {benchlib.YARDSTICK_REF_S * 1e3:.2f} ms); "
          f"timings below are in reference seconds, host seconds x "
          f"speed scale {benchlib.speed_scale(timed.yard_s):.4f}")
    print(f"set-up samples: {', '.join(f'{s:.3f}' for s in setup)} s; "
          f"{len(timed.reps)} repetitions, {timed.samples} latency "
          f"samples, limit {timed.limit_s * 1e3:.0f} ms; timings are "
          "medians over repetitions")
    metrics = timed.end_to_end(setup, peak_rss_mb)
    for name, entry in metrics.items():
        print(f"  {name:<18} {entry['value']:14.4f} {entry['unit']}")
    return metrics, timed.attempted, timed.failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 repobench/run.py",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    benchlib.ensure_src_on_path()
    workload = workloads.WORKLOADS[args.workload]
    print(f"workload {workload.name}: {workloads.why(workload.name)}")
    measure = traced_metrics if args.trace else timed_metrics
    metrics, attempted, failed = measure(workload, args.seed, args.seconds)
    print("host " + json.dumps(benchlib.host_fingerprint(), sort_keys=True))
    correct = failed == 0
    if not correct:
        print(f"OUTPUT CHECK FAILED: {failed} of {attempted} units wrong "
              "or missing", file=sys.stderr)
    print(benchlib.result_line(correct=correct, attempted=attempted,
                               failed=failed, metrics=metrics))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
