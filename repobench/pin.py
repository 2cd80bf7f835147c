"""Regenerate ``pins.json``: the expected output digests per workload and
seed, computed on the serial in-process reference path.

    python3 repobench/pin.py --seeds 0-9

The service plan is pinned for the run length ``BENCHMARK.json`` gives
(``run_seconds``).

A run on a pinned seed must reproduce these digests exactly; re-pin only
with a written differential explaining what moved and why.
"""

from __future__ import annotations

import argparse
import json

import benchlib
import workloads
from benchlib import record_digest


def pins_for(workload: str, seed: int) -> dict[str, str]:
    from repro.harness import execute_spec

    if workload == "paper-cells":
        specs = workloads.paper_cell_specs(seed)
    elif workload == "service-mixed":
        seconds = json.loads(
            (benchlib.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
        jobs = workloads.service_jobs(seconds)
        specs = list({spec.digest: spec for spec in
                      workloads.service_plan(seed, jobs)}.values())
    else:
        spec = workloads.sched_spec(workload, seed)
        return {spec.digest: spec.execute().result_digest()}
    return {spec.digest: record_digest(execute_spec(spec)) for spec in specs}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9",
                        help="inclusive range, e.g. 0-9")
    args = parser.parse_args()
    lo, hi = (int(part) for part in args.seeds.split("-"))
    benchlib.ensure_src_on_path()
    pins = {name: {str(seed): pins_for(name, seed)
                   for seed in range(lo, hi + 1)}
            for name in workloads.WORKLOADS}
    path = benchlib.BENCH_DIR / "pins.json"
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(benchlib.ROOT)}")


if __name__ == "__main__":
    main()
