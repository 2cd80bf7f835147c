"""The benchmark's own checks: metric names, determinism of inputs and
counts, seed sensitivity, and the correctness gates.

    python -m pytest repobench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys

import pytest

import benchlib
import layers
import workloads

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((benchlib.ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# metric names
# ----------------------------------------------------------------------
def test_metric_names_are_plain_and_declared():
    declared_e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared_e2e == workloads.END_TO_END_METRICS
    assert declared_layer == workloads.PER_LAYER_METRICS
    names = list(declared_e2e) + list(declared_layer) + [
        w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in BENCHMARK["workloads"]] == \
        list(workloads.WORKLOADS)
    for name in workloads.WORKLOADS:
        assert workloads.why(name)


def test_layer_counts_cover_the_declared_count_metrics():
    tracer = layers.LayerTracer()
    counted = set(tracer.layer_counts())
    assert counted <= set(workloads.PER_LAYER_METRICS)
    assert {layer.split(".")[0] for layer in counted} <= \
        set(layers.LAYERS)


# ----------------------------------------------------------------------
# inputs: same seed -> same inputs, other seed -> other inputs
# ----------------------------------------------------------------------
def _input_digests(seed: int) -> dict[str, list[str]]:
    return {
        "paper-cells": [s.digest for s in workloads.paper_cell_specs(seed)],
        "sched-full": [workloads.sched_spec("sched-full", seed).digest],
        "sched-analytic": [
            workloads.sched_spec("sched-analytic", seed).digest],
        "service-mixed": [s.digest for s in workloads.service_plan(seed, 40)],
    }


def test_same_seed_same_inputs():
    assert _input_digests(3) == _input_digests(3)


def test_different_seed_changes_every_workloads_inputs():
    first, second = _input_digests(3), _input_digests(4)
    for name in workloads.WORKLOADS:
        assert first[name] != second[name], name


def test_sched_full_inputs_have_the_stated_size():
    for seed in range(5):
        spec = workloads.sched_spec("sched-full", seed)
        threads, work, demand = workloads.trace_size(spec)
        assert set(threads.values()) == {spec.jobs // len(threads)}
        for got, want in zip((work, demand), workloads.SCHED_FULL_SIZE):
            assert abs(got / want - 1.0) <= workloads.SIZE_BAND


def test_service_plan_resubmits_every_fourth_job_from_the_past():
    plan = workloads.service_plan(7, 48)
    seen = []
    for i, spec in enumerate(plan):
        if spec.digest in seen:
            assert i % workloads.RESUBMIT_EVERY == \
                workloads.RESUBMIT_EVERY - 1
            assert seen.index(spec.digest) < \
                len(seen) - workloads.RESUBMIT_LAG
        else:
            seen.append(spec.digest)
    assert len(seen) < len(plan)


def test_timings_scale_with_host_speed_but_open_loop_rates_do_not():
    def report(yard_s, open_loop):
        timed = workloads.Timed(yard_s=yard_s, open_loop=open_loop)
        timed.reps.append(workloads.Rep(
            attempted=4, failed=0, completed=4, host_s=2.0, sim_s=8.0,
            latencies_s={"a": 0.1, "b": 0.3}, good=4))
        return {name: entry["value"] for name, entry in
                timed.end_to_end([1.0], 80.0).items()}

    ref = benchlib.YARDSTICK_REF_S
    at_ref, slow = report([ref], False), report([2 * ref], False)
    assert at_ref["units_per_s"] == 2.0
    assert slow["units_per_s"] == 4.0
    assert slow["latency_p95_ms"] == at_ref["latency_p95_ms"] / 2
    assert slow["setup_s"] == 0.5
    assert slow["peak_rss_mb"] == at_ref["peak_rss_mb"] == 80.0
    open_slow = report([2 * ref], True)
    assert open_slow["units_per_s"] == at_ref["units_per_s"]
    assert open_slow["latency_p50_ms"] == slow["latency_p50_ms"]


# ----------------------------------------------------------------------
# outputs: digests and counts repeat; pins hold
# ----------------------------------------------------------------------
def _traced_tiny_campaign():
    from repro.sched import SchedSpec

    spec = SchedSpec(jobs=3, nodes=2, scale=0.1, seed=5)
    with layers.LayerTracer() as tracer:
        result = spec.execute()
    return result.result_digest(), tracer.layer_counts(), tracer


def test_same_seed_same_digests_and_counts():
    digest_a, counts_a, tracer = _traced_tiny_campaign()
    digest_b, counts_b, _ = _traced_tiny_campaign()
    assert digest_a == digest_b
    assert counts_a == counts_b
    assert counts_a["sim.events"] > 0
    assert counts_a["hw.assign_calls"] > 0
    assert counts_a["sched.selects"] > 0
    shares = tracer.self_seconds()
    assert shares["hw"] > 0 and shares["sched"] > 0


def test_child_process_time_is_not_self_time():
    """A span that waits on a child process keeps only the parent side:
    the child's own execution time is subtracted from its self time."""
    import time

    record = dataclasses.make_dataclass("Record", ["wall_s"])(0.04)

    def waits_on_child():
        time.sleep(0.05)
        return record

    tracer = layers.LayerTracer()
    tracer.call("harness", "run_spec_subprocess", waits_on_child, (), {},
                layers._child_exec_s)
    assert tracer.child_seconds()["run_spec_subprocess"] == 0.04
    assert tracer.span_seconds()["run_spec_subprocess"] >= 0.05
    assert 0.0 < tracer.self_seconds()["harness"] < 0.04


def test_tracing_leaves_outputs_unchanged_and_unpatches():
    from repro.hw.node import Node
    from repro.sched import SchedSpec
    from repro.sim.engine import Engine

    before = (Node.__dict__["assign"], Engine.__dict__["schedule_at"])
    spec = SchedSpec(jobs=3, nodes=2, scale=0.1, seed=5)
    bare = spec.execute().result_digest()
    traced, _, _ = _traced_tiny_campaign()
    assert traced == bare
    assert (Node.__dict__["assign"], Engine.__dict__["schedule_at"]) == \
        before


def test_pinned_digests_reproduce():
    from repro.harness import execute_spec

    pins = workloads.pinned("paper-cells", 0)
    assert pins is not None
    spec = min(workloads.paper_cell_specs(0),
               key=lambda s: s.app != "bots-health")
    assert pins[spec.digest] == benchlib.record_digest(execute_spec(spec))
    analytic = workloads.sched_spec("sched-analytic", 0)
    assert workloads.pinned("sched-analytic", 0)[analytic.digest] == \
        analytic.execute().result_digest()


# ----------------------------------------------------------------------
# the correctness gate trips on corrupted outputs
# ----------------------------------------------------------------------
def test_gate_counts_every_mismatch_and_unknown_key():
    expected = {"a": "1", "b": "2"}
    assert workloads.count_mismatches(expected, [("a", "1"), ("b", "2")]) == 0
    assert workloads.count_mismatches(expected, [("a", "1"), ("b", "x")]) == 1
    assert workloads.count_mismatches(expected, [("c", "3")]) == 1


def test_corrupted_record_trips_the_cell_gate():
    from repro.harness import RunSpec, execute_spec

    record = execute_spec(RunSpec("nqueens", scale=0.05, seed=1))
    expected = {record.spec.digest: benchlib.record_digest(record)}
    # Host wall time is not an output; a changed energy is.
    retimed = dataclasses.replace(record, wall_s=record.wall_s + 1.0)
    corrupted = dataclasses.replace(
        record, run=dataclasses.replace(
            record.run, avg_power_w=record.run.avg_power_w + 1e-9))
    observed = [(r.spec.digest, benchlib.record_digest(r))
                for r in (record, retimed, corrupted)]
    assert workloads.count_mismatches(expected, observed) == 1


def test_corrupted_campaign_trips_the_sched_gate():
    spec = workloads.sched_spec("sched-analytic", 1)
    result = spec.execute()
    good = result.result_digest()
    assert workloads.campaign_failures(spec, result, good) == 0
    corrupted = dataclasses.replace(result,
                                    makespan_s=result.makespan_s * 1.0001)
    assert workloads.campaign_failures(spec, corrupted, good) == spec.jobs
    assert workloads.campaign_failures(spec, result, "0" * 64) == spec.jobs


def test_corrupted_stored_record_trips_the_service_gate():
    from repro.harness import execute_spec

    plan = workloads.service_plan(11, 12)
    records = {spec.digest: execute_spec(spec) for spec in plan}
    assert workloads._sampled_output_failures(11, plan, records) == set()
    corrupted = {
        digest: dataclasses.replace(record, run=dataclasses.replace(
            record.run, tasks_spawned=record.run.tasks_spawned + 1))
        for digest, record in records.items()}
    bad = workloads._sampled_output_failures(11, plan, corrupted)
    assert len({plan[i].digest for i in bad}) == min(
        workloads.SERVICE_SAMPLE, len(records))


def test_pinned_seed_reexecutes_specs_beyond_the_pinned_plan():
    seconds = BENCHMARK["run_seconds"]
    pins = workloads.pinned("service-mixed", 0)
    assert pins is not None
    pinned_plan = workloads.service_plan(0, workloads.service_jobs(seconds))
    assert {spec.digest for spec in pinned_plan} == set(pins)
    longer = workloads.service_plan(
        0, workloads.service_jobs(seconds + 2))
    got, rerun = workloads.reference_specs(0, longer)
    assert got == pins
    assert rerun
    assert {spec.digest for spec in longer} == \
        set(pins) | {spec.digest for spec in rerun}


# ----------------------------------------------------------------------
# the command
# ----------------------------------------------------------------------
def test_command_fails_without_a_source_tree(tmp_path):
    shutil.copy(benchlib.ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(benchlib.ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload",
         "sched-analytic", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_every_metric_with_its_unit(trace):
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload",
         "sched-analytic", "--seed", "2", "--seconds", "0.5",
         "--trace", str(trace)],
        cwd=benchlib.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: entry["unit"] for name, entry in
            result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(entry["value"] > 0
                   for entry in result["metrics"].values())
