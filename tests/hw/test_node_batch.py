"""Completion batches: one ``Node._recompute`` per segment-completion event.

A completion event retires every finished core and runs their callbacks
with recomputation held; mutations made at that instant only mark
sockets dirty and the batch recomputes once at the end.  These tests pin
the recompute count, the state a callback observes, the un-hold on an
exception, and rate/power coherence across a batch.
"""

from __future__ import annotations

import pytest

from repro.hw.core import Segment
from repro.hw.memory import SocketMemoryState
from repro.hw.node import Node
from repro.hw.power import reference_socket_power_w
from repro.perf.scenarios import run_stack
from repro.validate import InvariantChecker


@pytest.fixture
def recompute_counter(monkeypatch):
    """Count every ``Node._recompute`` call made while the fixture is live."""
    counts = {"recompute": 0}
    original = Node._recompute

    def counting(self):
        counts["recompute"] += 1
        return original(self)

    monkeypatch.setattr(Node, "_recompute", counting)
    return counts


@pytest.fixture
def batch_counter(monkeypatch, recompute_counter):
    """Record the recomputes each ``Node._on_completion`` triggers."""
    per_batch: list[int] = []
    original = Node._on_completion

    def counting(self):
        before = recompute_counter["recompute"]
        try:
            original(self)
        finally:
            per_batch.append(recompute_counter["recompute"] - before)

    monkeypatch.setattr(Node, "_on_completion", counting)
    return per_batch


# ---------------------------------------------------------------- counts
@pytest.mark.parametrize("assigns_per_callback", [0, 1, 3])
def test_each_completion_recomputes_once(engine, node, batch_counter,
                                         assigns_per_callback):
    """However many callbacks assign, a completion batch recomputes once."""
    free = list(range(4, 16))

    def reassign():
        for _ in range(assigns_per_callback):
            if free:
                node.assign(free.pop(0), Segment(0.3, mem_fraction=0.4))

    # Four identical segments finish in one batch; their callbacks fan
    # out new work at the same instant.
    for core in range(4):
        node.assign(core, Segment(0.1, mem_fraction=0.4), on_complete=reassign)
    engine.run()
    assert batch_counter, "no completion event fired"
    assert batch_counter == [1] * len(batch_counter)
    assert sum(c.segments_completed for c in node.cores) == (
        4 + min(12, 4 * assigns_per_callback)
    )


def test_mutations_outside_completions_recompute_immediately(
        engine, node, recompute_counter):
    before = recompute_counter["recompute"]
    node.assign(0, Segment(1.0))
    node.set_spin(1, duty=0.5)
    node.set_duty(2, 0.75)
    node.set_off(3)
    node.set_idle(3)
    assert recompute_counter["recompute"] - before == 5


def test_run_stack_recompute_totals(recompute_counter):
    """Pinned recompute totals for two full-stack runs.

    Before completion batches held recomputation these were 5,430
    (bots-fib) and 10,414 (lulesh, throttled): one recompute for the
    completion plus one per mutation its callbacks made.
    """
    run_stack("bots-fib", threads=16)
    assert recompute_counter["recompute"] == 2724
    recompute_counter["recompute"] = 0
    run_stack("lulesh", threads=16, throttle=True, scale=0.35)
    assert recompute_counter["recompute"] == 3332


# -------------------------------------------------------------- semantics
def test_callback_sees_post_completion_state(engine, node):
    """Queries inside a held batch recompute first and see current state."""
    seen: dict[str, object] = {}
    mlp = node.config.memory.mlp_per_core

    def observe():
        # Start new work in the batch, then query: the answers must price
        # the final core states, not the ones before the batch began.
        node.assign(9, Segment(1.0, mem_fraction=0.6))
        for s in (0, 1):
            seen[f"power{s}"] = node.power_w(s)
            seen[f"mem{s}"] = node.memory_state(s)
            seen[f"ref{s}"] = reference_socket_power_w(
                node.config.power, node._socket_cores[s],
                seen[f"mem{s}"].bw_util, node.thermal[s].temp_degc,
            )

    node.assign(0, Segment(0.2, mem_fraction=0.5), on_complete=observe)
    node.assign(1, Segment(0.2, mem_fraction=0.5))
    node.assign(8, Segment(5.0, mem_fraction=0.3))
    engine.run(until=0.3)

    # Cores 0 and 1 retired in the batch, emptying socket 0; socket 1
    # holds core 8 and the newly started core 9.
    assert isinstance(seen["mem0"], SocketMemoryState)
    assert seen["mem0"].demand == 0.0
    assert seen["mem1"].demand == mlp * 0.3 + mlp * 0.6
    assert seen["power0"] == seen["ref0"]
    assert seen["power1"] == seen["ref1"]


def test_raising_callback_leaves_node_unheld(engine, node):
    def boom():
        raise RuntimeError("callback failure")

    node.assign(0, Segment(0.1), on_complete=boom)
    with pytest.raises(RuntimeError, match="callback failure"):
        engine.run()
    assert node._hold_recompute is False

    # The next mutation recomputes at once and schedules its completion.
    done = []
    node.assign(1, Segment(0.5), on_complete=lambda: done.append(engine.now))
    assert node.cores[1].speed > 0.0
    assert engine.pending == 1
    engine.run()
    assert done == [pytest.approx(0.6)]


def _dijkstra_segment(solo, coherence=0.0):
    """Latency-bound (alpha 2), half memory time, like dijkstra's tasks."""
    return Segment(solo, mem_fraction=0.5, contention_exponent=2.0,
                   coherence_penalty=coherence)


def _run_checked_batch(engine, setup):
    """Run ``setup(node)`` to completion, checking after every batch."""
    node = Node(engine)
    checker = InvariantChecker(interval_s=1.0)
    checker.attach(engine, node)

    def batch_probe(time, event):
        if event.label == "segment-complete":
            checker.check_now()

    engine.add_probe(batch_probe)
    setup(node)
    engine.run()
    checker.detach()
    return checker


def _assert_coherent(checker):
    assert checker.checks["rate-coherence"] > 0
    assert checker.checks["power-coherence"] > 0
    assert checker.violation_counts.get("rate-coherence", 0) == 0
    assert checker.violation_counts.get("power-coherence", 0) == 0
    assert checker.violations == []


def test_coherence_batch_stays_rate_and_power_coherent(engine):
    """A batch that retires a coherence segment on socket 0 and starts a
    plain one on socket 1 leaves every cached rate and price exact."""

    def setup(node):
        def start_plain():
            node.assign(9, _dijkstra_segment(0.4))

        node.assign(0, _dijkstra_segment(0.2, 0.05), on_complete=start_plain)
        for core in (1, 2, 3):  # coherence sharers that outlive the batch
            node.assign(core, _dijkstra_segment(1.0, 0.05))
        for core in (8, 10):
            node.assign(core, _dijkstra_segment(1.0))

    _assert_coherent(_run_checked_batch(engine, setup))


def test_busy_count_change_redirties_untouched_coherence_socket(engine):
    """A batch confined to socket 0 that raises the node-wide busy count
    must still re-derive socket 1, whose sharers' stretch depends on it."""

    def setup(node):
        def fan_out():
            node.assign(1, _dijkstra_segment(0.4))
            node.assign(2, _dijkstra_segment(0.4))

        node.assign(0, _dijkstra_segment(0.2), on_complete=fan_out)
        for core in (8, 9, 10):  # untouched sharers on socket 1
            node.assign(core, _dijkstra_segment(1.0, 0.05))

    _assert_coherent(_run_checked_batch(engine, setup))
