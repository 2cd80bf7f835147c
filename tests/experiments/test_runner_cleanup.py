"""Regression: a crash mid-run must still stop the daemon and controller.

Before the try/finally in :func:`repro.experiments.runner.run_measurement`,
an exception from ``runtime.run`` (or the region end-read) leaked the
daemon's and controller's engine timers into any later use of the engine,
and left an attached invariant checker hooked into the dead run.  The
bench/golden entry point :func:`repro.perf.scenarios.run_stack` must give
the same guarantees, so every case runs through both.
"""

import pytest

from repro.experiments.runner import run_measurement
from repro.perf.scenarios import run_stack
from repro.qthreads import Runtime
from repro.rcr import RCRDaemon, RegionClient
from repro.throttle import ThrottleController
from repro.validate import InvariantChecker

RUNNERS = pytest.mark.parametrize(
    "runner", [run_measurement, run_stack], ids=["run_measurement", "run_stack"]
)


@pytest.fixture
def stop_spy(monkeypatch):
    calls: list[str] = []
    daemon_stop = RCRDaemon.stop
    controller_stop = ThrottleController.stop

    def spy_daemon(self):
        calls.append("daemon")
        return daemon_stop(self)

    def spy_controller(self):
        calls.append("controller")
        return controller_stop(self)

    monkeypatch.setattr(RCRDaemon, "stop", spy_daemon)
    monkeypatch.setattr(ThrottleController, "stop", spy_controller)
    return calls


def _assert_detached(checker: InvariantChecker) -> None:
    with pytest.raises(RuntimeError, match="not attached"):
        checker.check_now()


@RUNNERS
def test_stops_called_when_run_raises(monkeypatch, stop_spy, runner):
    def boom(self, program, label=None):
        raise RuntimeError("app crashed mid-run")

    monkeypatch.setattr(Runtime, "run", boom)
    checker = InvariantChecker()
    with pytest.raises(RuntimeError, match="app crashed mid-run"):
        runner("lulesh", compiler="maestro", optlevel="O3", throttle=True,
               checker=checker)
    assert stop_spy == ["daemon", "controller"]
    _assert_detached(checker)


@RUNNERS
def test_stops_called_when_region_end_raises(monkeypatch, stop_spy, runner):
    def boom(self, name):
        raise RuntimeError("end-read failed")

    monkeypatch.setattr(RegionClient, "end", boom)
    checker = InvariantChecker()
    with pytest.raises(RuntimeError, match="end-read failed"):
        runner("mergesort", throttle=True, checker=checker)
    assert stop_spy == ["daemon", "controller"]
    _assert_detached(checker)


@RUNNERS
def test_stops_called_on_success_too(stop_spy, runner):
    result = runner("mergesort")
    assert result.run.elapsed_s > 0
    assert stop_spy == ["daemon"]  # no controller without throttling
