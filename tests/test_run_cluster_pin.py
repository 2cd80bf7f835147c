"""Bit-exact pins for :func:`repro.cluster.run_cluster`.

The tolerance tests in ``test_extensions.py`` would pass for a cluster
harness that drifted by a few percent; these pin every per-node row,
the peak coordinated power and a digest over every coordinator sample
at full float precision, so a refactor of the cluster path must
reproduce the coordinated runs bit for bit.

To re-pin after an intentional behaviour change:
``PYTHONPATH=src python tests/test_run_cluster_pin.py --update``
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.cluster import run_cluster

PIN_PATH = Path(__file__).with_name("run_cluster_pins.json")

#: name -> (workloads, global budget W, run_cluster keyword arguments).
#: The example's three-node run, the two ``test_extensions`` runs and
#: the coordinated run of the cluster-budget tripwire tests.
CONFIGS = {
    "example-380w": (
        [("bots-health", "maestro"), ("bots-strassen", "maestro"),
         ("lulesh", "maestro")],
        380.0, {"time_limit_s": 300.0},
    ),
    "health-sort-280w": (
        [("bots-health", "maestro"), ("bots-sort", "gcc")],
        280.0, {"time_limit_s": 60.0},
    ),
    "health-strassen-250w": (
        [("bots-health", "maestro"), ("bots-strassen", "maestro")],
        250.0, {"time_limit_s": 120.0},
    ),
    "mergesort-reduction-260w": (
        [("mergesort", "gcc"), ("reduction", "gcc")],
        260.0, {"threads": 8},
    ),
}


def fingerprint(result) -> dict:
    """Every observable of one run; floats survive JSON exactly."""
    h = hashlib.sha256()
    for s in result.samples:
        h.update(repr((
            s.time_s, sorted(s.node_power_w.items()),
            sorted(s.budgets_w.items()), sorted(s.clamp_limits.items()),
            sorted(s.clamp_floors.items()),
        )).encode())
    return {
        "rows": [[r.label, r.time_s, r.energy_j, r.avg_watts]
                 for r in result.rows],
        "peak_power_w": result.peak_power_w,
        "samples": len(result.samples),
        "samples_sha256": h.hexdigest(),
    }


def _run(name: str) -> dict:
    workloads, budget, kwargs = CONFIGS[name]
    return fingerprint(run_cluster(workloads, budget, **kwargs))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_run_cluster_matches_pin(name):
    pins = json.loads(PIN_PATH.read_text())
    assert _run(name) == pins[name]


if __name__ == "__main__":  # pragma: no cover - re-pin entry point
    if "--update" not in sys.argv[1:]:
        sys.exit("usage: test_run_cluster_pin.py --update")
    PIN_PATH.write_text(
        json.dumps({name: _run(name) for name in sorted(CONFIGS)}, indent=2)
        + "\n"
    )
    print(f"wrote {PIN_PATH}")
