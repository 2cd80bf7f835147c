"""Cold start: what a fresh process imports, and what forked workers
inherit instead of importing again.

Each check runs in a fresh interpreter, so what the rest of the suite
has already imported into this process cannot hide a regression.
"""

import json
import os
import subprocess
import sys

import pytest

import repro

pytestmark = pytest.mark.harness

_SRC = os.path.dirname(os.path.dirname(repro.__file__))


def _run_fresh(source: str):
    """Run ``source`` in a new interpreter; return its last stdout line
    parsed as JSON."""
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", source], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


_FORK_PROBE = """
import json, sys
from repro.harness import RunSpec, execute_spec
from repro.harness.executor import run_spec_subprocess

def newly_imported(spec):
    before = set(sys.modules)
    execute_spec(spec)
    return sorted(set(sys.modules) - before)

print(json.dumps(run_spec_subprocess(RunSpec("nqueens", scale=0.05),
                                     entry=newly_imported)))
"""


def test_forked_child_imports_nothing():
    """The per-job child inherits the simulator stack and ``numpy.random``
    from its parent rather than importing them on its first spec."""
    assert _run_fresh(_FORK_PROBE) == []


def test_make_pool_preloads_the_runner():
    probe = """
import json, sys
from repro.harness.executor import _make_pool
loaded_before = "repro.experiments.runner" in sys.modules
_make_pool(2).shutdown()
print(json.dumps([loaded_before,
                  "repro.experiments.runner" in sys.modules]))
"""
    assert _run_fresh(probe) == [False, True]


def test_runtime_import_path_is_scipy_free():
    probe = """
import json, sys
import repro.harness, repro.experiments.runner, repro.sched
import repro.service.server
from repro.harness import RunSpec, execute_spec
execute_spec(RunSpec("nqueens", scale=0.05))
print(json.dumps([sorted(m for m in sys.modules
                         if m == "scipy" or m.startswith("scipy.")),
                  "numpy.random" in sys.modules]))
"""
    scipy_modules, has_numpy_random = _run_fresh(probe)
    assert scipy_modules == []
    assert has_numpy_random
