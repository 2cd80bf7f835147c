"""Seeded random-number streams.

Each subsystem that needs randomness (work-stealing victim selection, task
cost jitter, measurement noise) gets its *own named stream* derived from one
root seed via ``numpy.random.SeedSequence.spawn``.  This guarantees that:

* the whole simulation is reproducible from a single integer seed, and
* adding a new consumer of randomness does not perturb the streams of
  existing consumers (streams are keyed by name, not draw order).
"""

from __future__ import annotations

import numpy as np
# numpy >= 2 loads ``numpy.random`` on first attribute access.  Import it
# here so a process that imports the simulator has it loaded before it
# forks workers, instead of every child importing it on its first run.
import numpy.random  # noqa: F401

from repro.errors import SimulationError


class RngStreams:
    """A family of independent, named ``numpy`` generators."""

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._root = np.random.SeedSequence(self._seed)
        self._streams: dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """The root seed this family was created from."""
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the generator for ``name``.

        The stream's seed is derived from ``(root_seed, name)`` so the same
        name always yields the same sequence for a given root seed,
        independent of creation order.
        """
        if not name:
            raise SimulationError("stream name must be non-empty")
        gen = self._streams.get(name)
        if gen is None:
            # Derive per-name entropy from the name bytes so ordering of
            # stream() calls cannot matter.
            name_entropy = list(name.encode("utf-8"))
            seq = np.random.SeedSequence(
                entropy=self._root.entropy, spawn_key=tuple(name_entropy)
            )
            gen = np.random.default_rng(seq)
            self._streams[name] = gen
        return gen

    def names(self) -> list[str]:
        """Names of all streams created so far."""
        return sorted(self._streams)
