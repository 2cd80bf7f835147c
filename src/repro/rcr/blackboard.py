"""The RCR blackboard: a self-describing hierarchical meter store.

Models the shared-memory region the RCRdaemon exports ("provides
performance information to various clients through a self-describing
hierarchical data structure in a shared memory region", Section II-B).
Meters are addressed by dotted paths (``node.socket.0.power_w``); every
update carries a timestamp and a monotonically-increasing version so
clients can detect staleness, just as they must with the real daemon.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Optional

from repro.errors import MeasurementError


@dataclass(frozen=True)
class MeterRecord:
    """One published meter value."""

    path: str
    value: float
    timestamp: float
    version: int


class Blackboard:
    """Versioned hierarchical meter store (the shared-memory analog).

    Each path stores a ``(value, timestamp, version)`` tuple; publishing
    is the daemon's per-meter hot path, so :class:`MeterRecord` views are
    only built when a client asks for one.
    """

    def __init__(self) -> None:
        self._meters: dict[str, tuple[float, float, int]] = {}
        self._version = 0

    def publish(self, path: str, value: float, timestamp: float) -> None:
        """Write a meter value (daemon side)."""
        if not path:
            raise MeasurementError("meter path must be non-empty")
        version = self._version + 1
        self._version = version
        self._meters[path] = (float(value), timestamp, version)

    def read(self, path: str) -> MeterRecord:
        """Read a meter record (client side)."""
        entry = self._meters.get(path)
        if entry is None:
            raise MeasurementError(f"no meter published at {path!r}")
        return MeterRecord(path, *entry)

    def read_value(self, path: str, default: Optional[float] = None) -> float:
        """Read just the value, with an optional default for absent meters."""
        entry = self._meters.get(path)
        if entry is None:
            if default is None:
                raise MeasurementError(f"no meter published at {path!r}")
            return default
        return entry[0]

    def has(self, path: str) -> bool:
        """True if a meter has ever been published at ``path``."""
        return path in self._meters

    # ------------------------------------------------------------------
    # staleness (client-side health checks)
    # ------------------------------------------------------------------
    def last_update_s(self, path: str) -> Optional[float]:
        """Timestamp of the last publish at ``path``, or None if absent."""
        entry = self._meters.get(path)
        return None if entry is None else entry[1]

    def staleness_s(self, path: str, now: float) -> float:
        """Age of the record at ``path`` relative to ``now``, seconds.

        A meter that was never published is infinitely stale; a record
        published at or after ``now`` has zero staleness (the daemon and a
        client can share a timestamp within one engine tick).
        """
        entry = self._meters.get(path)
        if entry is None:
            return float("inf")
        return max(0.0, now - entry[1])

    def is_stale(self, path: str, now: float, max_age_s: float) -> bool:
        """True when the record at ``path`` is older than ``max_age_s``."""
        return self.staleness_s(path, now) > max_age_s

    def paths(self, prefix: str = "") -> list[str]:
        """All published paths under ``prefix`` (self-description)."""
        return sorted(p for p in self._meters if p.startswith(prefix))

    def tree(self) -> dict[str, Any]:
        """Nested-dict view of the hierarchy (self-describing structure)."""
        root: dict[str, Any] = {}
        for path, entry in self._meters.items():
            parts = path.split(".")
            cursor = root
            for part in parts[:-1]:
                cursor = cursor.setdefault(part, {})
                if not isinstance(cursor, dict):
                    raise MeasurementError(
                        f"meter path {path!r} collides with a leaf meter"
                    )
            cursor[parts[-1]] = entry[0]
        return root

    def __iter__(self) -> Iterator[MeterRecord]:
        for path, entry in self._meters.items():
            yield MeterRecord(path, *entry)

    def __len__(self) -> int:
        return len(self._meters)
