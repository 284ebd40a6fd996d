"""Run metrics: named counters.

A :class:`MetricsRegistry` is the per-session home for the counts the
§4.1 log does not hold (MCTS work, all-reduce traffic, kernel fallbacks):
``registry.counter("mcts_searches").inc()`` from anywhere that holds (or
ambiently reaches) the registry.  Epoch time, eval time and throughput
are the log's to record, not the registry's.  Snapshots are plain
JSON-serializable dicts so they travel inside
:class:`~repro.core.runner.RunResult` and submission artifacts.

The null registry (:data:`NULL_METRICS`) hands out one shared no-op
counter — the zero-overhead default when telemetry is not active.
"""

from __future__ import annotations

from typing import Any, Iterable

__all__ = ["Counter", "MetricsRegistry", "NULL_METRICS", "merge_snapshots"]


class Counter:
    """Monotonically increasing count (searches run, bytes reduced, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def snapshot(self) -> dict[str, Any]:
        return {"type": "counter", "value": self.value}


class _NullCounter:
    """A counter that counts nothing."""

    __slots__ = ()
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        return None


_NULL_COUNTER = _NullCounter()


class MetricsRegistry:
    """Named counters for one telemetry session.

    Get-or-create semantics: asking twice for the same name returns the
    same counter.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._counters: dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        if not self.enabled:
            return _NULL_COUNTER
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """JSON-serializable view of every counter."""
        return {name: c.snapshot() for name, c in sorted(self._counters.items())}


NULL_METRICS = MetricsRegistry(enabled=False)


def merge_snapshots(snapshots: Iterable[dict[str, dict[str, Any]]]) -> dict[str, dict[str, Any]]:
    """Fold per-session :meth:`MetricsRegistry.snapshot` dicts into one view.

    Counters add.  Any other entry is skipped: ``null`` ones and the
    ``histogram``/``gauge`` ones that result files written before the
    registry held counters only still carry.  The campaign engine uses
    this to aggregate worker-process metrics parent-side.
    """
    merged: dict[str, float] = {}
    for snap in snapshots:
        for name, inst in snap.items():
            if inst.get("type") == "counter":
                merged[name] = merged.get(name, 0.0) + inst["value"]
    return {name: {"type": "counter", "value": merged[name]}
            for name in sorted(merged)}
