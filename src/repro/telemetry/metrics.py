"""Run metrics: counters, gauges, and fixed-bucket histograms.

A :class:`MetricsRegistry` is the per-session home for instruments:
``registry.counter("samples_seen").inc(64)`` from anywhere that holds (or
ambiently reaches) the registry.  Snapshots are plain JSON-serializable
dicts so they travel inside :class:`~repro.core.runner.RunResult` and
submission artifacts; :meth:`MetricsRegistry.render` gives the plain-text
summary of a session's instruments.

The null registry (:data:`NULL_METRICS`) hands out shared no-op
instruments — the zero-overhead default when telemetry is not active.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterable, Sequence

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "NULL_METRICS",
           "merge_snapshots"]

# Geometric-ish default buckets (seconds-flavored): spans µs-scale steps to
# minute-scale epochs without per-metric tuning.
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0)


class Counter:
    """Monotonically increasing count (samples seen, steps taken, ...)."""

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


class Gauge:
    """Last-written value (current throughput, replay-buffer size, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def snapshot(self) -> dict[str, Any]:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Fixed-bucket histogram of observations (epoch seconds, ...).

    ``buckets`` are inclusive upper bounds; observations above the last
    bound land in an implicit overflow bucket.  Count/sum/min/max are
    tracked exactly, so means are not quantized by the bucket layout.
    """

    __slots__ = ("name", "buckets", "counts", "count", "sum", "min", "max")

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be a sorted non-empty sequence")
        self.name = name
        self.buckets = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(self.buckets) + 1)  # +1 overflow bucket
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float | None:
        """Bucket-interpolated quantile estimate, ``q`` in [0, 1].

        Walks the cumulative counts to the bucket holding the ``q``-th
        observation and interpolates linearly inside it (the Prometheus
        ``histogram_quantile`` estimator).  The exactly-tracked min/max
        bound the first and overflow buckets, so the estimate never
        leaves the observed range; error is bounded by the width of one
        bucket.  ``None`` on an empty histogram.
        """
        if not self.count:
            return None
        q = min(max(float(q), 0.0), 1.0)
        target = q * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= target:
                lo = self.min if i == 0 else self.buckets[i - 1]
                hi = self.max if i == len(self.buckets) else min(
                    self.buckets[i], self.max)
                lo = min(max(lo, self.min), hi)
                fraction = (target - cumulative) / bucket_count
                return lo + (hi - lo) * max(fraction, 0.0)
            cumulative += bucket_count
        return self.max

    def snapshot(self) -> dict[str, Any]:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "buckets": list(self.buckets),
            "counts": list(self.counts),
        }


class _NullInstrument:
    """One object that absorbs every instrument method as a no-op."""

    __slots__ = ()
    value = 0.0
    count = 0
    sum = 0.0
    mean = 0.0

    def inc(self, amount: float = 1.0) -> None:
        return None

    def set(self, value: float) -> None:
        return None

    def observe(self, value: float) -> None:
        return None

    def quantile(self, q: float) -> None:
        return None

    def snapshot(self) -> dict[str, Any]:
        return {"type": "null"}


_NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Named instruments for one telemetry session.

    Get-or-create semantics: asking twice for the same name returns the
    same instrument; asking for the same name as a different kind is an
    error (a name means one thing per session).
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._instruments: dict[str, Any] = {}

    def _get(self, name: str, kind, *args):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = kind(name, *args)
            self._instruments[name] = instrument
        elif not isinstance(instrument, kind):
            raise TypeError(
                f"metric {name!r} is a {type(instrument).__name__}, "
                f"not a {kind.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        if not self.enabled:
            return _NULL_INSTRUMENT
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        if not self.enabled:
            return _NULL_INSTRUMENT
        return self._get(name, Gauge)

    def histogram(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        if not self.enabled:
            return _NULL_INSTRUMENT
        return self._get(name, Histogram, buckets)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def names(self) -> list[str]:
        return sorted(self._instruments)

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """JSON-serializable view of every instrument."""
        return {name: inst.snapshot() for name, inst in sorted(self._instruments.items())}

    def render(self) -> str:
        """Plain-text summary table (one line per instrument)."""
        if not self._instruments:
            return "(no metrics recorded)"
        lines = [f"{'metric':<28}{'kind':<11}{'value / stats'}"]
        lines.append("-" * len(lines[0]))
        for name, inst in sorted(self._instruments.items()):
            if isinstance(inst, Counter):
                lines.append(f"{name:<28}{'counter':<11}{inst.value:g}")
            elif isinstance(inst, Gauge):
                lines.append(f"{name:<28}{'gauge':<11}{inst.value:g}")
            else:
                stats = (f"n={inst.count} mean={inst.mean:.4g}"
                         + (f" min={inst.min:.4g} max={inst.max:.4g}" if inst.count else ""))
                lines.append(f"{name:<28}{'histogram':<11}{stats}")
        return "\n".join(lines)


NULL_METRICS = MetricsRegistry(enabled=False)


def _merge_instrument(name: str, a: dict[str, Any], b: dict[str, Any]) -> dict[str, Any]:
    if a["type"] != b["type"]:
        raise TypeError(
            f"metric {name!r} has conflicting kinds: {a['type']} vs {b['type']}"
        )
    kind = a["type"]
    if kind == "counter":
        return {"type": "counter", "value": a["value"] + b["value"]}
    if kind == "gauge":
        # Gauges are last-write; across sessions "last" is ill-defined, so
        # keep the later snapshot's value (merge order = session order).
        return {"type": "gauge", "value": b["value"]}
    if kind == "histogram":
        if a["buckets"] != b["buckets"]:
            raise ValueError(f"histogram {name!r} has mismatched bucket layouts")
        mins = [m for m in (a["min"], b["min"]) if m is not None]
        maxes = [m for m in (a["max"], b["max"]) if m is not None]
        return {
            "type": "histogram",
            "count": a["count"] + b["count"],
            "sum": a["sum"] + b["sum"],
            "min": min(mins) if mins else None,
            "max": max(maxes) if maxes else None,
            "buckets": list(a["buckets"]),
            "counts": [x + y for x, y in zip(a["counts"], b["counts"])],
        }
    raise TypeError(f"metric {name!r}: cannot merge instruments of kind {kind!r}")


def merge_snapshots(snapshots: Iterable[dict[str, dict[str, Any]]]) -> dict[str, dict[str, Any]]:
    """Fold per-session :meth:`MetricsRegistry.snapshot` dicts into one view.

    Counters add, histograms pool (same bucket layout required), gauges
    keep the last session's value.  The campaign engine uses this to
    aggregate worker-process metrics parent-side.
    """
    merged: dict[str, dict[str, Any]] = {}
    for snap in snapshots:
        for name, inst in snap.items():
            if inst.get("type") == "null":
                continue
            merged[name] = (
                dict(inst) if name not in merged
                else _merge_instrument(name, merged[name], inst)
            )
    return {name: merged[name] for name in sorted(merged)}
