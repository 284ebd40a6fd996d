"""Size-keyed scratch-buffer arena for the framework's hot kernels.

Time-to-train (§3.2.1) is dominated by what happens inside the training
step, and on a NumPy substrate a large share of that is *allocator traffic*:
every ``conv2d`` forward/backward conjures multi-megabyte im2col columns,
GEMM outputs, and gradient scratch with ``np.empty`` — fresh pages each
time, faulted in and thrown away.  A :class:`Workspace` recycles those
buffers across steps: kernels *borrow* (:meth:`Workspace.take`) and
*release* scratch, so the steady-state training loop allocates almost
nothing.

Design:

- **Size-class pooling.**  Free buffers are flat byte arrays pooled by
  size class — the borrow's byte size rounded up to one of eight steps per
  power of two, with a 4 KiB floor — and :meth:`take` hands out a typed,
  shaped view of the first ``nbytes``.  Any released buffer of the class
  satisfies the borrow regardless of its previous shape or dtype, so a
  batch dimension that changes every step (Mask R-CNN's RoI count) reuses
  a handful of buffers instead of leaving one set per distinct size, at a
  cost of at most 12.5 % slack per buffer.
- **Alias safety.**  A buffer is either in the free pool or out on loan —
  never both — so two live borrows can never alias.  Double release and
  releasing a foreign array raise.
- **Leak tolerance.**  Borrows that die without being released (e.g. a
  backward closure that never ran because the graph was dropped) are
  reclaimed into the pool via a weakref callback, so kernels may hold
  scratch for the lifetime of an autograd closure without leaking.  The
  array :meth:`take` returned *is* the loan: a slice or reshape of it keeps
  the bytes alive but not the borrow, so whoever keeps such a view past the
  borrow's own lifetime must keep the borrowed array too.
- **Per-thread.**  :func:`arena` returns a thread-local instance; kernels
  running on different threads never contend or alias.
- **Telemetry-counted.**  Every take increments ``kernel_arena_hits`` or
  ``kernel_arena_misses`` (and ``kernel_arena_bytes_allocated`` on a miss)
  on the :class:`~repro.telemetry.metrics.MetricsRegistry` that is ambient
  at that take, so traces show allocation pressure per phase.  A workspace
  looks each counter up once per registry (first use; a weak reference tells
  it when the ambient registry has changed), not once per borrow;
  :func:`record_arena_gauges` snapshots hit rate and pool size as gauges.

The arena is engaged by the ``fused`` kernel mode (see
:mod:`repro.framework.config`); ``naive`` mode never touches it.  Its
borrowers are the conv kernel and the fused linear.
"""

from __future__ import annotations

import threading
import weakref
from typing import Any

import numpy as np

__all__ = ["Workspace", "arena", "record_arena_gauges"]

_MIN_CLASS_BYTES = 4096


def _size_class(nbytes: int) -> int:
    """``nbytes`` rounded up to the next of eight steps per power of two."""
    if nbytes <= _MIN_CLASS_BYTES:
        return _MIN_CLASS_BYTES
    step = 1 << ((nbytes - 1).bit_length() - 4)
    return -(-nbytes // step) * step


class Workspace:
    """A borrow/release arena of reusable NumPy scratch buffers."""

    def __init__(self, name: str = "default"):
        self.name = name
        # size class in bytes -> free flat uint8 buffers (LIFO: warmest first).
        self._pool: dict[int, list[np.ndarray]] = {}
        # id(borrowed view) -> (flat buffer, weakref to view).
        self._live: dict[int, tuple[np.ndarray, Any]] = {}
        self.hits = 0
        self.misses = 0
        self.bytes_allocated = 0
        # Memory accounting: bytes_requested counts every borrow whether
        # or not it hit the pool, so requested - allocated is the reuse
        # saving; live/peak track outstanding borrow footprint.
        self.bytes_requested = 0
        self.live_bytes = 0
        self.peak_live_bytes = 0
        # Weak reference to the registry the cached counters belong to.
        self._registry: Any = lambda: None
        self._counters: dict[str, Any] = {}

    def _counter(self, name: str):
        """``kernel_arena_<name>`` on the ambient metrics registry."""
        registry = _current_metrics()
        if self._registry() is not registry:
            self._registry = weakref.ref(registry)
            self._counters = {}
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = registry.counter(f"kernel_arena_{name}")
        return counter

    # -- borrow / release ----------------------------------------------------
    def take(self, shape: tuple[int, ...] | int, dtype=np.float32) -> np.ndarray:
        """Borrow a buffer of ``shape``/``dtype`` (contents are arbitrary).

        The returned array must be handed back with :meth:`release` (or
        simply dropped — dead borrows are reclaimed automatically).
        """
        if isinstance(shape, int):
            shape = (shape,)
        dt = np.dtype(dtype)
        nbytes = dt.itemsize
        for dim in shape:
            nbytes *= int(dim)
        class_bytes = _size_class(nbytes)
        free = self._pool.get(class_bytes)
        if free:
            flat = free.pop()
            self.hits += 1
            self._counter("hits").inc()
        else:
            flat = np.empty(class_bytes, dtype=np.uint8)
            self.misses += 1
            self.bytes_allocated += flat.nbytes
            self._counter("misses").inc()
            self._counter("bytes_allocated").inc(flat.nbytes)
        self.bytes_requested += flat.nbytes
        self.live_bytes += flat.nbytes
        if self.live_bytes > self.peak_live_bytes:
            self.peak_live_bytes = self.live_bytes
        view = np.ndarray(shape, dt, flat)
        borrow_id = id(view)
        ref = weakref.ref(view, lambda wr, b=borrow_id: self._reclaim(b, wr))
        self._live[borrow_id] = (flat, ref)
        return view

    def release(self, buf: np.ndarray) -> None:
        """Return a borrowed buffer to the pool.

        Raises ``ValueError`` for arrays that are not live borrows of this
        workspace (including double releases).
        """
        entry = self._live.pop(id(buf), None)
        if entry is None:
            raise ValueError(
                f"workspace {self.name!r}: release() of an array that is not "
                "a live borrow (double release, or foreign buffer)"
            )
        flat, _ref = entry
        self.live_bytes -= flat.nbytes
        self._pool.setdefault(flat.nbytes, []).append(flat)

    def _reclaim(self, borrow_id: int, wr) -> None:
        """Weakref callback: a borrowed view died unreleased — repool it."""
        entry = self._live.get(borrow_id)
        if entry is not None and entry[1] is wr:
            del self._live[borrow_id]
            flat = entry[0]
            self.live_bytes -= flat.nbytes
            self._pool.setdefault(flat.nbytes, []).append(flat)

    # -- introspection -------------------------------------------------------
    @property
    def live_count(self) -> int:
        return len(self._live)

    @property
    def pooled_bytes(self) -> int:
        return sum(b.nbytes for free in self._pool.values() for b in free)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def bytes_saved(self) -> int:
        """Allocator traffic avoided by reuse: requested minus allocated."""
        return self.bytes_requested - self.bytes_allocated

    def stats(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "bytes_allocated": self.bytes_allocated,
            "bytes_requested": self.bytes_requested,
            "bytes_saved": self.bytes_saved,
            "live_bytes": self.live_bytes,
            "peak_live_bytes": self.peak_live_bytes,
            "pooled_bytes": self.pooled_bytes,
            "live": self.live_count,
        }

    def reset_stats(self) -> None:
        """Zero the hit/miss/bytes counters (pool contents are kept).

        The live-borrow footprint is state, not a counter — it survives,
        and the peak restarts from the current live level.
        """
        self.hits = 0
        self.misses = 0
        self.bytes_allocated = 0
        self.bytes_requested = 0
        self.peak_live_bytes = self.live_bytes

    def clear(self) -> None:
        """Drop every pooled buffer and forget live-borrow tracking.

        Intended for test/bench isolation when no borrows are outstanding;
        releasing a borrow taken before ``clear()`` raises.
        """
        self._pool.clear()
        self._live.clear()
        self.live_bytes = 0
        self.peak_live_bytes = 0


_LOCAL = threading.local()


def arena() -> Workspace:
    """The calling thread's workspace (created on first use)."""
    ws = getattr(_LOCAL, "workspace", None)
    if ws is None:
        ws = Workspace(name=f"thread-{threading.get_ident()}")
        _LOCAL.workspace = ws
    return ws


_CURRENT_METRICS = None


def _current_metrics():
    """The ambient metrics registry (lazy import, cached resolver: the
    framework stays importable without telemetry)."""
    global _CURRENT_METRICS
    if _CURRENT_METRICS is None:
        from ..telemetry.context import current_metrics

        _CURRENT_METRICS = current_metrics
    return _CURRENT_METRICS()


def record_arena_gauges(metrics=None) -> dict[str, float]:
    """Publish the arena's current stats as ``kernel_*`` telemetry gauges.

    Called by the suite's ``run_epoch`` implementations at epoch boundaries
    so per-run telemetry shows allocation pressure alongside throughput.
    The same snapshot is published as an ``arena_stats`` event on the
    ambient bus, so live streams carry allocation pressure too.  Returns
    the stats dict (also handy for benches).
    """
    ws = arena()
    if metrics is None:
        metrics = _current_metrics()
    stats = ws.stats()
    metrics.gauge("kernel_arena_hit_rate").set(stats["hit_rate"])
    metrics.gauge("kernel_arena_live_borrows").set(stats["live"])
    metrics.gauge("kernel_arena_pooled_bytes").set(stats["pooled_bytes"])
    metrics.gauge("kernel_arena_peak_live_bytes").set(stats["peak_live_bytes"])
    metrics.gauge("kernel_arena_bytes_saved").set(stats["bytes_saved"])
    from ..telemetry import current_events

    current_events().publish("arena_stats", arena=ws.name, **stats)
    return stats
