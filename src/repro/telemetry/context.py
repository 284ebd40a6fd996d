"""Ambient telemetry: the active metrics registry and op profiler for this context.

Instrumentation sites live deep inside the suite, the framework, and the
data-parallel engine — threading a registry argument through every layer
would couple all of them to observability concerns.  Instead one
:class:`Telemetry` session is *activated* for the dynamic extent of a run
(a ``contextvars.ContextVar``, so it composes with threads), and hot-path
code reaches it via :func:`current_metrics` / :func:`current_profiler`.

The default, when nothing is activated, is the null registry and a
disabled profiler: every probe collapses to an attribute check and a
no-op call.
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar

from .events import EventBus
from .metrics import NULL_METRICS, MetricsRegistry
from .opprof import OpProfiler

__all__ = ["Telemetry", "current_metrics", "current_profiler"]


class Telemetry:
    """One observability session: metrics registry, event bus, op profiler.

    ``events_clock`` times published events; it defaults to ``time.time``
    (epoch seconds — the only clock comparable across worker processes).
    Tests inject a :class:`~repro.core.timing.FakeClock`'s ``now``.  Where
    the run's phases went is its §4.1 log's to say, not the session's.
    """

    def __init__(self, enabled: bool = True, pid: int = 0,
                 events_clock=None, profile: str | None = None):
        self.enabled = enabled
        self.metrics = MetricsRegistry(enabled=enabled) if enabled else NULL_METRICS
        self.events = EventBus(clock=events_clock, enabled=enabled, pid=pid)
        # ``profile=None`` defers to REPRO_PROFILE (default "off"), so a
        # session created without opinion stays zero-overhead.
        self.profiler = OpProfiler(mode=profile, enabled=enabled)

    @contextlib.contextmanager
    def activate(self):
        """Make this session the ambient one for the enclosed extent.

        When profiling is on, the framework's tensor-allocation tracker is
        installed and the session listed in ``prof.SESSIONS`` for the same
        extent, without the framework importing telemetry at load time.
        """
        token = _ACTIVE.set(self)
        profiling = self.profiler.active
        if profiling:
            from ..framework.prof import SESSIONS
            from ..framework.tensor import set_alloc_tracker

            prev_tracker = set_alloc_tracker(self.profiler.note_alloc)
            SESSIONS.append(self)
        try:
            yield self
        finally:
            if profiling:
                set_alloc_tracker(prev_tracker)
                SESSIONS.pop()
            _ACTIVE.reset(token)

    @staticmethod
    def disabled() -> "Telemetry":
        """The shared no-op session (what runs get when not observed)."""
        return _DISABLED


_DISABLED = Telemetry(enabled=False)
_ACTIVE: ContextVar[Telemetry] = ContextVar("repro_telemetry", default=_DISABLED)


def current_metrics() -> MetricsRegistry:
    return _ACTIVE.get().metrics


def current_profiler() -> OpProfiler:
    return _ACTIVE.get().profiler
