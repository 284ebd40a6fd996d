"""Trace spans with Chrome ``trace_event`` export.

A :class:`Span` is one named, timed interval; a :class:`Tracer` records a
tree of them through a context-manager API::

    with tracer.span("epoch", epoch_num=3):
        with tracer.span("forward"):
            ...

Spans nest by containment, exactly how ``chrome://tracing`` / Perfetto
render complete ("ph": "X") events that share a thread id.  The tracer
takes any ``clock()`` callable returning seconds — pass a
:class:`repro.core.timing.FakeClock` for deterministic traces in tests,
or nothing for wall time.

A disabled tracer (``Tracer(enabled=False)``) records nothing and its
``span()`` returns one shared no-op context manager, so instrumentation
left in hot paths costs a single attribute check when telemetry is off.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Iterable

__all__ = ["Span", "Tracer", "NULL_SPAN", "chrome_trace_from_intervals",
           "metadata_events", "dedupe_metadata_events"]


def metadata_events(pid: int, process_name: str | None = None,
                    thread_name: str | None = None,
                    tid: int = 0) -> list[dict[str, Any]]:
    """Chrome ``"M"`` metadata events naming a trace's process/thread rows.

    Without these, every session exported as a bare pid/tid integer and
    merged campaign traces were unreadable; with them the viewer shows
    ``benchmark/seed`` labels per row.
    """
    events: list[dict[str, Any]] = []
    if process_name:
        events.append({"name": "process_name", "ph": "M", "cat": "__metadata",
                       "ts": 0, "pid": pid, "tid": tid,
                       "args": {"name": process_name}})
    if thread_name:
        events.append({"name": "thread_name", "ph": "M", "cat": "__metadata",
                       "ts": 0, "pid": pid, "tid": tid,
                       "args": {"name": thread_name}})
    return events


def dedupe_metadata_events(events: Iterable[dict[str, Any]]) -> list[dict[str, Any]]:
    """Collapse colliding ``"M"`` metadata in a merged event list.

    Campaign cells reuse pids across retry attempts, so a merged trace can
    carry several ``process_name`` events for one pid.  Chrome keeps only
    whichever it parses last — which label survives then depends on merge
    order.  Here exact duplicates collapse to one, and *conflicting*
    labels for the same (pid, tid, row) merge into a single event whose
    name joins the distinct labels in first-seen order, so no attempt's
    identity is silently dropped.  Non-metadata events pass through
    untouched, in order, after the metadata block.
    """
    meta: dict[tuple[Any, Any, Any], dict[str, Any]] = {}
    labels: dict[tuple[Any, Any, Any], list[str]] = {}
    rest: list[dict[str, Any]] = []
    for event in events:
        if event.get("ph") != "M":
            rest.append(event)
            continue
        key = (event.get("pid"), event.get("tid"), event.get("name"))
        label = str(event.get("args", {}).get("name", ""))
        if key not in meta:
            meta[key] = dict(event)
            labels[key] = [label]
        elif label not in labels[key]:
            labels[key].append(label)
    out = []
    for key, event in meta.items():
        if len(labels[key]) > 1:
            event = dict(event)
            event["args"] = {**event.get("args", {}),
                             "name": " | ".join(labels[key])}
        out.append(event)
    return out + rest


@dataclass
class Span:
    """One named, timed interval; ``end_s`` is None while the span is open."""

    name: str
    start_s: float
    end_s: float | None = None
    depth: int = 0
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        if self.end_s is None:
            raise RuntimeError(f"span {self.name!r} is still open")
        return self.end_s - self.start_s

    def set(self, **args: Any) -> "Span":
        """Attach extra args to the span (shows under Args in the viewer)."""
        self.args.update(args)
        return self


class _NullSpan:
    """Shared no-op stand-in returned by a disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def set(self, **args: Any) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class _OpenSpan:
    """Context manager closing one live span on exit."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is not None:
            self._span.args.setdefault("error", exc_type.__name__)
        self._tracer._close(self._span)


class Tracer:
    """Records a tree of spans against an injectable clock.

    Parameters
    ----------
    clock:
        ``clock()`` -> seconds.  ``Clock`` instances from
        :mod:`repro.core.timing` are callable and fit directly; default is
        ``time.perf_counter``.
    enabled:
        When False the tracer is a no-op (the zero-overhead default used
        by the ambient telemetry context).
    pid / tid:
        Process and thread ids stamped on exported events — campaign
        workers use their job ordinal so merged traces keep one process
        row per cell instead of collapsing onto pid=0/tid=0.
    process_name / thread_name:
        When set, :meth:`chrome_events` prepends the matching ``"M"``
        (metadata) events so the viewer labels the rows by job instead of
        by bare integer ids.
    """

    def __init__(self, clock=None, enabled: bool = True, pid: int = 0,
                 tid: int = 0, process_name: str | None = None,
                 thread_name: str | None = None):
        self.clock = clock or time.perf_counter
        self.enabled = enabled
        self.pid = pid
        self.tid = tid
        self.process_name = process_name
        self.thread_name = thread_name
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    # -- recording -----------------------------------------------------------
    def span(self, name: str, **args: Any):
        """Open a span as a context manager; closes (and records) on exit."""
        if not self.enabled:
            return NULL_SPAN
        record = Span(name=name, start_s=float(self.clock()),
                      depth=len(self._stack), args=dict(args))
        self._stack.append(record)
        self.spans.append(record)
        return _OpenSpan(self, record)

    def _close(self, span: Span) -> None:
        if not self._stack or self._stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        self._stack.pop()
        span.end_s = float(self.clock())

    def instant(self, name: str, **args: Any) -> None:
        """Record a zero-duration marker event."""
        if not self.enabled:
            return
        now = float(self.clock())
        self.spans.append(Span(name=name, start_s=now, end_s=now,
                               depth=len(self._stack), args=dict(args)))

    @property
    def open_spans(self) -> list[Span]:
        return list(self._stack)

    def abort_open(self, error: str | None = None) -> int:
        """Close every open span (innermost first) at the current clock.

        A run that dies mid-epoch leaves its ``run``/``epoch`` spans open,
        and :meth:`chrome_events` drops open spans — so without this a
        failed run exported an *empty* trace, exactly when a trace is most
        wanted.  The runner's failure path calls this before snapshotting;
        each closed span is stamped ``aborted=True`` (plus ``error`` when
        given) so viewers can tell truncation from completion.  Returns
        the number of spans closed.
        """
        closed = 0
        now = float(self.clock()) if self._stack else 0.0
        while self._stack:
            span = self._stack.pop()
            span.end_s = now
            span.args.setdefault("aborted", True)
            if error is not None:
                span.args.setdefault("error", error)
            closed += 1
        return closed

    # -- export --------------------------------------------------------------
    def chrome_events(self, pid: int | None = None) -> list[dict[str, Any]]:
        """The recorded spans as Chrome ``trace_event`` dicts (closed only).

        When the tracer has a ``process_name``/``thread_name``, matching
        metadata events lead the list so viewers label this session's
        rows; they are emitted only alongside real spans (an idle session
        exports nothing).
        """
        pid = self.pid if pid is None else pid
        events = []
        for s in self.spans:
            if s.end_s is None:
                continue
            events.append({
                "name": s.name,
                "cat": "repro",
                "ph": "X",
                "ts": s.start_s * 1e6,  # trace_event timestamps are in µs
                "dur": (s.end_s - s.start_s) * 1e6,
                "pid": pid,
                "tid": self.tid,
                "args": dict(s.args),
            })
        if events:
            events = metadata_events(pid, self.process_name, self.thread_name,
                                     tid=self.tid) + events
        return events

    def to_chrome_trace(self) -> dict[str, Any]:
        """A complete Chrome-loadable trace document."""
        return {"traceEvents": self.chrome_events(), "displayTimeUnit": "ms"}

    def to_json(self) -> str:
        return json.dumps(self.to_chrome_trace(), sort_keys=True)


def chrome_trace_from_intervals(
    intervals: Iterable[tuple[str, float, float, dict[str, Any]]],
    pid: int = 0,
    process_name: str | None = None,
    thread_name: str | None = None,
) -> dict[str, Any]:
    """Build a Chrome trace document from ``(name, start_s, end_s, args)``.

    Used to reconstruct a viewable trace from sources that are not live
    tracers — chiefly the paired ``*_start``/``*_stop`` events of a saved
    §4.1 training-session log.  ``process_name``/``thread_name`` prepend
    the matching metadata events so reconstructed rows are labelled like
    live-tracer ones.
    """
    events: list[dict[str, Any]] = metadata_events(
        pid, process_name, thread_name)
    events += [
        {
            "name": name,
            "cat": "repro",
            "ph": "X",
            "ts": start_s * 1e6,
            "dur": max(end_s - start_s, 0.0) * 1e6,
            "pid": pid,
            "tid": 0,
            "args": dict(args),
        }
        for name, start_s, end_s, args in intervals
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms"}
