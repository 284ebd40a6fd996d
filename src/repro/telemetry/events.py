"""Streaming observability: the event bus and its JSONL event logs.

The trace/metrics layer answers *where did the time go* after the fact;
this module answers *what is happening right now*.  Three pieces:

- :class:`EventBus` — a synchronous publish/subscribe fan-out for
  lifecycle and progress events.  The runner, campaign engine and comms
  engine publish to the ambient bus
  (:func:`~repro.telemetry.context.current_events`); sinks subscribe.
  A disabled bus (the default when no telemetry session is active)
  collapses every publish to one attribute check.
- :class:`EventLog` — an append-only JSONL sink.  Each event is one
  ``write()`` of a complete line, so a killed process leaves at most one
  truncated final line; :func:`read_events` tolerates exactly that
  (crash-tolerant tail parsing) while still rejecting corruption in the
  middle of a file.
- :class:`EventCursor` — an incremental tail reader, so pollers consume
  each byte of a growing stream once.  A campaign's per-job streams are
  its whole live record: the monitor, the alerts and the server derive
  progress, liveness and stalls from them
  (:class:`~repro.telemetry.monitor.CampaignTailer`).

Timestamps come from an injectable ``clock()`` so the whole layer is
deterministic under :class:`repro.core.timing.FakeClock`; real sessions
default to ``time.time`` (epoch seconds), the only clock comparable
*across* worker processes.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable

__all__ = [
    "Event",
    "EventBus",
    "EventCursor",
    "EventLog",
    "NULL_EVENTS",
    "merge_event_streams",
    "read_events",
]


@dataclass(frozen=True)
class Event:
    """One published lifecycle/progress record."""

    name: str
    time_s: float
    pid: int = 0
    args: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {"name": self.name, "time_s": self.time_s, "pid": self.pid,
             "args": self.args},
            sort_keys=True, default=_jsonify,
        )

    @staticmethod
    def from_payload(payload: dict[str, Any]) -> "Event":
        return Event(
            name=str(payload["name"]),
            time_s=float(payload["time_s"]),
            pid=int(payload.get("pid", 0)),
            args=dict(payload.get("args", {})),
        )


def _jsonify(obj: Any):
    if hasattr(obj, "tolist"):  # numpy arrays and scalars
        return obj.tolist()
    if hasattr(obj, "item"):
        return obj.item()
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    raise TypeError(f"unserializable event value of type {type(obj).__name__}")


class EventBus:
    """Synchronous fan-out of :class:`Event` records to subscribers.

    Publishing on a disabled bus is a no-op (the ambient default); a
    subscriber that raises propagates to the publisher — sinks are part
    of the session, not best-effort listeners, so a broken sink should
    surface, not silently drop records.
    """

    def __init__(self, clock: Callable[[], float] | None = None,
                 enabled: bool = True, pid: int = 0):
        self.clock = clock or time.time
        self.enabled = enabled
        self.pid = pid
        self._subscribers: list[Callable[[Event], None]] = []

    def subscribe(self, sink: Callable[[Event], None]) -> Callable[[], None]:
        """Attach a sink; returns a zero-arg unsubscribe callable."""
        self._subscribers.append(sink)

        def unsubscribe() -> None:
            if sink in self._subscribers:
                self._subscribers.remove(sink)

        return unsubscribe

    def publish(self, name: str, **args: Any) -> Event | None:
        """Build an event at the bus clock's now and hand it to every sink."""
        if not self.enabled:
            return None
        event = Event(name=name, time_s=float(self.clock()), pid=self.pid,
                      args=args)
        for sink in list(self._subscribers):
            sink(event)
        return event


NULL_EVENTS = EventBus(enabled=False)


class EventLog:
    """Append-only JSONL event sink.

    Every event is serialized to one line and written with a single
    ``write`` + ``flush``, so concurrent appenders interleave at line
    granularity and a crash can truncate at most the final line — the
    exact failure :func:`read_events` is built to tolerate.  Parent
    directories are created on open; ``mode="a"`` (the default) lets a
    resumed campaign extend its previous stream.
    """

    def __init__(self, path: str | Path, mode: str = "a"):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, mode, encoding="utf-8")

    def write(self, event: Event) -> None:
        self._fh.write(event.to_json() + "\n")
        self._fh.flush()

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_events(path: str | Path) -> list[Event]:
    """Parse a JSONL event stream, tolerating a truncated final line.

    A worker killed mid-write leaves a partial last line; that line is
    dropped silently.  A malformed line *before* the end of the file is
    real corruption and raises ``ValueError`` — tolerance is scoped to
    the one failure appenders can actually produce.  A missing file is an
    empty stream (the job may simply not have started).
    """
    path = Path(path)
    if not path.is_file():
        return []
    raw_lines = path.read_text(encoding="utf-8", errors="replace").split("\n")
    # Trailing "" after a final newline is not a record.
    while raw_lines and raw_lines[-1] == "":
        raw_lines.pop()
    events: list[Event] = []
    last = len(raw_lines) - 1
    for i, line in enumerate(raw_lines):
        if not line.strip():
            continue
        try:
            events.append(Event.from_payload(json.loads(line)))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            if i == last:
                break  # truncated tail from a killed writer; tolerated
            raise ValueError(f"{path}:{i + 1}: corrupt event line") from exc
    return events


class EventCursor:
    """Incremental tail reader over one JSONL event stream.

    :func:`read_events` re-parses the whole file on every call — fine for
    one-shot commands, ruinous for a poller (``repro monitor --watch``,
    the observability server) that revisits growing streams forever.  A
    cursor remembers the byte offset after the last *complete* line it
    consumed and each :meth:`poll` reads only what appeared since:

    - A partial final line (a writer killed — or merely buffered — mid
      record) is **not consumed**: the offset stays at the last newline,
      so the record is parsed exactly once, on the poll after the writer
      finishes it.  No duplicates, no drops.
    - A file that shrank below the offset, or whose inode changed, was
      truncated or atomically replaced (rotation); the cursor restarts
      from byte 0 of the new contents.
    - A complete (newline-terminated) line that fails to parse cannot be
      crash truncation, so it raises ``ValueError`` like a mid-file
      corruption in :func:`read_events` does.

    ``consumed_bytes`` counts every byte ever handed to the parser; with
    a static file it stays put across polls — the "zero re-read" property
    the server's tests pin down.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.offset = 0
        self.consumed_bytes = 0
        self.polls = 0
        self._ino: int | None = None

    def poll(self) -> list[Event]:
        """Return every event completed since the last poll."""
        self.polls += 1
        try:
            stat = os.stat(self.path)
        except OSError:
            # Missing (not yet created, or rotated away): forget position
            # so a recreated file is read from its top.
            self.offset = 0
            self._ino = None
            return []
        if (self._ino is not None and stat.st_ino != self._ino) or \
                stat.st_size < self.offset:
            self.offset = 0  # rotated / replaced / truncated
        self._ino = stat.st_ino
        if stat.st_size <= self.offset:
            return []
        with open(self.path, "rb") as fh:
            fh.seek(self.offset)
            chunk = fh.read()
        # Consume complete lines only; a dangling tail waits for its writer.
        end = chunk.rfind(b"\n")
        if end < 0:
            return []
        complete, self.offset = chunk[: end + 1], self.offset + end + 1
        self.consumed_bytes += end + 1
        events: list[Event] = []
        for line in complete.split(b"\n")[:-1]:
            if not line.strip():
                continue
            try:
                events.append(Event.from_payload(
                    json.loads(line.decode("utf-8", errors="replace"))))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise ValueError(
                    f"{self.path}: corrupt event line ending at byte "
                    f"{self.offset}") from exc
        return events


def merge_event_streams(paths: Iterable[str | Path]) -> list[Event]:
    """Read several per-job streams and merge them into one timeline.

    The sort is stable on ``(time_s, pid)`` so events sharing a timestamp
    (FakeClock tests; same-instant workers) keep a deterministic order.
    """
    merged: list[Event] = []
    for path in paths:
        merged.extend(read_events(path))
    merged.sort(key=lambda e: (e.time_s, e.pid))
    return merged


class HeartbeatWriter:
    """Exists only because ``benchmarks/e2e/tracer.py`` patches ``beat``."""

    def beat(self, **updates: Any) -> None:
        """Writes nothing: a job's event stream is its only live record."""
