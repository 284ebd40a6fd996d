"""Structured training-session logging (the paper's §4.1 log format).

"A training session log file contains a variety of structured information
including timestamps for important stages of the workload, quality metric
evaluated at prescribed intervals, hyper-parameter choices, and others.
These logs form the foundation for subsequent result analysis."

The format follows the real mlperf-logging package: one line per event,
``:::MLLOG { json }``, with ``key``, ``value``, ``time_ms``, and
``metadata``.  Logs round-trip through text, and every reader of a saved
log — review (:mod:`repro.core.review`), reporting, ``repro trace`` and the
artifact loader — parses it with the one loop, :func:`parse_log_lines`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable

__all__ = ["LogEvent", "MLLogger", "Keys", "parse_log_lines"]

_PREFIX = ":::MLLOG "


class Keys:
    """Canonical event keys (subset of the real mlperf-logging constants)."""

    SUBMISSION_BENCHMARK = "submission_benchmark"
    SUBMISSION_DIVISION = "submission_division"
    SUBMISSION_ORG = "submission_org"
    SUBMISSION_PLATFORM = "submission_platform"
    SUBMISSION_STATUS = "submission_status"
    CACHE_CLEAR = "cache_clear"
    INIT_START = "init_start"
    INIT_STOP = "init_stop"
    MODEL_CREATION_START = "model_creation_start"
    MODEL_CREATION_STOP = "model_creation_stop"
    RUN_START = "run_start"
    RUN_STOP = "run_stop"
    EPOCH_START = "epoch_start"
    EPOCH_STOP = "epoch_stop"
    EVAL_START = "eval_start"
    EVAL_STOP = "eval_stop"
    EVAL_ACCURACY = "eval_accuracy"
    HYPERPARAMETER = "hyperparameter"
    SEED = "seed"
    QUALITY_TARGET = "quality_target"
    TARGET_REACHED = "target_reached"
    # Observability keys (mirroring mlperf-logging's throughput/tracked
    # stats): per-epoch rate and free-form per-interval stats dicts.
    THROUGHPUT = "throughput"
    TRACKED_STATS = "tracked_stats"


@dataclass(frozen=True)
class LogEvent:
    """One structured log record."""

    key: str
    value: Any
    time_ms: float
    metadata: dict[str, Any] = field(default_factory=dict)

    def to_line(self) -> str:
        payload = {
            "key": self.key,
            "value": self.value,
            "time_ms": round(self.time_ms, 3),
            "metadata": self.metadata,
        }
        return _PREFIX + json.dumps(payload, sort_keys=True, default=_jsonify)

    @staticmethod
    def from_line(line: str) -> "LogEvent":
        """Parse one record; a malformed one raises ``ValueError``."""
        if not line.startswith(_PREFIX):
            raise ValueError(f"not an MLLOG line: {line[:40]!r}")
        payload = json.loads(line[len(_PREFIX):])
        try:
            return LogEvent(
                key=payload["key"],
                value=payload.get("value"),
                time_ms=float(payload["time_ms"]),
                metadata=payload.get("metadata", {}),
            )
        except (AttributeError, KeyError, TypeError) as exc:
            raise ValueError(f"malformed MLLOG record: {exc!r}") from None


def _jsonify(obj: Any):
    """JSON fallback for numpy scalars, numpy arrays, and sets."""
    if hasattr(obj, "tolist"):  # ndarray and numpy scalars alike
        return obj.tolist()
    if hasattr(obj, "item"):
        return obj.item()
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    raise TypeError(f"unserializable log value of type {type(obj).__name__}")


class MLLogger:
    """Collects :class:`LogEvent` records against a supplied clock.

    ``clock()`` returns seconds; events are stamped in milliseconds like the
    real format.  The logger is deliberately dumb — rule enforcement lives
    in the review stage, mirroring how real submissions are checked
    after the fact.
    """

    def __init__(self, clock):
        self._clock = clock
        self.events: list[LogEvent] = []

    def event(self, key: str, value: Any = None, **metadata: Any) -> LogEvent:
        record = LogEvent(key=key, value=value, time_ms=self._clock() * 1000.0,
                          metadata=dict(metadata))
        self.events.append(record)
        return record

    def hyperparameters(self, hyperparameters: dict[str, Any]) -> None:
        for name, value in sorted(hyperparameters.items()):
            self.event(Keys.HYPERPARAMETER, value=_scrub(value), name=name)

    # -- queries -----------------------------------------------------------
    def find(self, key: str) -> list[LogEvent]:
        return [e for e in self.events if e.key == key]

    def first(self, key: str) -> LogEvent | None:
        for e in self.events:
            if e.key == key:
                return e
        return None

    def last(self, key: str) -> LogEvent | None:
        for e in reversed(self.events):
            if e.key == key:
                return e
        return None

    # -- serialization ---------------------------------------------------------
    def to_lines(self) -> list[str]:
        return [e.to_line() for e in self.events]

    @staticmethod
    def from_lines(lines: Iterable[str]) -> "MLLogger":
        """A logger holding the events :func:`parse_log_lines` finds in ``lines``."""
        logger = MLLogger(clock=lambda: 0.0)
        logger.events = parse_log_lines(lines)
        return logger


def _scrub(value: Any) -> Any:
    """Make hyperparameter values JSON-representable."""
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, (frozenset, set)):
        return sorted(value)
    return value


def parse_log_lines(lines: Iterable[str]) -> list[LogEvent]:
    """Parse the MLLOG records among ``lines`` (an iterable, not one string).

    Real result files interleave ``:::MLLOG`` records with free-text output
    (headers, stack traces, launcher chatter); those lines are skipped.  A
    *final* record that does not parse — the one artifact a killed writer
    can leave — is dropped; a malformed record before it is corruption and
    raises ``ValueError``.
    """
    records = [s for s in (line.strip() for line in lines) if s.startswith(_PREFIX)]
    events = [LogEvent.from_line(record) for record in records[:-1]]
    if records:
        try:
            events.append(LogEvent.from_line(records[-1]))
        except ValueError:
            pass  # truncated tail from a killed writer
    return events
