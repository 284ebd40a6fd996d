"""What a training session's structured log says once it is read back.

Three readers of a parsed log:

- :func:`decompose_log_events` — reduce a §4.1 structured log to the
  DAWNBench-style question "where did the wall-clock go": init vs. model
  creation vs. train epochs vs. eval;
- :func:`trace_from_log_events` — the Chrome trace of a run, rebuilt
  from the paired ``*_start``/``*_stop`` events of its log; the one
  producer behind ``repro trace`` and ``campaign --trace``;
- :func:`series_from_log_events` — the run's per-epoch trajectory
  (throughput, eval quality, epoch seconds, all-reduce bytes), behind
  ``repro profile --series`` and the server's series endpoint.

:class:`RunTelemetry` is the serializable snapshot a finished run carries
in :class:`~repro.core.runner.RunResult.telemetry`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable

if TYPE_CHECKING:  # the runtime import is lazy: core itself imports telemetry
    from ..core.mllog import LogEvent

__all__ = ["PhaseDecomposition", "RunTelemetry", "decompose_log_events",
           "merged_run_telemetry", "metadata_events", "series_from_log_events",
           "trace_from_log_events"]


@dataclass
class RunTelemetry:
    """Serializable telemetry snapshot attached to a finished run.

    Only what the §4.1 log does not hold: the metrics registry and the op
    profile.  The run's trace is rebuilt from its log
    (:func:`trace_from_log_events`).
    """

    metrics: dict[str, dict[str, Any]] = field(default_factory=dict)
    op_profile: dict[str, Any] = field(default_factory=dict)


def merged_run_telemetry(snapshots: Iterable[RunTelemetry | None]) -> RunTelemetry:
    """Compose per-run snapshots into one campaign-level view.

    Metrics merge via :func:`~repro.telemetry.metrics.merge_snapshots`, op
    profiles via :func:`~repro.telemetry.opprof.merge_op_profiles`.
    """
    from .metrics import merge_snapshots
    from .opprof import merge_op_profiles

    present = [s for s in snapshots if s is not None]
    return RunTelemetry(
        metrics=merge_snapshots(s.metrics for s in present),
        op_profile=merge_op_profiles(
            s.op_profile for s in present if s.op_profile),
    )


@dataclass(frozen=True)
class PhaseDecomposition:
    """Where one run's wall-clock went, in seconds, from its log."""

    init_s: float
    model_creation_s: float
    run_s: float
    train_s: float  # sum of epoch intervals
    eval_s: float  # sum of eval intervals
    epochs: int
    evals: int

    @property
    def other_s(self) -> float:
        """Run time not inside an epoch or an eval (loop overhead)."""
        return max(self.run_s - self.train_s - self.eval_s, 0.0)


def _paired_intervals(events: Iterable["LogEvent"]) -> list[tuple[str, float, float, dict]]:
    """Match ``*_start``/``*_stop`` events into (name, start_s, end_s, args).

    Pairing is FIFO per (stem, epoch_num) so repeated epochs/evals pair
    with their own stop even when logs interleave phases.  A start still
    open at ``run_stop`` (a run that raised mid-phase) closes there, its
    args tagged ``aborted`` and with the ``run_stop``'s ``error`` type.
    """
    open_marks: dict[tuple[str, Any], list[LogEvent]] = {}
    intervals: list[tuple[str, float, float, dict]] = []

    def close(stem: str, start: "LogEvent", stop: "LogEvent", **tags) -> None:
        args = {**start.metadata, **tags}
        name = f"{stem} {args['epoch_num']}" if "epoch_num" in args else stem
        intervals.append((name, start.time_ms / 1000.0, stop.time_ms / 1000.0, args))

    for event in events:
        if event.key.endswith("_start"):
            stem = event.key[: -len("_start")]
            open_marks.setdefault((stem, event.metadata.get("epoch_num")), []).append(event)
        elif event.key.endswith("_stop"):
            stem = event.key[: -len("_stop")]
            stack = open_marks.get((stem, event.metadata.get("epoch_num")))
            if stack:  # an unbalanced stop is tolerated; review catches it
                close(stem, stack.pop(0), event)
            if stem == "run":
                tags = {"aborted": True}
                if "error" in event.metadata:
                    tags["error"] = event.metadata["error"]
                for (open_stem, _), starts in open_marks.items():
                    for start in starts:
                        close(open_stem, start, event, **tags)
                open_marks.clear()
    return intervals


def decompose_log_events(events: Iterable["LogEvent"]) -> PhaseDecomposition:
    """Reduce a structured log to per-phase seconds."""
    totals = {"init": 0.0, "model_creation": 0.0, "run": 0.0, "epoch": 0.0, "eval": 0.0}
    counts = {"epoch": 0, "eval": 0}
    for name, start_s, end_s, _ in _paired_intervals(events):
        stem = name.split(" ")[0]
        if stem in totals:
            totals[stem] += end_s - start_s
        if stem in counts:
            counts[stem] += 1
    return PhaseDecomposition(
        init_s=totals["init"],
        model_creation_s=totals["model_creation"],
        run_s=totals["run"],
        train_s=totals["epoch"],
        eval_s=totals["eval"],
        epochs=counts["epoch"],
        evals=counts["eval"],
    )


def trace_from_log_events(events: Iterable["LogEvent"], pid: int = 0) -> dict[str, Any]:
    """A Chrome trace document reconstructed from a structured log.

    Interval events become nested complete ("ph": "X") events, which
    chrome://tracing and Perfetto nest by timestamp containment (the
    ``run`` span contains the epochs and evals); a phase the run died in
    ends at its ``run_stop``, tagged ``aborted`` with the error type.
    ``eval_accuracy`` events become instant markers carrying the quality
    value.
    """
    from ..core.mllog import Keys  # lazy: core imports telemetry at load time

    events = list(events)
    trace_events = [
        {
            "name": name,
            "cat": "repro",
            "ph": "X",
            "ts": start_s * 1e6,  # trace_event timestamps are in µs
            "dur": max(end_s - start_s, 0.0) * 1e6,
            "pid": pid,
            "tid": 0,
            "args": args,
        }
        for name, start_s, end_s, args in _paired_intervals(events)
    ]
    for event in events:
        if event.key == Keys.EVAL_ACCURACY:
            trace_events.append({
                "name": "eval_accuracy",
                "cat": "repro",
                "ph": "i",
                "s": "p",
                "ts": event.time_ms * 1000.0,
                "pid": pid,
                "tid": 0,
                "args": {"value": event.value, **event.metadata},
            })
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def metadata_events(pid: int, process_name: str) -> list[dict[str, Any]]:
    """The Chrome ``"M"`` event naming process row ``pid``.

    Without it a row shows as a bare pid integer; a campaign trace labels
    each cell's row ``benchmark/seed``.
    """
    return [{"name": "process_name", "ph": "M", "cat": "__metadata",
             "ts": 0, "pid": pid, "tid": 0, "args": {"name": process_name}}]


def series_from_log_events(events: Iterable["LogEvent"]) -> dict[str, list[list[float]]]:
    """The run's per-epoch trajectory, ``{name: [[t_s, epoch, value], ...]}``.

    DAWNBench's lesson is that a time-to-accuracy number needs the
    trajectory behind it, and the §4.1 log already holds it:
    ``epoch_seconds`` and ``allreduce_bytes`` (data-parallel runs only)
    come from ``tracked_stats``, ``examples_per_second`` from
    ``throughput`` and ``eval_quality`` from ``eval_accuracy``.  ``t_s``
    is seconds since ``run_start``, so series from different processes
    compare directly.
    """
    from ..core.mllog import Keys  # lazy: core imports telemetry at load time

    series: dict[str, list[list[float]]] = {}
    t0_ms = None

    def add(name: str, event: "LogEvent", value) -> None:
        series.setdefault(name, []).append([
            (event.time_ms - (t0_ms or 0.0)) / 1000.0,
            int(event.metadata.get("epoch_num", 0)), float(value)])

    for event in events:
        if event.key == Keys.RUN_START and t0_ms is None:
            t0_ms = event.time_ms
        elif event.key == Keys.TRACKED_STATS and isinstance(event.value, dict):
            for name in ("epoch_seconds", "allreduce_bytes"):
                if name in event.value:
                    add(name, event, event.value[name])
        elif event.key == Keys.THROUGHPUT:
            add("examples_per_second", event, event.value)
        elif event.key == Keys.EVAL_ACCURACY:
            add("eval_quality", event, event.value)
    return dict(sorted(series.items()))
