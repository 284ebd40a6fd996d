"""Per-run sampled time-series (throughput, quality, all-reduce traffic).

DAWNBench's core lesson is that a time-to-accuracy *number* is only
trustworthy with the *trajectory* behind it; the paper's §4.1 requires
"quality metric evaluated at prescribed intervals" for the same reason.
:class:`RunSeries` is that trajectory: named series sampled at epoch and
eval boundaries by the runner, serialized inside
:class:`~repro.telemetry.profile.RunTelemetry`, persisted in the
``# repro-run`` artifact header, and rendered by ``repro stats --series``.

Samples carry ``(t_s, epoch, value)`` where ``t_s`` is seconds since
``run_start`` on the run's own clock — relative time, so series from
different processes and machines are directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

__all__ = ["SeriesPoint", "RunSeries", "series_rows", "render_series_table"]

# The canonical series the runner records (others may appear; the
# renderer lists whatever a run carries, in this order first).
STANDARD_SERIES = ("examples_per_second", "eval_quality", "epoch_seconds",
                   "allreduce_bytes")

_SPARK_LEVELS = " .:-=+*#%@"


@dataclass(frozen=True)
class SeriesPoint:
    """One sample: relative time, epoch it was taken at, value."""

    t_s: float
    epoch: int
    value: float


class RunSeries:
    """Named per-run series with JSON round-trip.

    Recording is append-only and cheap (one tuple per sample); the
    payload form is ``{name: [[t_s, epoch, value], ...]}`` — compact,
    sorted, and stable, so it diffs cleanly inside artifact headers.
    """

    def __init__(self):
        self._series: dict[str, list[SeriesPoint]] = {}

    def record(self, name: str, value: float, *, t_s: float, epoch: int) -> None:
        self._series.setdefault(name, []).append(
            SeriesPoint(t_s=float(t_s), epoch=int(epoch), value=float(value)))

    def names(self) -> list[str]:
        return sorted(self._series)

    def points(self, name: str) -> list[SeriesPoint]:
        return list(self._series.get(name, []))

    def __bool__(self) -> bool:
        return bool(self._series)

    def __contains__(self, name: str) -> bool:
        return name in self._series

    def to_payload(self) -> dict[str, list[list[float]]]:
        return {
            name: [[p.t_s, p.epoch, p.value] for p in points]
            for name, points in sorted(self._series.items())
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any] | None) -> "RunSeries":
        series = cls()
        for name, raw_points in (payload or {}).items():
            series._series[name] = [
                SeriesPoint(t_s=float(t), epoch=int(e), value=float(v))
                for t, e, v in raw_points
            ]
        return series


def _sparkline(values: list[float], width: int = 16) -> str:
    """A pure-ASCII sparkline of the series shape (terminal-safe)."""
    if not values:
        return ""
    if len(values) > width:  # downsample by striding, keeping the endpoints
        idx = [round(i * (len(values) - 1) / (width - 1)) for i in range(width)]
        values = [values[i] for i in idx]
    lo, hi = min(values), max(values)
    if hi <= lo:
        return _SPARK_LEVELS[len(_SPARK_LEVELS) // 2] * len(values)
    top = len(_SPARK_LEVELS) - 1
    return "".join(
        _SPARK_LEVELS[round((v - lo) / (hi - lo) * top)] for v in values
    )


def _ordered_names(names: Iterable[str]) -> list[str]:
    names = set(names)
    ordered = [n for n in STANDARD_SERIES if n in names]
    ordered.extend(sorted(names - set(STANDARD_SERIES)))
    return ordered


def series_rows(runs_by_benchmark: dict[str, list[Any]]) -> list[dict[str, Any]]:
    """Flatten saved runs into renderable series rows.

    Accepts the same ``benchmark -> [RunResult]`` shape the phase table
    uses; runs without recorded series contribute nothing.
    """
    rows: list[dict[str, Any]] = []
    for benchmark, runs in sorted(runs_by_benchmark.items()):
        for run in runs:
            payload = getattr(run.telemetry, "series", None) if run.telemetry else None
            if not payload:
                continue
            series = RunSeries.from_payload(payload)
            for name in _ordered_names(series.names()):
                points = series.points(name)
                values = [p.value for p in points]
                rows.append({
                    "benchmark": benchmark,
                    "seed": run.seed,
                    "series": name,
                    "n": len(points),
                    "first": values[0],
                    "last": values[-1],
                    "min": min(values),
                    "max": max(values),
                    "spark": _sparkline(values),
                })
    return rows


def render_series_table(runs_by_benchmark: dict[str, list[Any]]) -> str:
    """The ``repro stats --series`` table: one row per (run, series)."""
    rows = series_rows(runs_by_benchmark)
    if not rows:
        return "(no per-run series recorded in these submissions)"
    header = (
        f"{'Benchmark':<26}{'Seed':>5}  {'Series':<24}{'N':>4}"
        f"{'First':>11}{'Last':>11}{'Min':>11}{'Max':>11}  Trend"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['benchmark']:<26}{row['seed']:>5}  {row['series']:<24}"
            f"{row['n']:>4}{row['first']:>11.4g}{row['last']:>11.4g}"
            f"{row['min']:>11.4g}{row['max']:>11.4g}  {row['spark']}"
        )
    return "\n".join(lines)
