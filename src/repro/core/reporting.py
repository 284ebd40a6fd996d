"""Results reporting (§4.2.4).

"MLPERF results report provides the time to train metric for each
benchmark in a given submission. While a single summary score ... may be
desired ... a summary score is not appropriate for MLPERF": there is no
universally representative weighting across application areas, and systems
legitimately omit benchmarks.  Accordingly this module renders
per-benchmark scores only, and :func:`summary_score` exists solely to
refuse — with the paper's rationale — so the design decision is executable
and testable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..telemetry import decompose_log_events, series_from_log_events
from .mllog import parse_log_lines
from .results import BenchmarkScore, score_runs
from .runner import RunResult
from .scaling import ScaleReport, system_cloud_scale
from .submission import Submission, SystemType

__all__ = ["ResultsRow", "ResultsReport", "build_report", "summary_score",
           "SummaryScoreRefused", "PhaseRow", "build_phase_table",
           "render_phase_table", "render_series_table", "CampaignSummary",
           "render_campaign_summary"]


class SummaryScoreRefused(RuntimeError):
    """Raised by :func:`summary_score`, by design."""


def summary_score(report: "ResultsReport") -> float:
    """MLPerf does not define a summary score (§4.2.4); this always raises."""
    raise SummaryScoreRefused(
        "MLPerf reports per-benchmark time-to-train only: a summary score "
        "implies a universal weighting across application areas (none exists) "
        "and becomes meaningless when a system omits benchmarks (§4.2.4)."
    )


@dataclass(frozen=True)
class ResultsRow:
    """One (system, benchmark) score with its scale context."""

    submitter: str
    system_name: str
    division: str
    category: str
    benchmark: str
    time_to_train_s: float
    num_runs: int
    scale: ScaleReport


@dataclass
class ResultsReport:
    """The published results table for a round."""

    rows: list[ResultsRow] = field(default_factory=list)

    def for_benchmark(self, benchmark: str) -> list[ResultsRow]:
        return sorted(
            (r for r in self.rows if r.benchmark == benchmark),
            key=lambda r: r.time_to_train_s,
        )

    def fastest(self, benchmark: str) -> ResultsRow | None:
        ranked = self.for_benchmark(benchmark)
        return ranked[0] if ranked else None

    def render(self) -> str:
        header = (
            f"{'Submitter':<12}{'System':<16}{'Div':<8}{'Benchmark':<26}"
            f"{'TTT (s)':>10}{'Runs':>6}{'Procs':>7}{'Accels':>7}"
        )
        lines = [header, "-" * len(header)]
        for row in sorted(self.rows, key=lambda r: (r.benchmark, r.time_to_train_s)):
            lines.append(
                f"{row.submitter:<12}{row.system_name:<16}{row.division:<8}"
                f"{row.benchmark:<26}{row.time_to_train_s:>10.3f}{row.num_runs:>6}"
                f"{row.scale.num_processors:>7}{row.scale.num_accelerators:>7}"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class PhaseRow:
    """Mean per-phase wall-clock for one benchmark's runs (DAWNBench-style).

    ``init``/``model_creation``/``time_to_train`` come from the timing
    state machine's :class:`~repro.core.timing.TimingBreakdown` when the
    run carries one; ``train``/``eval`` decompose the timed region from
    the structured log's paired epoch/eval events.  ``other`` is run time
    inside neither (loop and logging overhead).
    """

    benchmark: str
    num_runs: int
    init_s: float
    model_creation_s: float
    train_s: float
    eval_s: float
    other_s: float
    time_to_train_s: float
    # Mean all-reduce traffic per run (0 when the run carries no
    # telemetry or used no data-parallel engine).
    allreduce_elements: float = 0.0
    allreduce_bytes: float = 0.0
    # Mean MCTS searches, network answers they asked for, and how many of
    # those the per-game memo gave without a forward pass (self-play only).
    mcts_searches: float = 0.0
    mcts_evaluations: float = 0.0
    mcts_memo_hits: float = 0.0


def _decompose_run(run: RunResult):
    phases = decompose_log_events(parse_log_lines(run.log_lines))
    if run.breakdown is not None:
        init = run.breakdown.init_seconds
        creation = run.breakdown.model_creation_seconds
        ttt = run.breakdown.time_to_train_seconds
    else:  # runs loaded from pre-breakdown artifacts fall back to the log
        init = phases.init_s
        creation = phases.model_creation_s
        ttt = run.time_to_train_s
    return init, creation, phases.train_s, phases.eval_s, phases.other_s, ttt


def _run_counter(run: RunResult, name: str) -> float:
    if run.telemetry is None or not run.telemetry.metrics:
        return 0.0
    inst = run.telemetry.metrics.get(name)
    if not inst or inst.get("type") != "counter":
        return 0.0
    return float(inst["value"])


def kernel_fallback_counts(metrics: dict | None) -> dict[str, float]:
    """``{"<op>/<reason>": calls}`` from a metrics snapshot's
    ``kernel_fallbacks.<op>.<reason>`` counters."""
    prefix = "kernel_fallbacks."
    return {name[len(prefix):].replace(".", "/", 1): float(inst["value"])
            for name, inst in (metrics or {}).items() if name.startswith(prefix)}


def render_kernel_fallbacks(runs: list[RunResult]) -> str:
    """One line: calls, summed over ``runs``, in which a fused kernel ran its
    composed reference (mixed operand dtypes, unsupported rank), by op and
    reason."""
    totals: dict[str, float] = {}
    for run in runs:
        metrics = run.telemetry.metrics if run.telemetry is not None else None
        for key, value in kernel_fallback_counts(metrics).items():
            totals[key] = totals.get(key, 0.0) + value
    if not totals:
        return "  kernel fallbacks: none"
    return "  kernel fallbacks: " + "  ".join(
        f"{key}={value:g}" for key, value in sorted(totals.items()))


def build_phase_table(runs_by_benchmark: dict[str, list[RunResult]]) -> list[PhaseRow]:
    """Aggregate per-run phase decompositions into per-benchmark means."""
    rows = []
    for benchmark, runs in sorted(runs_by_benchmark.items()):
        if not runs:
            continue
        parts = [_decompose_run(r) for r in runs]
        means = [sum(p[i] for p in parts) / len(parts) for i in range(6)]
        counters = {
            name: sum(_run_counter(r, name) for r in runs) / len(runs)
            for name in ("allreduce_elements", "allreduce_bytes",
                         "mcts_searches", "mcts_evaluations", "mcts_memo_hits")
        }
        rows.append(PhaseRow(benchmark, len(runs), *means, **counters))
    return rows


def _human_count(value: float) -> str:
    """Compact counts for the table: 0 -> '-', 1.5e6 -> '1.5M'."""
    if value <= 0:
        return "-"
    for scale, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "K")):
        if value >= scale:
            return f"{value / scale:.1f}{suffix}"
    return f"{value:.0f}"


def render_phase_table(rows: list[PhaseRow]) -> str:
    """The ``repro profile`` phase table: where each benchmark's wall-clock
    goes, one row per benchmark, means over its runs."""
    header = (
        f"{'Benchmark':<26}{'Runs':>6}{'Init':>9}{'Create':>9}{'Train':>9}"
        f"{'Eval':>9}{'Other':>9}{'TTT (s)':>10}{'Train%':>8}"
        f"{'AllRed el':>11}{'AllRed B':>10}{'Searches':>10}{'NN evals':>10}"
        f"{'Memo hits':>11}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        timed = row.train_s + row.eval_s + row.other_s
        train_pct = 100.0 * row.train_s / timed if timed > 0 else 0.0
        lines.append(
            f"{row.benchmark:<26}{row.num_runs:>6}{row.init_s:>9.3f}"
            f"{row.model_creation_s:>9.3f}{row.train_s:>9.3f}{row.eval_s:>9.3f}"
            f"{row.other_s:>9.3f}{row.time_to_train_s:>10.3f}{train_pct:>7.1f}%"
            f"{_human_count(row.allreduce_elements):>11}"
            f"{_human_count(row.allreduce_bytes):>10}"
            f"{_human_count(row.mcts_searches):>10}"
            f"{_human_count(row.mcts_evaluations):>10}"
            f"{_human_count(row.mcts_memo_hits):>11}"
        )
    return "\n".join(lines)


# The order `repro profile --series` lists a run's series in.
_SERIES_ORDER = ("examples_per_second", "eval_quality", "epoch_seconds",
                 "allreduce_bytes")
_SPARK_LEVELS = " .:-=+*#%@"


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


def render_series_table(runs_by_benchmark: dict[str, list[RunResult]]) -> str:
    """The ``repro profile --series`` table: one row per (run, series).

    Each run's series are read back out of its log
    (:func:`~repro.telemetry.series_from_log_events`).
    """
    header = (
        f"{'Benchmark':<26}{'Seed':>5}  {'Series':<24}{'N':>4}"
        f"{'First':>11}{'Last':>11}{'Min':>11}{'Max':>11}  Trend"
    )
    lines = [header, "-" * len(header)]
    for benchmark, runs in sorted(runs_by_benchmark.items()):
        for run in runs:
            series = series_from_log_events(parse_log_lines(run.log_lines))
            for name in (n for n in _SERIES_ORDER if n in series):
                values = [value for _, _, value in series[name]]
                lines.append(
                    f"{benchmark:<26}{run.seed:>5}  {name:<24}{len(values):>4}"
                    f"{values[0]:>11.4g}{values[-1]:>11.4g}"
                    f"{min(values):>11.4g}{max(values):>11.4g}  {_sparkline(values)}"
                )
    if len(lines) == 2:
        return "(no per-run series recorded in these submissions)"
    return "\n".join(lines)


@dataclass(frozen=True)
class CampaignSummary:
    """What a campaign did, operationally: the execution engine's report card.

    ``speedup`` is the parallel-efficiency headline — the sum of every
    executed run's time-to-train over the campaign's wall-clock.  A
    sequential executor sits near 1.0 (TTT excludes untimed phases, so it
    can dip below); ``--jobs N`` should push it toward N.
    """

    benchmarks: tuple[str, ...]
    total_cells: int
    executed: int
    skipped_resumed: int
    reached: int
    quality_misses: int
    faults: int
    timeouts: int
    retries: int
    wall_clock_s: float
    total_ttt_s: float

    @property
    def speedup(self) -> float:
        return self.total_ttt_s / self.wall_clock_s if self.wall_clock_s > 0 else 0.0


def render_campaign_summary(
    summary: CampaignSummary,
    scores: dict[str, BenchmarkScore] | None = None,
    unscored: dict[str, str] | None = None,
) -> str:
    """The ``repro campaign`` closing report: job accounting plus scores."""
    lines = [
        f"campaign: {len(summary.benchmarks)} benchmark(s), "
        f"{summary.total_cells} (benchmark, seed) cells",
        f"  jobs: executed={summary.executed} resumed={summary.skipped_resumed} "
        f"reached={summary.reached} quality_miss={summary.quality_misses} "
        f"faults={summary.faults} timeouts={summary.timeouts} "
        f"retries={summary.retries}",
        f"  wall-clock {summary.wall_clock_s:.3f}s vs sum-of-TTT "
        f"{summary.total_ttt_s:.3f}s (speedup {summary.speedup:.2f}x)",
    ]
    if scores:
        lines.append("scores (olympic mean):")
        for benchmark, score in sorted(scores.items()):
            lines.append(
                f"  {benchmark:<26} ttt={score.time_to_train_s:>10.3f}s "
                f"runs={score.num_runs}"
            )
    for benchmark, reason in sorted((unscored or {}).items()):
        lines.append(f"  {benchmark:<26} UNSCORED: {reason}")
    return "\n".join(lines)


def build_report(submissions: list[Submission]) -> ResultsReport:
    """Score every submission's runs and assemble the results table.

    Run-count compliance is review's job (:mod:`repro.core.review`); here
    the olympic mean just needs enough runs to be defined.  A benchmark
    that cannot be scored raises one ``ValueError`` naming it.  Scale is
    reported alongside scores (§4.2.3): processor/accelerator counts
    always, cloud scale for cloud systems.
    """
    report = ResultsReport()
    for sub in submissions:
        scale = ScaleReport(
            num_processors=sub.system.total_processors,
            num_accelerators=sub.system.total_accelerators,
            cloud_scale=(
                system_cloud_scale(sub.system)
                if sub.system.system_type is SystemType.CLOUD
                else None
            ),
        )
        for benchmark, runs in sorted(sub.runs.items()):
            try:
                score: BenchmarkScore = score_runs(runs)
            except ValueError as exc:
                raise ValueError(f"cannot score {benchmark} of {sub.system.submitter}: "
                                 f"{exc}") from exc
            report.rows.append(
                ResultsRow(
                    submitter=sub.system.submitter,
                    system_name=sub.system.system_name,
                    division=sub.division.value,
                    category=sub.category.value,
                    benchmark=benchmark,
                    time_to_train_s=score.time_to_train_s,
                    num_runs=score.num_runs,
                    scale=scale,
                )
            )
    return report
