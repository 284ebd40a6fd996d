"""The MLPerf harness — the paper's primary contribution as code.

Structured logging (§4.1), timing rules (§3.2.1), run orchestration,
result aggregation (§3.2.2), hyperparameter rules and divisions (§4.2.1),
system categories (§4.2.2), submissions and peer review (§4.1), results
reporting and the cloud scale metric (§4.2.3-4).

A saved run has one reader: :func:`parse_log_lines` for its MLLOG lines
and :func:`~repro.core.artifacts.read_run_header` for its ``# repro-run``
header.  Review, reporting, ``repro trace``/``profile`` and the
loader all go through them.
"""

from .mllog import Keys, LogEvent, MLLogger, parse_log_lines
from .timing import (
    Clock,
    FakeClock,
    MODEL_CREATION_EXCLUSION_CAP_S,
    TimingBreakdown,
    TrainingTimer,
    WallClock,
)
from .runner import BenchmarkRunner, RunFailure, RunResult, RunTimeout
from .results import (
    BenchmarkScore,
    REQUIRED_RUNS_BY_AREA,
    olympic_mean,
    score_runs,
)
from .rules import ALWAYS_MODIFIABLE, RuleViolation, check_hyperparameters
from .submission import (
    Category,
    Division,
    Submission,
    SystemDescription,
    SystemType,
)
from .review import ReviewReport, borrow_hyperparameters, review_submission
from .reporting import (
    CampaignSummary,
    PhaseRow,
    ResultsReport,
    ResultsRow,
    SummaryScoreRefused,
    build_phase_table,
    build_report,
    render_campaign_summary,
    render_phase_table,
    render_series_table,
    summary_score,
)
from .rcp import ReferenceConvergencePoints, check_convergence, collect_reference_points
from .artifacts import (
    load_run_result,
    load_submission,
    review_directory,
    save_run_result,
    save_submission,
)
from .scaling import (
    ACCELERATOR_WEIGHTS,
    ScaleReport,
    cloud_scale,
    correlation_with_cost,
    system_cloud_scale,
)

__all__ = [
    "ReferenceConvergencePoints",
    "check_convergence",
    "collect_reference_points",
    "load_run_result",
    "load_submission",
    "review_directory",
    "save_run_result",
    "save_submission",
    "Keys",
    "LogEvent",
    "MLLogger",
    "parse_log_lines",
    "Clock",
    "FakeClock",
    "MODEL_CREATION_EXCLUSION_CAP_S",
    "TimingBreakdown",
    "TrainingTimer",
    "WallClock",
    "BenchmarkRunner",
    "RunFailure",
    "RunResult",
    "RunTimeout",
    "BenchmarkScore",
    "REQUIRED_RUNS_BY_AREA",
    "olympic_mean",
    "score_runs",
    "ALWAYS_MODIFIABLE",
    "RuleViolation",
    "check_hyperparameters",
    "Category",
    "Division",
    "Submission",
    "SystemDescription",
    "SystemType",
    "ReviewReport",
    "borrow_hyperparameters",
    "review_submission",
    "CampaignSummary",
    "PhaseRow",
    "ResultsReport",
    "ResultsRow",
    "SummaryScoreRefused",
    "build_phase_table",
    "build_report",
    "render_campaign_summary",
    "render_phase_table",
    "render_series_table",
    "summary_score",
    "ACCELERATOR_WEIGHTS",
    "ScaleReport",
    "cloud_scale",
    "correlation_with_cost",
    "system_cloud_scale",
]
