"""Peer review: compliance checking and hyperparameter borrowing (§4.1).

"Prior to result publication submissions are peer reviewed for compliance
with MLPERF rules. Compliance issues, if any, are brought up with
submitters and resubmission after addressing them is allowed.
Additionally, some hyper-parameter borrowing is allowed during the review
period."

The checker works from the submission's artifacts alone (logs + metadata),
the way real review does: every rule below is validated against the
structured log lines, not against in-memory Python state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..suite.base import BenchmarkSpec
from .mllog import Keys, MLLogger
from .results import REQUIRED_RUNS_BY_AREA
from .rules import RuleViolation, check_hyperparameters
from .runner import RunResult
from .submission import Division, Submission

__all__ = ["ReviewReport", "review_submission", "borrow_hyperparameters"]


@dataclass
class ReviewReport:
    """Outcome of compliance review for one submission."""

    submitter: str
    division: Division
    violations: list[RuleViolation] = field(default_factory=list)

    @property
    def compliant(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        status = "COMPLIANT" if self.compliant else "NON-COMPLIANT"
        lines = [f"{self.submitter} [{self.division.value}]: {status}"]
        lines.extend(f"  - {v}" for v in self.violations)
        return "\n".join(lines)


def _check_log_structure(spec: BenchmarkSpec, run: RunResult) -> list[RuleViolation]:
    """Validate one run's log against the §3.2.1/§4.1 requirements."""
    violations: list[RuleViolation] = []
    log = MLLogger.from_lines(run.log_lines)

    required_keys = [
        Keys.SUBMISSION_BENCHMARK, Keys.QUALITY_TARGET, Keys.SEED,
        Keys.INIT_START, Keys.INIT_STOP, Keys.RUN_START, Keys.RUN_STOP,
    ]
    for key in required_keys:
        if log.first(key) is None:
            violations.append(RuleViolation(spec.name, "missing_log_event", f"no {key} event"))
    bench_event = log.first(Keys.SUBMISSION_BENCHMARK)
    if bench_event is not None and bench_event.value != spec.name:
        violations.append(
            RuleViolation(spec.name, "benchmark_mismatch",
                          f"log claims benchmark {bench_event.value!r}")
        )
    target_event = log.first(Keys.QUALITY_TARGET)
    if target_event is not None and float(target_event.value) != spec.quality_threshold:
        violations.append(
            RuleViolation(spec.name, "quality_target_mismatch",
                          f"log target {target_event.value} != rule target "
                          f"{spec.quality_threshold}")
        )

    # Ordering: run_start after init_stop; run_stop last; time never runs back.
    run_start = log.first(Keys.RUN_START)
    init_stop = log.first(Keys.INIT_STOP)
    run_stop = log.last(Keys.RUN_STOP)
    if run_start and init_stop and run_start.time_ms < init_stop.time_ms:
        violations.append(
            RuleViolation(spec.name, "timing_order", "run_start precedes init_stop")
        )
    if run_start and run_stop and run_stop.time_ms < run_start.time_ms:
        violations.append(
            RuleViolation(spec.name, "timing_order", "run_stop precedes run_start")
        )
    times = [e.time_ms for e in log.events]
    if any(b < a for a, b in zip(times, times[1:])):
        violations.append(
            RuleViolation(spec.name, "timing_order", "event timestamps decrease")
        )

    # Quality: the last eval must meet the target for a scored run.
    evals = log.find(Keys.EVAL_ACCURACY)
    if not evals:
        violations.append(
            RuleViolation(spec.name, "missing_evals", "no eval_accuracy events in log")
        )
    elif float(evals[-1].value) < spec.quality_threshold:
        violations.append(
            RuleViolation(
                spec.name, "quality_not_reached",
                f"final quality {evals[-1].value:.4f} < target {spec.quality_threshold}",
            )
        )

    # Timing integrity: the claimed time-to-train must be consistent with
    # the log's own run_start/run_stop timestamps (a claimed time *below*
    # what the log supports means the submitter under-reported; small
    # excesses are legitimate — model-creation overflow is added on top).
    if run_start and run_stop:
        log_run_seconds = (run_stop.time_ms - run_start.time_ms) / 1000.0
        # Tolerance covers millisecond timestamp rounding and the skew
        # between timer marks and their log events.
        slack = 1e-3 + 0.01 * log_run_seconds
        if run.time_to_train_s < log_run_seconds - slack:
            violations.append(
                RuleViolation(
                    spec.name, "timing_integrity",
                    f"claimed TTT {run.time_to_train_s:.3f}s is less than the "
                    f"log-derived run duration {log_run_seconds:.3f}s",
                )
            )
    return violations


def review_submission(
    submission: Submission,
    specs: dict[str, BenchmarkSpec],
) -> ReviewReport:
    """Full compliance review of a submission against the rules."""
    report = ReviewReport(submitter=submission.system.submitter, division=submission.division)

    for issue in submission.validate_category():
        report.violations.append(RuleViolation("*", "category", issue))

    for name, runs in submission.runs.items():
        spec = specs.get(name)
        if spec is None:
            report.violations.append(
                RuleViolation(name, "unknown_benchmark", "not in the benchmark suite")
            )
            continue

        # §3.2.2 run-count rule.
        required = REQUIRED_RUNS_BY_AREA.get(spec.area, spec.required_runs)
        if len(runs) != required:
            report.violations.append(
                RuleViolation(name, "run_count",
                              f"{len(runs)} runs submitted; {required} required")
            )

        # §2.2.3: runs must differ only in seed — identical HPs, distinct seeds.
        seeds = [r.seed for r in runs]
        if len(set(seeds)) != len(seeds):
            report.violations.append(
                RuleViolation(name, "duplicate_seeds", f"seeds reused: {sorted(seeds)}")
            )
        hp_sets = {tuple(sorted((k, str(v)) for k, v in r.hyperparameters.items())) for r in runs}
        if len(hp_sets) > 1:
            report.violations.append(
                RuleViolation(name, "inconsistent_hyperparameters",
                              "runs of one benchmark must share hyperparameters")
            )

        for run in runs:
            report.violations.extend(
                check_hyperparameters(spec, run.hyperparameters, submission.division)
            )
            report.violations.extend(_check_log_structure(spec, run))
    return report


def borrow_hyperparameters(
    borrower: dict, lender: dict, spec: BenchmarkSpec
) -> dict:
    """Hyperparameter borrowing during review (§4.1).

    "if a submission uses hyper-parameters that would also benefit other
    submissions, we want to ensure that those systems have an opportunity
    to adopt those hyper-parameters."

    The borrower adopts the lender's values for every *modifiable*
    hyperparameter; fixed hyperparameters keep the borrower's values (they
    must equal the reference anyway in the Closed division).
    """
    adopted = dict(borrower)
    for name in spec.modifiable_hyperparameters | {"batch_size"}:
        if name in lender:
            adopted[name] = lender[name]
    return adopted
