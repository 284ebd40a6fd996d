"""The campaign engine: plan → schedule → supervise → journal → score.

One call, :func:`run_campaign`, owns a campaign end to end:

1. **plan** — expand the :class:`~repro.exec.plan.CampaignSpec` into
   (benchmark, seed) cells with the §3.2.2 run counts;
2. **resume** — drop every cell the journal already holds a terminal
   result for;
3. **schedule** — dispatch the remainder to the executor in waves,
   journaling every attempt as it completes;
4. **supervise** — faulted cells re-enter the next wave (reseeded RNG
   stream, capped exponential backoff) until the retry cap; quality
   misses and timeouts are terminal;
5. **score** — benchmarks whose cells all reached target get the olympic
   mean over the runs the journal holds; everything is folded into a
   :class:`~repro.core.submission.Submission` plus a
   :class:`~repro.core.reporting.CampaignSummary`.

The journal is the one record of every attempt: scores, the submission
and the campaign's Chrome trace (:meth:`CampaignOutcome.chrome_trace`)
are read back out of it, so an executed cell and a resumed one take the
same path.  Scheduler decisions are counted once, in the
:class:`~repro.core.reporting.CampaignSummary` (and each cell's journal
record); per-run telemetry snapshots (metrics, op profiles) merge
parent-side.
"""

from __future__ import annotations

import time
import zlib
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Mapping

from ..core.mllog import parse_log_lines
from ..core.reporting import CampaignSummary
from ..core.results import BenchmarkScore, score_runs
from ..core.runner import RunResult
from ..core.submission import (
    Category,
    Division,
    Submission,
    SystemDescription,
    SystemType,
)
from ..telemetry import (
    EventBus,
    EventLog,
    RunTelemetry,
    merged_run_telemetry,
    metadata_events,
    trace_from_log_events,
)
from .journal import CampaignJournal, JobRecord
from .plan import CampaignPlan, CampaignSpec, plan_campaign
from .supervise import RetryPolicy
from .workers import JobOutcome, SequentialExecutor

__all__ = ["CampaignOutcome", "run_campaign", "default_system"]


def default_system(submitter: str) -> SystemDescription:
    """The single-host system description CLI campaigns run on."""
    return SystemDescription(
        submitter=submitter,
        system_name=f"{submitter}-system",
        system_type=SystemType.ON_PREMISE,
        num_nodes=1,
        processors_per_node=1,
        processor_type="host-cpu",
        accelerators_per_node=0,
        accelerator_type="none",
        host_memory_gb=8.0,
        interconnect="none",
    )


@dataclass
class CampaignOutcome:
    """Everything a finished (or resumed-and-finished) campaign produced."""

    plan: CampaignPlan
    journal: CampaignJournal
    summary: CampaignSummary
    scores: dict[str, BenchmarkScore] = field(default_factory=dict)
    unscored: dict[str, str] = field(default_factory=dict)
    runs_by_benchmark: dict[str, list[RunResult]] = field(default_factory=dict)
    submission: Submission | None = None
    telemetry: RunTelemetry | None = None

    @property
    def ok(self) -> bool:
        """True when every planned cell reached the quality target."""
        records = self.journal.jobs
        return all(
            (rec := records.get(f"{b}/{s}")) is not None and rec.status == "reached"
            for (b, s) in self.plan.cells
        )

    def chrome_trace(self) -> dict[str, Any]:
        """One Chrome trace of the campaign, rebuilt from the log of every
        attempt the journal records.

        Each cell is one process row (``pid`` = its plan ordinal) labelled
        ``benchmark/seed``; a retried cell shows every attempt on its row,
        a faulted attempt up to the phase it died in.
        """
        events: list[dict[str, Any]] = []
        for job in self.plan.jobs:
            rows = [event for run in self.journal.attempts(*job.cell)
                    for event in trace_from_log_events(
                        parse_log_lines(run.log_lines), pid=job.ordinal)["traceEvents"]]
            if rows:
                events += metadata_events(job.ordinal, job.key) + rows
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def bench_payload(self) -> dict[str, Any]:
        """The ``BENCH_campaign.json`` record: the perf trajectory datapoint."""
        return {
            "schema": "repro-campaign-bench/1",
            "benchmarks": list(self.summary.benchmarks),
            "total_cells": self.summary.total_cells,
            "executed": self.summary.executed,
            "skipped_resumed": self.summary.skipped_resumed,
            "retries": self.summary.retries,
            "faults": self.summary.faults,
            "timeouts": self.summary.timeouts,
            "quality_misses": self.summary.quality_misses,
            "wall_clock_s": self.summary.wall_clock_s,
            "total_ttt_s": self.summary.total_ttt_s,
            "speedup": self.summary.speedup,
            "scores": {name: score.time_to_train_s for name, score in self.scores.items()},
            "epochs": {name: dict(sorted(Counter(
                rec.epochs for rec in self.journal.jobs.values()
                if rec.benchmark == name and rec.epochs is not None).items()))
                for name in self.summary.benchmarks},
            "jobs": {
                key: {
                    "status": rec.status,
                    "attempts": rec.attempts,
                    "time_to_train_s": rec.time_to_train_s,
                    "epochs": rec.epochs,
                    "quality": rec.quality,
                }
                for key, rec in sorted(self.journal.jobs.items())
            },
        }


def run_campaign(
    spec: CampaignSpec,
    *,
    executor=None,
    journal_dir=None,
    resume: bool = False,
    policy: RetryPolicy | None = None,
    sleeper: Callable[[float], None] = time.sleep,
    wall_clock: Callable[[], float] = time.perf_counter,
    benchmark_specs: Mapping[str, Any] | None = None,
    system: SystemDescription | None = None,
    event_clock: Callable[[], float] = time.time,
) -> CampaignOutcome:
    """Execute a campaign; see the module docstring for the pipeline.

    ``executor`` defaults to the in-process :class:`SequentialExecutor`;
    ``benchmark_specs`` defaults to the suite registry's specs.  Both are
    injectable together so tests can drive fake benchmarks on fake clocks.
    ``sleeper`` receives every backoff delay (inject a recorder to make
    retry pacing assertable without real sleeps).

    When the journal has a directory, the engine maintains the live
    observability streams: its own lifecycle events append to
    ``<dir>/events/campaign.jsonl`` and every dispatched job carries
    ``stream_dir`` so workers write per-job event streams there —
    the sole inputs of ``repro monitor``.  ``event_clock`` stamps those
    records (epoch seconds by default, a fake clock in tests).
    """
    if benchmark_specs is None:
        from ..suite import REGISTRY, create_benchmark

        benchmark_specs = {name: create_benchmark(name).spec
                           for name in REGISTRY if name in spec.benchmarks}
    executor = executor or SequentialExecutor()
    policy = policy or RetryPolicy()
    started = wall_clock()

    plan = plan_campaign(spec, benchmark_specs)
    # Campaign identity for observability consumers: the journal directory
    # name when on disk (what the monitor/server address it by), else a
    # stable digest of the spec so in-memory campaigns still have one.
    if journal_dir is not None:
        campaign_id = Path(journal_dir).name or "campaign"
    else:
        campaign_id = "mem-%08x" % zlib.crc32(repr((
            spec.benchmarks, spec.seeds,
            tuple(sorted((spec.overrides or {}).items())),
            spec.max_epochs, spec.timeout_s)).encode())
    campaign_meta = {
        "campaign_id": campaign_id,
        "benchmarks": list(spec.benchmarks),
        "seeds": spec.seeds,
        "overrides": dict(spec.overrides or {}),
        "max_epochs": spec.max_epochs,
        "timeout_s": spec.timeout_s,
        "executor": getattr(executor, "kind", type(executor).__name__),
        "retry_policy": {
            "max_retries": policy.max_retries,
            "backoff_base_s": policy.backoff_base_s,
            "backoff_cap_s": policy.backoff_cap_s,
        },
        # The full plan, so the monitor knows about cells that have not
        # produced a journal record or an event yet (still "pending").
        "planned_cells": [[job.benchmark, job.seed] for job in plan.jobs],
    }
    if resume:
        if journal_dir is None:
            raise ValueError("resume requires a journal directory")
        journal = CampaignJournal.load(journal_dir)
        journal.campaign = campaign_meta
    else:
        journal = CampaignJournal(journal_dir, campaign=campaign_meta)
    # Persist the metadata (incl. planned_cells) before any job runs, so a
    # campaign killed mid-wave still shows its unstarted cells as pending.
    journal.flush()

    # -- resume: skip terminal cells whose run is on disk, schedule the rest --
    done = journal.completed_cells() if resume else set()
    wave = [job for job in plan.jobs
            if job.cell not in done or journal.load_result(*job.cell) is None]
    resumed_cells = len(plan.jobs) - len(wave)

    # -- live streams: campaign event log + per-job stream directories -------
    events = EventBus(clock=event_clock)
    campaign_log: EventLog | None = None
    if journal.directory is not None:
        campaign_log = EventLog(journal.directory / "events" / "campaign.jsonl")
        events.subscribe(campaign_log.write)
    events.publish("campaign_start",
                   campaign=campaign_id,
                   benchmarks=list(spec.benchmarks),
                   planned_cells=len(plan.jobs),
                   resumed_cells=resumed_cells)

    # -- schedule + supervise, journaling after every completion -------------
    executed = retries = reached = quality_misses = faults = timeouts = 0
    total_ttt = 0.0
    backoffs_by_cell: dict[tuple[str, int], list[float]] = {}
    outcome_telemetry: list[RunTelemetry | None] = []
    wave = [replace(job, campaign_id=campaign_id,
                    stream_dir=(str(journal.directory)
                                if journal.directory is not None
                                else job.stream_dir))
            for job in wave]
    while wave:
        next_wave: list = []
        wave_delays: list[float] = []
        for outcome in executor.run(wave):
            executed += 1
            outcome_telemetry.append(outcome.result.telemetry)
            record = _record_for(outcome, backoffs_by_cell)
            will_retry = policy.should_retry(outcome)
            if outcome.status == "reached":
                reached += 1
            elif outcome.status == "quality_miss":
                quality_misses += 1
            elif outcome.status == "timeout":
                timeouts += 1
            elif will_retry:
                retries += 1
                retry_job = outcome.job.retry()
                delay = policy.delay_s(retry_job.attempt)
                backoffs_by_cell.setdefault(outcome.job.cell, []).append(delay)
                record.backoffs_s = list(backoffs_by_cell[outcome.job.cell])
                next_wave.append(retry_job)
                wave_delays.append(delay)
            else:
                faults += 1
            journal.record(record, outcome.result)
            events.publish("job_finished",
                           campaign=campaign_id,
                           benchmark=outcome.job.benchmark,
                           seed=outcome.job.seed,
                           status=outcome.status,
                           attempt=outcome.job.attempt,
                           will_retry=will_retry and outcome.is_fault)
            if record.done:
                total_ttt += outcome.result.time_to_train_s
        if wave_delays:
            # One parallel backoff pause per wave: every retry in it has
            # waited at least its own delay.
            pause = max(wave_delays)
            events.publish("wave_backoff", pause_s=pause, retries=len(next_wave))
            sleeper(pause)
        wave = next_wave

    # -- aggregate: runs (from the journal), scores, submission, summary -----
    runs_by_benchmark = {
        benchmark: [run for seed in plan.seeds_for(benchmark)
                    if (run := journal.load_result(benchmark, seed)) is not None]
        for benchmark in spec.benchmarks
    }

    scores: dict[str, BenchmarkScore] = {}
    unscored: dict[str, str] = {}
    submission = Submission(
        system or default_system("campaign"), Division.CLOSED, Category.RESEARCH
    )
    for benchmark in spec.benchmarks:
        planned = plan.seeds_for(benchmark)
        runs = runs_by_benchmark[benchmark]
        converged = [r for r in runs if r.reached_target]
        if converged:
            submission.add_runs(benchmark, converged)
        missing = len(planned) - len(runs)
        missed = len(runs) - len(converged)
        if missing:
            unscored[benchmark] = f"{missing} cell(s) failed without a result"
        elif missed:
            unscored[benchmark] = f"{missed} run(s) missed the quality target"
        elif len(converged) < 3:
            unscored[benchmark] = (
                f"olympic mean needs >= 3 runs, have {len(converged)}"
            )
        else:
            scores[benchmark] = score_runs(converged)

    # ``total_ttt`` accumulated only over runs executed *this* invocation,
    # so the speedup compares wall-clock against work actually paid for
    # (resumed cells cost nothing now).
    summary = CampaignSummary(
        benchmarks=tuple(spec.benchmarks),
        total_cells=len(plan.jobs),
        executed=executed,
        skipped_resumed=resumed_cells,
        reached=reached,
        quality_misses=quality_misses,
        faults=faults,
        timeouts=timeouts,
        retries=retries,
        wall_clock_s=wall_clock() - started,
        total_ttt_s=total_ttt,
    )

    events.publish("campaign_stop",
                   executed=executed, reached=reached, faults=faults,
                   timeouts=timeouts, quality_misses=quality_misses,
                   retries=retries, wall_clock_s=summary.wall_clock_s)
    if campaign_log is not None:
        campaign_log.close()

    return CampaignOutcome(
        plan=plan,
        journal=journal,
        summary=summary,
        scores=scores,
        unscored=unscored,
        runs_by_benchmark=runs_by_benchmark,
        submission=submission if submission.runs else None,
        telemetry=merged_run_telemetry(outcome_telemetry),
    )


def _record_for(outcome: JobOutcome,
                backoffs_by_cell: dict[tuple[str, int], list[float]]) -> JobRecord:
    job = outcome.job
    result = outcome.result if outcome.error is None else None
    return JobRecord(
        benchmark=job.benchmark,
        seed=job.seed,
        status=outcome.status,
        attempts=job.attempt + 1,
        run_seed=job.run_seed,
        quality=None if result is None else result.quality,
        epochs=None if result is None else result.epochs,
        time_to_train_s=None if result is None else result.time_to_train_s,
        error=outcome.error,
        backoffs_s=list(backoffs_by_cell.get(job.cell, [])),
    )
