"""Job execution: one worker function, two pools.

:func:`execute_job` is the single unit of work — build the benchmark,
run it under the timing rules with telemetry ``pid = ordinal``, classify
the outcome.  It is a module-level function over picklable dataclasses so
the exact same code runs in-process (:class:`SequentialExecutor`, the
deterministic default every test leans on) or in a worker process
(:class:`MultiprocessExecutor`).

When the job carries a ``stream_dir``, the worker also maintains the live
side of observability: every published event is appended to a per-job
JSONL stream, the job's only live record — the parent's monitor folds
progress, liveness and stalls out of it while the job runs.  Streams are
plain files, so they survive the worker being killed — at worst the event
log ends in one truncated line, which readers tolerate.

Both executors yield :class:`JobOutcome` objects **as jobs finish** so the
engine can journal after every completion; the multiprocess pool therefore
yields in completion order, not submission order.  Outcomes carry their
:class:`~repro.exec.plan.JobSpec`, so order never matters downstream.

Results are bit-identical across executors by construction: a run's
trajectory is a function of ``(benchmark, run_seed, hyperparameters)``
only — worker processes share nothing, and the parent merges their
telemetry snapshots after the fact.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from pathlib import Path

from ..core.runner import BenchmarkRunner, RunFailure, RunResult
from ..core.timing import Clock
from ..suite.base import Benchmark
from ..telemetry import EventLog, Telemetry
from .plan import JobSpec

__all__ = ["JobOutcome", "execute_job", "SequentialExecutor",
           "MultiprocessExecutor"]

BenchmarkFactory = Callable[[str], Benchmark]


@dataclass
class JobOutcome:
    """What one attempt of one cell produced (picklable, process-safe)."""

    job: JobSpec
    result: RunResult  # a faulted or timed-out attempt's: its partial run
    error: str | None = None  # "ExcType: message" for fault/timeout

    @property
    def status(self) -> str:
        """reached | quality_miss | fault | timeout"""
        return self.result.status

    @property
    def is_fault(self) -> bool:
        return self.status == "fault"


def execute_job(
    job: JobSpec,
    benchmark_factory: BenchmarkFactory | None = None,
    clock: Clock | None = None,
    events_clock=None,
) -> JobOutcome:
    """Run one job attempt and classify its outcome.

    The default factory resolves the benchmark from the suite registry —
    the only thing a spawned worker needs is the job spec.  Telemetry is
    always collected with ``pid = ordinal`` (the cell's position in the
    plan, not the reseeded attempt seed), which stamps the cell's events.
    ``events_clock`` defaults to epoch seconds — the only clock comparable
    across worker processes — and is injectable so stream files are
    deterministic under a fake clock.
    """
    if benchmark_factory is None:
        from ..suite import create_benchmark as benchmark_factory

    benchmark = benchmark_factory(job.benchmark)
    runner = BenchmarkRunner(clock=clock)
    telemetry = Telemetry(pid=job.ordinal, events_clock=events_clock)

    log: EventLog | None = None
    if job.stream_dir:
        log = EventLog(Path(job.stream_dir) / "events"
                       / f"{job.benchmark}_seed{job.seed}.jsonl")
        telemetry.events.subscribe(log.write)
        # First record of every per-job stream: who this stream belongs
        # to, so consumers never have to infer identity from file names.
        telemetry.events.publish(
            "job_start", benchmark=job.benchmark, seed=job.seed,
            attempt=job.attempt, campaign=job.campaign_id)

    try:
        try:
            result = runner.run(
                benchmark,
                seed=job.run_seed,
                hyperparameter_overrides=dict(job.overrides) or None,
                max_epochs=job.max_epochs,
                telemetry=telemetry,
                deadline_s=job.timeout_s,
            )
        except RunFailure as failure:
            return JobOutcome(job=job, result=failure.result,
                              error=f"{type(failure.cause).__name__}: {failure.cause}")
        return JobOutcome(job=job, result=result)
    finally:
        if log is not None:
            log.close()


class SequentialExecutor:
    """In-process, in-order execution — the deterministic fallback/default.

    Accepts an injectable benchmark factory and clock so tests can drive
    fake benchmarks on a fake clock; the multiprocess pool intentionally
    cannot (its workers must build everything from the picklable spec).
    """

    kind = "sequential"

    def __init__(self, benchmark_factory: BenchmarkFactory | None = None,
                 clock: Clock | None = None, events_clock=None):
        self.benchmark_factory = benchmark_factory
        self.clock = clock
        self.events_clock = events_clock

    def run(self, jobs: Iterable[JobSpec]) -> Iterator[JobOutcome]:
        for job in jobs:
            yield execute_job(job, self.benchmark_factory, self.clock,
                              self.events_clock)


class MultiprocessExecutor:
    """A ``multiprocessing``-based worker pool (spawned processes).

    ``spawn`` is used on every platform: workers import the package fresh,
    share no interpreter state with the parent, and therefore cannot leak
    RNG or telemetry state between jobs — the property the bit-identical
    guarantee rests on.
    """

    kind = "multiprocess"

    def __init__(self, max_workers: int, mp_context: str = "spawn"):
        if max_workers < 1:
            raise ValueError("need at least one worker")
        self.max_workers = max_workers
        self.mp_context = mp_context

    def run(self, jobs: Iterable[JobSpec]) -> Iterator[JobOutcome]:
        jobs = list(jobs)
        if not jobs:
            return
        ctx = multiprocessing.get_context(self.mp_context)
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(self.max_workers, len(jobs)), mp_context=ctx
        ) as pool:
            futures = [pool.submit(execute_job, job) for job in jobs]
            for future in concurrent.futures.as_completed(futures):
                yield future.result()
