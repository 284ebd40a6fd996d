"""Run orchestration: execute a benchmark under the timing rules with logging.

The runner drives one training session through the §3.2.1 phase structure,
emitting the §4.1 structured log, and stops the clock the moment an
evaluation meets the quality target.  A :class:`RunResult` carries
everything later stages (aggregation §3.2.2, review §4.1, reporting §4.2)
need — including the full :class:`~repro.core.timing.TimingBreakdown` and,
when a :class:`~repro.telemetry.Telemetry` session is attached, a metrics /
op-profile snapshot.  The log alone is the run's phase record: its Chrome
trace and per-epoch series are read back out of it.

A run that raises mid-training does not leave the timing state machine
stuck: the timer is aborted (closing every open interval at the failure
instant), a ``run_stop`` event with ``status="error"`` is logged, and the
exception is re-raised as :class:`RunFailure` carrying the partial
:class:`RunResult` (its log, breakdown, telemetry and error type), so a
failure is recorded, saved and read like any other run (and its trace
shows the phase it died in).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from ..suite.base import Benchmark
from ..telemetry import RunTelemetry, Telemetry
from .mllog import Keys, MLLogger
from .timing import Clock, TimingBreakdown, TrainingTimer, WallClock, \
    MODEL_CREATION_EXCLUSION_CAP_S

__all__ = ["RunResult", "RunFailure", "RunTimeout", "BenchmarkRunner"]


@dataclass
class RunResult:
    """Outcome of a single timed training run."""

    benchmark: str
    seed: int
    hyperparameters: dict[str, Any]
    reached_target: bool
    quality: float
    epochs: int
    time_to_train_s: float
    quality_history: list[float] = field(default_factory=list)
    log_lines: list[str] = field(default_factory=list)
    breakdown: TimingBreakdown | None = None
    telemetry: RunTelemetry | None = None
    # Trained parameters exported by the session (name -> ndarray), so the
    # artifact can rehydrate the model for serving; None when the session
    # has nothing to export.
    model_state: dict[str, Any] | None = None
    # The exception type of a run that raised: its partial record.
    error_type: str | None = None

    @property
    def epochs_to_target(self) -> int | None:
        return self.epochs if self.reached_target else None

    @property
    def status(self) -> str:
        """``reached`` or ``quality_miss``; ``timeout`` or ``fault`` if it raised."""
        if self.error_type is not None:
            return "timeout" if self.error_type == RunTimeout.__name__ else "fault"
        return "reached" if self.reached_target else "quality_miss"


class RunTimeout(RuntimeError):
    """A run exceeded its per-job deadline.

    Raised cooperatively from inside the epoch loop so it travels the
    normal failure path: the timer is aborted (every open interval closed
    at the timeout instant) and the run surfaces as a :class:`RunFailure`
    whose ``cause`` is this exception.  The campaign engine classifies it
    separately from other faults — a deterministic run that timed out once
    will time out again, so timeouts are terminal, not retried.
    """


class RunFailure(RuntimeError):
    """A training session raised mid-run; ``result`` is its partial record
    (the log up to the failure, the finalized timing, the telemetry
    snapshot, ``error_type``), so the failure is analyzed like a run."""

    def __init__(self, cause: BaseException, result: RunResult):
        super().__init__(
            f"run of {result.benchmark!r} (seed {result.seed}) failed: "
            f"{type(cause).__name__}: {cause}"
        )
        self.cause = cause
        self.result = result


class BenchmarkRunner:
    """Execute benchmark runs under the timing rules.

    Parameters
    ----------
    clock:
        Time source (real by default; fake in tests).
    eval_every:
        Evaluate the quality metric every N epochs ("quality metric
        evaluated at prescribed intervals", §4.1).
    telemetry:
        Default observability session for runs; disabled (no-op) when
        omitted.  Individual :meth:`run` calls may override it, e.g. to
        give each seeded run its own metrics registry.
    """

    def __init__(self, clock: Clock | None = None, eval_every: int = 1,
                 model_creation_cap_s: float = MODEL_CREATION_EXCLUSION_CAP_S,
                 telemetry: Telemetry | None = None):
        self.clock = clock or WallClock()
        self.eval_every = max(int(eval_every), 1)
        self.model_creation_cap_s = model_creation_cap_s
        self.telemetry = telemetry

    def run(
        self,
        benchmark: Benchmark,
        seed: int,
        hyperparameter_overrides: Mapping[str, Any] | None = None,
        max_epochs: int | None = None,
        telemetry: Telemetry | None = None,
        deadline_s: float | None = None,
    ) -> RunResult:
        """One full training session: data prep → init → train-to-target.

        ``deadline_s`` is a per-run wall-clock budget (measured on this
        runner's clock from the start of the call).  It is checked
        cooperatively at epoch boundaries: crossing it raises
        :class:`RunTimeout` through the normal failure path, so the timer
        is aborted cleanly and the partial record stays auditable.
        """
        spec = benchmark.spec
        hp = spec.resolve_hyperparameters(hyperparameter_overrides)
        logger = MLLogger(self.clock)
        timer = TrainingTimer(self.clock, self.model_creation_cap_s)
        tele = telemetry or self.telemetry or Telemetry.disabled()
        deadline = None if deadline_s is None else self.clock.now() + float(deadline_s)

        # Untimed data reformatting (idempotent; usually cached).
        benchmark.prepare_data()

        logger.event(Keys.SUBMISSION_BENCHMARK, spec.name)
        logger.event(Keys.QUALITY_TARGET, spec.quality_threshold)
        logger.event(Keys.SEED, seed)
        logger.hyperparameters(hp)

        run = RunResult(benchmark=spec.name, seed=seed, hyperparameters=dict(hp),
                        reached_target=False, quality=float("-inf"), epochs=0,
                        time_to_train_s=0.0)
        with tele.activate():
            try:
                self._execute(benchmark, spec, seed, hp, max_epochs, logger, timer,
                              tele, deadline, run)
            except Exception as exc:
                if timer.state not in ("stopped", "aborted"):
                    timer.abort()
                logger.event(Keys.RUN_STOP, status="error", error=type(exc).__name__)
                tele.events.publish("run_stop", benchmark=spec.name, seed=seed,
                                    status="error", error=type(exc).__name__)
                run.error_type = type(exc).__name__
                raise RunFailure(exc, self._finish(run, logger, timer, tele)) from exc
        return self._finish(run, logger, timer, tele)

    def _execute(self, benchmark, spec, seed, hp, max_epochs, logger, timer, tele,
                 deadline, run):
        """The §3.2.1 phase sequence, logged (§4.1) and published as events;
        ``run`` records the epochs and quality as they happen."""
        events = tele.events

        timer.init_start()
        logger.event(Keys.INIT_START)
        # System initialization would go here; untimed by rule.
        timer.init_stop()
        logger.event(Keys.INIT_STOP)

        timer.model_creation_start()
        logger.event(Keys.MODEL_CREATION_START)
        session = benchmark.create_session(seed, hp)
        timer.model_creation_stop()
        logger.event(Keys.MODEL_CREATION_STOP)

        timer.run_start()
        logger.event(Keys.RUN_START)
        events.publish("run_start", benchmark=spec.name, seed=seed,
                       target=spec.quality_threshold)

        cap = max_epochs if max_epochs is not None else spec.max_epochs
        samples_total = 0.0
        for epoch in range(1, cap + 1):
            if deadline is not None and self.clock.now() >= deadline:
                raise RunTimeout(
                    f"{spec.name} (seed {seed}) exceeded its per-job "
                    f"deadline after {run.epochs} epochs"
                )
            logger.event(Keys.EPOCH_START, epoch, epoch_num=epoch)
            epoch_t0 = self.clock.now()
            epoch_samples = session.run_epoch(epoch - 1) or 0
            epoch_dt = self.clock.now() - epoch_t0
            samples_total += epoch_samples
            logger.event(Keys.EPOCH_STOP, epoch, epoch_num=epoch)
            stats = {"epoch_seconds": epoch_dt}
            if epoch_samples:
                stats["samples"] = epoch_samples
            stats.update(session.tracked_stats())
            logger.event(Keys.TRACKED_STATS, stats, epoch_num=epoch)
            if epoch_dt > 0 and epoch_samples > 0:
                logger.event(Keys.THROUGHPUT, epoch_samples / epoch_dt,
                             epoch_num=epoch)
            events.publish("epoch", epoch=epoch,
                           epoch_seconds=epoch_dt,
                           samples=epoch_samples,
                           samples_total=samples_total)
            run.epochs = epoch
            if epoch % self.eval_every == 0 or epoch == cap:
                logger.event(Keys.EVAL_START, epoch_num=epoch)
                run.quality = float(session.evaluate())
                run.quality_history.append(run.quality)
                logger.event(
                    Keys.EVAL_ACCURACY, run.quality, epoch_num=epoch,
                    **session.eval_details()
                )
                logger.event(Keys.EVAL_STOP, epoch_num=epoch)
                events.publish("eval", epoch=epoch, quality=run.quality)
                if run.quality >= spec.quality_threshold:
                    run.reached_target = True
                    break
        run.model_state = session.export_state()

        timer.run_stop()
        status = "success" if run.reached_target else "aborted"
        logger.event(Keys.RUN_STOP, status=status)
        logger.event(Keys.TARGET_REACHED, run.reached_target)
        events.publish("run_stop", benchmark=spec.name, seed=seed, status=status,
                       epochs=run.epochs, quality=run.quality)

    def _finish(self, run: RunResult, logger: MLLogger, timer: TrainingTimer,
                tele: Telemetry) -> RunResult:
        """Stamp the stopped (or aborted) run's timing, log and telemetry."""
        run.time_to_train_s = timer.time_to_train()
        run.log_lines = logger.to_lines()
        run.breakdown = timer.breakdown()
        run.telemetry = self._snapshot(tele)
        return run

    @staticmethod
    def _snapshot(tele: Telemetry) -> RunTelemetry | None:
        if not tele.enabled:
            return None
        return RunTelemetry(
            metrics=tele.metrics.snapshot(),
            op_profile=tele.profiler.snapshot(),
        )
