"""Run orchestration: execute a benchmark under the timing rules with logging.

The runner drives one training session through the §3.2.1 phase structure,
emitting the §4.1 structured log, and stops the clock the moment an
evaluation meets the quality target.  A :class:`RunResult` carries
everything later stages (aggregation §3.2.2, review §4.1, reporting §4.2)
need — including the full :class:`~repro.core.timing.TimingBreakdown` and,
when a :class:`~repro.telemetry.Telemetry` session is attached, a trace /
metrics snapshot for per-phase profiling.

A run that raises mid-training does not leave the timing state machine
stuck: the timer is aborted (closing every open interval at the failure
instant), a ``run_stop`` event with ``status="error"`` is logged, and the
exception is re-raised as :class:`RunFailure` carrying the partial log so
failures stay auditable.
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

    @property
    def epochs_to_target(self) -> int | None:
        return self.epochs if self.reached_target else None


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
    """A training session raised mid-run; the partial observability record
    (log lines, finalized timing, telemetry snapshot) rides along so the
    failure can be analyzed exactly like a successful run."""

    def __init__(self, benchmark: str, seed: int, cause: BaseException,
                 log_lines: list[str], breakdown: TimingBreakdown | None = None,
                 telemetry: RunTelemetry | None = None):
        super().__init__(
            f"run of {benchmark!r} (seed {seed}) failed: "
            f"{type(cause).__name__}: {cause}"
        )
        self.benchmark = benchmark
        self.seed = seed
        self.cause = cause
        self.log_lines = log_lines
        self.breakdown = breakdown
        self.telemetry = telemetry

    def summary(self) -> str:
        """Multi-line human-readable failure report (cause + phase breakdown)."""
        lines = [
            f"run FAILED: benchmark={self.benchmark} seed={self.seed}",
            f"  cause: {type(self.cause).__name__}: {self.cause}",
        ]
        if self.breakdown is not None:
            b = self.breakdown
            lines.append(
                f"  phases: init={b.init_seconds:.3f}s "
                f"create={b.model_creation_seconds:.3f}s "
                f"run={b.run_seconds:.3f}s (aborted={b.aborted})"
            )
        return "\n".join(lines)


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
        give each seeded run its own tracer.
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

        with tele.activate():
            try:
                reached, quality, history, epochs_run, model_state = self._execute(
                    benchmark, spec, seed, hp, max_epochs, logger, timer, tele,
                    deadline,
                )
            except Exception as exc:
                if timer.state not in ("stopped", "aborted"):
                    timer.abort()
                logger.event(Keys.RUN_STOP, status="error", error=type(exc).__name__)
                tele.events.publish("run_stop", benchmark=spec.name, seed=seed,
                                    status="error", error=type(exc).__name__)
                # Flush the trace before snapshotting: open spans don't
                # export, so close anything the unwind didn't reach — a
                # failed run must still leave a loadable partial trace.
                tele.tracer.abort_open(error=type(exc).__name__)
                raise RunFailure(
                    spec.name, seed, exc,
                    log_lines=logger.to_lines(),
                    breakdown=timer.breakdown(),
                    telemetry=self._snapshot(tele),
                ) from exc

        return RunResult(
            benchmark=spec.name,
            seed=seed,
            hyperparameters=dict(hp),
            reached_target=reached,
            quality=quality,
            epochs=epochs_run,
            time_to_train_s=timer.time_to_train(),
            quality_history=history,
            log_lines=logger.to_lines(),
            breakdown=timer.breakdown(),
            telemetry=self._snapshot(tele),
            model_state=model_state,
        )

    def _execute(self, benchmark, spec, seed, hp, max_epochs, logger, timer, tele,
                 deadline=None):
        """The §3.2.1 phase sequence, instrumented with spans and metrics."""
        tracer = tele.tracer
        metrics = tele.metrics
        events = tele.events
        samples = metrics.counter("samples_seen")

        with tracer.span(f"run:{spec.name}", seed=seed):
            timer.init_start()
            logger.event(Keys.INIT_START)
            with tracer.span("init"):
                pass  # system initialization would go here; untimed by rule
            timer.init_stop()
            logger.event(Keys.INIT_STOP)

            timer.model_creation_start()
            logger.event(Keys.MODEL_CREATION_START)
            with tracer.span("model_creation"):
                session = benchmark.create_session(seed, hp)
            timer.model_creation_stop()
            logger.event(Keys.MODEL_CREATION_STOP)

            timer.run_start()
            logger.event(Keys.RUN_START)
            events.publish("run_start", benchmark=spec.name, seed=seed,
                           target=spec.quality_threshold)

            cap = max_epochs if max_epochs is not None else spec.max_epochs
            reached = False
            quality = float("-inf")
            history: list[float] = []
            epochs_run = 0
            for epoch in range(1, cap + 1):
                if deadline is not None and self.clock.now() >= deadline:
                    raise RunTimeout(
                        f"{spec.name} (seed {seed}) exceeded its per-job "
                        f"deadline after {epochs_run} epochs"
                    )
                logger.event(Keys.EPOCH_START, epoch, epoch_num=epoch)
                epoch_t0 = self.clock.now()
                samples_before = samples.value
                with tracer.span("epoch", epoch_num=epoch):
                    session.run_epoch(epoch - 1)
                epoch_dt = self.clock.now() - epoch_t0
                epoch_samples = samples.value - samples_before
                logger.event(Keys.EPOCH_STOP, epoch, epoch_num=epoch)
                metrics.histogram("epoch_seconds").observe(epoch_dt)
                metrics.counter("epochs").inc()
                stats = {"epoch_seconds": epoch_dt}
                if epoch_samples:
                    stats["samples"] = epoch_samples
                # The all-reduce counter exists only when the run trained
                # data parallel (dp_workers > 1).
                if "allreduce_bytes" in metrics:
                    stats["allreduce_bytes"] = metrics.counter("allreduce_bytes").value
                logger.event(Keys.TRACKED_STATS, stats, epoch_num=epoch)
                if epoch_dt > 0 and epoch_samples > 0:
                    eps = epoch_samples / epoch_dt
                    metrics.gauge("examples_per_second").set(eps)
                    logger.event(Keys.THROUGHPUT, eps, epoch_num=epoch)
                events.publish("epoch", epoch=epoch,
                               epoch_seconds=epoch_dt,
                               samples=epoch_samples,
                               samples_total=samples.value)
                epochs_run = epoch
                if epoch % self.eval_every == 0 or epoch == cap:
                    logger.event(Keys.EVAL_START, epoch_num=epoch)
                    eval_t0 = self.clock.now()
                    with tracer.span("eval", epoch_num=epoch):
                        quality = float(session.evaluate())
                    metrics.histogram("eval_seconds").observe(self.clock.now() - eval_t0)
                    history.append(quality)
                    logger.event(
                        Keys.EVAL_ACCURACY, quality, epoch_num=epoch,
                        **session.eval_details()
                    )
                    logger.event(Keys.EVAL_STOP, epoch_num=epoch)
                    events.publish("eval", epoch=epoch, quality=quality)
                    if quality >= spec.quality_threshold:
                        reached = True
                        break
            model_state = session.export_state()

            timer.run_stop()
            logger.event(Keys.RUN_STOP, status="success" if reached else "aborted")
            logger.event(Keys.TARGET_REACHED, reached)
            events.publish("run_stop", benchmark=spec.name, seed=seed,
                           status="success" if reached else "aborted",
                           epochs=epochs_run, quality=quality)
        return reached, quality, history, epochs_run, model_state

    @staticmethod
    def _snapshot(tele: Telemetry) -> RunTelemetry | None:
        if not tele.enabled:
            return None
        return RunTelemetry(
            trace_events=tele.tracer.chrome_events(),
            metrics=tele.metrics.snapshot(),
            op_profile=tele.profiler.snapshot(),
        )
