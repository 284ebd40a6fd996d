"""Runner-level observability: breakdown, abort, trace structure, log keys."""

import json

import numpy as np
import pytest

from repro.core import (
    BenchmarkRunner,
    FakeClock,
    Keys,
    MLLogger,
    RunFailure,
    TrainingTimer,
    parse_log_lines,
)
from repro.core.mllog import LogEvent
from repro.telemetry import Telemetry
from tests.core.fakes import FakeBenchmark, FakeSession


def run_with_telemetry(epoch_cost=1.0, seed=0):
    clock = FakeClock()
    bench = FakeBenchmark(clock=clock, epoch_cost_s=epoch_cost)
    tele = Telemetry(clock=clock, pid=seed)
    runner = BenchmarkRunner(clock=clock)
    result = runner.run(bench, seed=seed, telemetry=tele)
    return result, tele


class TestRunResultBreakdown:
    def test_breakdown_attached_and_consistent(self):
        """Regression: the breakdown must sum consistently with the score."""
        result, _ = run_with_telemetry(epoch_cost=2.0)
        b = result.breakdown
        assert b is not None and not b.aborted
        assert b.time_to_train_seconds == pytest.approx(result.time_to_train_s)
        overflow = b.model_creation_seconds - b.excluded_model_creation_seconds
        assert b.run_seconds + overflow == pytest.approx(result.time_to_train_s)

    def test_breakdown_present_without_telemetry(self):
        clock = FakeClock()
        runner = BenchmarkRunner(clock=clock)
        result = runner.run(FakeBenchmark(clock=clock, epoch_cost_s=1.0), seed=0)
        assert result.breakdown is not None
        assert result.telemetry is None  # telemetry only when a session is attached


class TestRunTrace:
    def test_nested_spans_for_every_phase(self):
        result, tele = run_with_telemetry()
        spans = tele.tracer.spans
        by_name = {}
        for s in spans:
            by_name.setdefault(s.name.split(":")[0], []).append(s)
        assert len(by_name["run"]) == 1
        assert len(by_name["init"]) == 1
        assert len(by_name["model_creation"]) == 1
        assert len(by_name["epoch"]) == result.epochs
        assert len(by_name["eval"]) == len(result.quality_history)
        assert len(by_name["train_step"]) == result.epochs  # from the session
        # Nesting: every epoch span lies inside the run span.
        (run_span,) = by_name["run"]
        for epoch_span in by_name["epoch"]:
            assert run_span.start_s <= epoch_span.start_s
            assert epoch_span.end_s <= run_span.end_s
            assert epoch_span.depth == run_span.depth + 1

    def test_trace_deterministic_under_fake_clock(self):
        _, a = run_with_telemetry(seed=3)
        _, b = run_with_telemetry(seed=3)
        assert a.tracer.chrome_events() == b.tracer.chrome_events()

    def test_chrome_snapshot_on_result(self):
        result, _ = run_with_telemetry()
        doc = result.telemetry.to_chrome_trace()
        json.dumps(doc)
        assert {e["name"] for e in doc["traceEvents"]} >= {"init", "model_creation",
                                                           "epoch", "eval"}

    def test_metrics_snapshot_on_result(self):
        result, _ = run_with_telemetry(epoch_cost=2.0)
        metrics = result.telemetry.metrics
        assert metrics["samples_seen"]["value"] == 32 * result.epochs
        assert metrics["epoch_seconds"]["count"] == result.epochs
        assert metrics["examples_per_second"]["value"] == pytest.approx(16.0)


class TestThroughputLogKeys:
    def test_tracked_stats_and_throughput_round_trip(self):
        result, _ = run_with_telemetry(epoch_cost=2.0)
        events = parse_log_lines(result.log_lines)
        tracked = [e for e in events if e.key == Keys.TRACKED_STATS]
        assert len(tracked) == result.epochs
        assert tracked[0].value == {"epoch_seconds": 2.0, "samples": 32}
        assert tracked[0].metadata["epoch_num"] == 1
        throughput = [e for e in events if e.key == Keys.THROUGHPUT]
        assert len(throughput) == result.epochs
        assert throughput[0].value == pytest.approx(16.0)

    def test_tracked_stats_without_samples_counter(self):
        # Telemetry disabled: the null counter never moves, but epoch
        # seconds still land in the log.
        clock = FakeClock()
        runner = BenchmarkRunner(clock=clock)
        result = runner.run(FakeBenchmark(clock=clock, epoch_cost_s=1.0), seed=0)
        events = parse_log_lines(result.log_lines)
        tracked = [e for e in events if e.key == Keys.TRACKED_STATS]
        assert tracked and tracked[0].value == {"epoch_seconds": 1.0}


class _ExplodingSession(FakeSession):
    def __init__(self, *args, fail_at_epoch=2, **kwargs):
        super().__init__(*args, **kwargs)
        self.fail_at_epoch = fail_at_epoch

    def run_epoch(self, epoch: int) -> None:
        if epoch + 1 == self.fail_at_epoch:
            raise ArithmeticError("loss is NaN")
        super().run_epoch(epoch)


class _ExplodingBenchmark(FakeBenchmark):
    def create_session(self, seed, hyperparameters):
        return _ExplodingSession(seed, hyperparameters, clock=self.clock,
                                 epoch_cost_s=self.epoch_cost_s)


class TestAbort:
    def test_timer_abort_finalizes_mid_run(self):
        clock = FakeClock()
        timer = TrainingTimer(clock)
        timer.init_start(); timer.init_stop()
        timer.model_creation_start(); timer.model_creation_stop()
        timer.run_start()
        clock.advance(3.0)
        timer.abort()
        assert timer.state == "aborted"
        assert timer.time_to_train() == pytest.approx(3.0)
        assert timer.breakdown().aborted

    def test_timer_abort_from_early_phase(self):
        clock = FakeClock()
        timer = TrainingTimer(clock)
        timer.init_start()
        clock.advance(1.0)
        timer.abort()
        b = timer.breakdown()
        assert b.aborted and b.init_seconds == pytest.approx(1.0)
        assert b.run_seconds == 0.0

    def test_abort_after_stop_rejected(self):
        clock = FakeClock()
        timer = TrainingTimer(clock)
        timer.init_start(); timer.init_stop()
        timer.model_creation_start(); timer.model_creation_stop()
        timer.run_start(); timer.run_stop()
        with pytest.raises(RuntimeError):
            timer.abort()
        with pytest.raises(RuntimeError):
            timer.abort()  # still rejected once aborted/stopped

    def test_runner_logs_error_run_stop(self):
        clock = FakeClock()
        bench = _ExplodingBenchmark(clock=clock, epoch_cost_s=1.0)
        runner = BenchmarkRunner(clock=clock)
        with pytest.raises(RunFailure) as excinfo:
            runner.run(bench, seed=0)
        failure = excinfo.value
        assert isinstance(failure.__cause__, ArithmeticError)
        log = MLLogger.from_lines(failure.log_lines)
        stop = log.last(Keys.RUN_STOP)
        assert stop is not None
        assert stop.metadata["status"] == "error"
        assert stop.metadata["error"] == "ArithmeticError"
        # Timing was finalized, not left stuck: one epoch ran before the blast.
        assert failure.breakdown.aborted
        assert failure.breakdown.time_to_train_seconds == pytest.approx(1.0)

    def test_failed_run_trace_spans_closed(self):
        clock = FakeClock()
        bench = _ExplodingBenchmark(clock=clock, epoch_cost_s=1.0)
        tele = Telemetry(clock=clock)
        runner = BenchmarkRunner(clock=clock)
        with pytest.raises(RunFailure) as excinfo:
            runner.run(bench, seed=0, telemetry=tele)
        assert tele.tracer.open_spans == []
        failed = [s for s in tele.tracer.spans if s.args.get("error")]
        assert failed  # the failing epoch span carries the error tag
        assert excinfo.value.telemetry is not None

    def test_failure_telemetry_is_a_loadable_partial_trace(self):
        # Satellite: the snapshot riding on RunFailure must already hold
        # the exported (closed) spans, so the CLI can write a trace file
        # without touching the live tracer again.
        clock = FakeClock()
        bench = _ExplodingBenchmark(clock=clock, epoch_cost_s=1.0)
        tele = Telemetry(clock=clock, profile="full")
        runner = BenchmarkRunner(clock=clock)
        with pytest.raises(RunFailure) as excinfo:
            runner.run(bench, seed=0, telemetry=tele)
        snap = excinfo.value.telemetry
        names = {e["name"] for e in snap.trace_events if e.get("ph") == "X"}
        assert "epoch" in names  # aborted spans exported anyway
        assert any(n.startswith("run:") for n in names)
        tagged = [e for e in snap.trace_events
                  if e.get("args", {}).get("error") == "ArithmeticError"]
        assert tagged  # the unwound spans carry the failure tag
        json.dumps(snap.trace_events)  # serializable as-is
        # The profiler snapshot flushed too (its op table is empty: the
        # fake session runs no kernel).
        assert snap.op_profile.get("mode") == "full"
        assert snap.op_profile.get("ops") == {}


class TestMLLogParsing:
    JUNK = [
        "launcher: starting up",
        "",
        '  :::MLLOG {"key": "seed", "value": 1, "time_ms": 0.5, "metadata": {}}',
        "Traceback (most recent call last):",
        ':::MLLOG {"key": "run_start", "value": null, "time_ms": 1.0, "metadata": {}}',
    ]

    def test_from_lines_skips_non_mllog_lines(self):
        log = MLLogger.from_lines(self.JUNK)
        assert [e.key for e in log.events] == ["seed", "run_start"]

    def test_parse_log_lines_matches_from_lines(self):
        assert ([e.key for e in parse_log_lines(self.JUNK)]
                == [e.key for e in MLLogger.from_lines(self.JUNK).events])

    def test_jsonify_numpy_array(self):
        event = LogEvent(key="tracked_stats", value=np.array([1.5, 2.5]),
                         time_ms=0.0, metadata={"shape": np.array([2])})
        parsed = LogEvent.from_line(event.to_line())
        assert parsed.value == [1.5, 2.5]
        assert parsed.metadata["shape"] == [2]

    def test_jsonify_numpy_scalar_still_works(self):
        event = LogEvent(key="eval_accuracy", value=np.float64(0.75), time_ms=0.0)
        assert LogEvent.from_line(event.to_line()).value == 0.75
