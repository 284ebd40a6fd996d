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
from repro.telemetry import Telemetry, current_metrics, trace_from_log_events
from tests.core.fakes import FakeBenchmark, FakeSession


def run_with_telemetry(epoch_cost=1.0, seed=0):
    clock = FakeClock()
    bench = FakeBenchmark(clock=clock, epoch_cost_s=epoch_cost)
    tele = Telemetry(pid=seed)
    runner = BenchmarkRunner(clock=clock)
    result = runner.run(bench, seed=seed, telemetry=tele)
    return result, tele


class _CountingSession(FakeSession):
    """Counts one thing the log does not hold, as a go session counts searches."""

    def run_epoch(self, epoch: int) -> int:
        current_metrics().counter("mcts_searches").inc()
        return super().run_epoch(epoch)


class _CountingBenchmark(FakeBenchmark):
    def create_session(self, seed, hyperparameters):
        return _CountingSession(seed, hyperparameters, clock=self.clock,
                                epoch_cost_s=self.epoch_cost_s)


def counting_run(epoch_cost=1.0):
    """A run whose session feeds a counter; returns it and its ``epoch`` events."""
    clock = FakeClock()
    tele = Telemetry()
    epochs = []
    tele.events.subscribe(lambda e: e.name == "epoch" and epochs.append(e.args))
    result = BenchmarkRunner(clock=clock).run(
        _CountingBenchmark(clock=clock, epoch_cost_s=epoch_cost), seed=0,
        telemetry=tele)
    return result, epochs


def log_trace(log_lines):
    """The Chrome trace ``repro trace`` rebuilds from a run's log."""
    return trace_from_log_events(parse_log_lines(log_lines))["traceEvents"]


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
        result, _ = run_with_telemetry()
        by_name = {}
        for event in log_trace(result.log_lines):
            if event["ph"] == "X":
                by_name.setdefault(event["name"].split(" ")[0], []).append(event)
        assert len(by_name["run"]) == 1
        assert len(by_name["init"]) == 1
        assert len(by_name["model_creation"]) == 1
        assert len(by_name["epoch"]) == result.epochs
        assert len(by_name["eval"]) == len(result.quality_history)
        # Nesting by containment: every epoch lies inside the run.
        (run_span,) = by_name["run"]
        for epoch_span in by_name["epoch"]:
            assert run_span["ts"] <= epoch_span["ts"]
            assert (epoch_span["ts"] + epoch_span["dur"]
                    <= run_span["ts"] + run_span["dur"])

    def test_trace_deterministic_under_fake_clock(self):
        a, _ = run_with_telemetry(seed=3)
        b, _ = run_with_telemetry(seed=3)
        assert log_trace(a.log_lines) == log_trace(b.log_lines)

    def test_chrome_snapshot_on_result(self):
        # The result's log is its trace: the snapshot holds metrics and the
        # op profile only, the phases come from the log.
        result, _ = run_with_telemetry()
        events = log_trace(result.log_lines)
        json.dumps(events)
        assert {e["name"].split(" ")[0] for e in events} >= {
            "init", "model_creation", "run", "epoch", "eval"}
        assert set(vars(result.telemetry)) == {"metrics", "op_profile"}

    def test_metrics_snapshot_on_result(self):
        # The snapshot holds what the session counted; the samples the
        # runner counts are the log's and the epoch events' running total.
        result, epochs = counting_run(epoch_cost=2.0)
        assert result.telemetry.metrics == {
            "mcts_searches": {"type": "counter", "value": float(result.epochs)}}
        assert [e["samples_total"] for e in epochs] == [
            32.0 * n for n in range(1, result.epochs + 1)]


class TestCountersOnly:
    """Epoch time, eval time and throughput are the log's; the registry
    keeps only counts the log does not hold."""

    def test_enabled_run_snapshot_holds_only_counters(self):
        result, _ = counting_run()
        metrics = result.telemetry.metrics
        assert metrics and {inst["type"] for inst in metrics.values()} == {"counter"}
        assert not {"samples_seen", "epochs", "epoch_seconds", "eval_seconds",
                    "examples_per_second"} & set(metrics)


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
        # Telemetry disabled: its counters are no-ops, but the samples the
        # session reports still land in the log beside the epoch seconds.
        clock = FakeClock()
        runner = BenchmarkRunner(clock=clock)
        result = runner.run(FakeBenchmark(clock=clock, epoch_cost_s=1.0), seed=0)
        events = parse_log_lines(result.log_lines)
        tracked = [e for e in events if e.key == Keys.TRACKED_STATS]
        assert tracked and tracked[0].value == {"epoch_seconds": 1.0, "samples": 32}

    def test_log_does_not_depend_on_an_attached_session(self):
        """A library run writes the records a run with telemetry writes (§4.1)."""
        with_session, _ = run_with_telemetry(epoch_cost=2.0)
        clock = FakeClock()
        library = BenchmarkRunner(clock=clock).run(
            FakeBenchmark(clock=clock, epoch_cost_s=2.0), seed=0)
        assert library.log_lines == with_session.log_lines


class _ExplodingSession(FakeSession):
    def __init__(self, *args, fail_at_epoch=2, **kwargs):
        super().__init__(*args, **kwargs)
        self.fail_at_epoch = fail_at_epoch

    def run_epoch(self, epoch: int) -> None:
        if epoch + 1 == self.fail_at_epoch:
            raise ArithmeticError("loss is NaN")
        return super().run_epoch(epoch)


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
        tele = Telemetry()
        runner = BenchmarkRunner(clock=clock)
        with pytest.raises(RunFailure) as excinfo:
            runner.run(bench, seed=0, telemetry=tele)
        events = parse_log_lines(excinfo.value.log_lines)
        starts = [e for e in events if e.key.endswith("_start")]
        spans = [e for e in log_trace(excinfo.value.log_lines) if e["ph"] == "X"]
        assert len(spans) == len(starts)  # no phase left open
        failed = [e for e in spans if e["args"].get("error")]
        assert [e["name"] for e in failed] == ["epoch 2"]  # the epoch it died in
        assert excinfo.value.telemetry is not None

    def test_failure_telemetry_is_a_loadable_partial_trace(self):
        # The partial log riding on RunFailure is a loadable trace: every
        # phase the run entered, the in-flight epoch tagged with the error.
        clock = FakeClock()
        bench = _ExplodingBenchmark(clock=clock, epoch_cost_s=1.0)
        tele = Telemetry(profile="full")
        runner = BenchmarkRunner(clock=clock)
        with pytest.raises(RunFailure) as excinfo:
            runner.run(bench, seed=0, telemetry=tele)
        events = log_trace(excinfo.value.log_lines)
        names = {e["name"] for e in events if e.get("ph") == "X"}
        assert {"init", "model_creation", "run", "epoch 1", "eval 1", "epoch 2"} <= names
        tagged = [e for e in events
                  if e.get("args", {}).get("error") == "ArithmeticError"]
        assert [(e["name"], e["args"]["aborted"]) for e in tagged] == [("epoch 2", True)]
        json.dumps(events)  # serializable as-is
        # The profiler snapshot flushed too (its op table is empty: the
        # fake session runs no kernel).
        snap = excinfo.value.telemetry
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
