"""Per-run series: read back out of the log, and the stats table."""

from repro.core import BenchmarkRunner, FakeClock, Keys, RunResult, render_series_table
from repro.core.mllog import LogEvent, MLLogger, parse_log_lines
from repro.core.reporting import _sparkline
from repro.telemetry import Telemetry, series_from_log_events
from tests.core.fakes import FakeBenchmark


def _run(telemetry=None, allreduce_bytes=None):
    clock = FakeClock()
    runner = BenchmarkRunner(clock=clock)
    telemetry = telemetry(clock) if telemetry else None
    if allreduce_bytes is not None:
        # The comms layer creates this counter only in data-parallel runs.
        telemetry.metrics.counter("allreduce_bytes").inc(allreduce_bytes)
    return runner.run(FakeBenchmark(clock=clock, epoch_cost_s=2.0), seed=0,
                      telemetry=telemetry)


def _log_run(seed, events) -> RunResult:
    """A run whose log holds ``events``: (key, value, time_ms, epoch)."""
    log = MLLogger(clock=lambda: 0.0)
    log.events = [LogEvent(key, value, t, {"epoch_num": epoch})
                  for key, value, t, epoch in events]
    return RunResult(benchmark="fake", seed=seed, hyperparameters={},
                     reached_target=True, quality=1.0, epochs=1,
                     time_to_train_s=1.0, log_lines=log.to_lines())


class TestRunSeries:
    def test_series_come_from_the_log_events(self):
        run = _run(lambda clock: Telemetry(clock=clock, events_clock=clock.now))
        events = parse_log_lines(run.log_lines)
        series = series_from_log_events(events)
        assert sorted(series) == ["epoch_seconds", "eval_quality", "examples_per_second"]
        t0 = next(e.time_ms for e in events if e.key == Keys.RUN_START)
        tracked = [e for e in events if e.key == Keys.TRACKED_STATS]
        assert series["epoch_seconds"] == [
            [(e.time_ms - t0) / 1000.0, e.metadata["epoch_num"], e.value["epoch_seconds"]]
            for e in tracked]
        assert [v for _, _, v in series["eval_quality"]] == run.quality_history
        assert [v for _, _, v in series["examples_per_second"]] == [16.0] * run.epochs

    def test_allreduce_bytes_ride_in_tracked_stats(self):
        run = _run(lambda clock: Telemetry(clock=clock), allreduce_bytes=4096)
        series = series_from_log_events(parse_log_lines(run.log_lines))
        assert [(e, v) for _, e, v in series["allreduce_bytes"]] == [
            (epoch, 4096.0) for epoch in range(1, run.epochs + 1)]
        # No counter, no row: a single-process run carries no empty series.
        plain = _run(lambda clock: Telemetry(clock=clock))
        assert "allreduce_bytes" not in series_from_log_events(
            parse_log_lines(plain.log_lines))

    def test_disabled_telemetry_still_has_a_series(self):
        series = series_from_log_events(parse_log_lines(_run().log_lines))
        assert sorted(series) == ["epoch_seconds", "eval_quality"]

    def test_sparkline_shape(self):
        assert _sparkline([]) == ""
        flat = _sparkline([1.0, 1.0, 1.0])
        assert len(flat) == 3 and len(set(flat)) == 1
        rising = _sparkline([0.0, 0.5, 1.0])
        assert rising[0] == " " and rising[-1] == "@"
        assert len(_sparkline(list(range(100)))) == 16  # downsampled


class TestSeriesTable:
    def test_empty(self):
        assert "no per-run series" in render_series_table({})
        # Runs whose logs hold no per-epoch events contribute nothing.
        assert "no per-run series" in render_series_table(
            {"fake": [_log_run(0, [(Keys.RUN_START, None, 0.0, 0)])]})

    def test_table_rows_and_ordering(self):
        run = _log_run(3, [
            (Keys.RUN_START, None, 0.0, 0),
            (Keys.TRACKED_STATS, {"epoch_seconds": 1.0}, 1000.0, 1),
            (Keys.THROUGHPUT, 320.0, 1000.0, 1),
            (Keys.EVAL_ACCURACY, 0.4, 1100.0, 1),
            (Keys.TRACKED_STATS, {"epoch_seconds": 1.0}, 2100.0, 2),
            (Keys.EVAL_ACCURACY, 0.8, 2200.0, 2),
        ])
        table = render_series_table({"fake": [run]})
        lines = [line for line in table.splitlines() if line.startswith("fake")]
        # Throughput, quality, then epoch seconds, whatever the log's order.
        names = [line.split()[2] for line in lines]
        assert names == ["examples_per_second", "eval_quality", "epoch_seconds"]
        quality_row = lines[1]
        assert quality_row.split()[3:5] == ["2", "0.4"]
        assert "0.8" in quality_row
