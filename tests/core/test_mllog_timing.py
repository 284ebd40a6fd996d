"""Structured logging and timing rules."""

import numpy as np
import pytest

from repro.core import (
    FakeClock,
    Keys,
    LogEvent,
    MLLogger,
    TrainingTimer,
    parse_log_lines,
)


class TestMLLogger:
    def test_events_timestamped_in_ms(self):
        clock = FakeClock()
        logger = MLLogger(clock)
        clock.advance(1.5)
        e = logger.event(Keys.RUN_START)
        assert e.time_ms == pytest.approx(1500.0)

    def test_roundtrip_through_text(self):
        clock = FakeClock()
        logger = MLLogger(clock)
        logger.event(Keys.SUBMISSION_BENCHMARK, "recommendation")
        logger.event(Keys.EVAL_ACCURACY, 0.61, epoch_num=3)
        lines = logger.to_lines()
        assert all(line.startswith(":::MLLOG ") for line in lines)
        parsed = MLLogger.from_lines(lines)
        assert parsed.events[0].value == "recommendation"
        assert parsed.events[1].metadata["epoch_num"] == 3
        assert parsed.events[1].value == pytest.approx(0.61)

    def test_hyperparameters_logged_sorted(self):
        logger = MLLogger(FakeClock())
        logger.hyperparameters({"b": 2, "a": (1, 2)})
        events = logger.find(Keys.HYPERPARAMETER)
        assert [e.metadata["name"] for e in events] == ["a", "b"]
        assert events[0].value == [1, 2]  # tuples scrubbed to lists

    def test_numpy_values_serializable(self):
        logger = MLLogger(FakeClock())
        logger.event(Keys.EVAL_ACCURACY, np.float64(0.5))
        assert "0.5" in logger.to_lines()[0]

    def test_find_first_last(self):
        clock = FakeClock()
        logger = MLLogger(clock)
        logger.event(Keys.EPOCH_START, 1)
        clock.advance(1)
        logger.event(Keys.EPOCH_START, 2)
        assert logger.first(Keys.EPOCH_START).value == 1
        assert logger.last(Keys.EPOCH_START).value == 2
        assert logger.first(Keys.RUN_STOP) is None

    def test_bad_line_rejected(self):
        with pytest.raises(ValueError):
            LogEvent.from_line("not a log line")

    def test_parse_log_lines_skips_noise(self):
        logger = MLLogger(FakeClock())
        logger.event(Keys.RUN_START)
        text = "random stderr\n" + logger.to_lines()[0] + "\nmore noise"
        events = parse_log_lines(text.splitlines())
        assert len(events) == 1
        assert events[0].key == Keys.RUN_START


class TestTrainingTimer:
    def make(self, cap=1.0):
        clock = FakeClock()
        return clock, TrainingTimer(clock, model_creation_cap_s=cap)

    def run_phases(self, clock, timer, init=5.0, creation=0.5, run=10.0):
        timer.init_start()
        clock.advance(init)
        timer.init_stop()
        timer.model_creation_start()
        clock.advance(creation)
        timer.model_creation_stop()
        timer.run_start()
        clock.advance(run)
        timer.run_stop()

    def test_init_excluded(self):
        clock, timer = self.make()
        self.run_phases(clock, timer, init=100.0, creation=0.1, run=7.0)
        assert timer.time_to_train() == pytest.approx(7.0)

    def test_model_creation_under_cap_excluded(self):
        clock, timer = self.make(cap=1.0)
        self.run_phases(clock, timer, creation=0.9, run=5.0)
        assert timer.time_to_train() == pytest.approx(5.0)

    def test_model_creation_overflow_counted(self):
        """§3.2.1: only up to the cap may be excluded."""
        clock, timer = self.make(cap=1.0)
        self.run_phases(clock, timer, creation=3.0, run=5.0)
        assert timer.time_to_train() == pytest.approx(5.0 + 2.0)

    def test_breakdown(self):
        clock, timer = self.make(cap=1.0)
        self.run_phases(clock, timer, init=2.0, creation=1.5, run=4.0)
        b = timer.breakdown()
        assert b.init_seconds == pytest.approx(2.0)
        assert b.model_creation_seconds == pytest.approx(1.5)
        assert b.excluded_model_creation_seconds == pytest.approx(1.0)
        assert b.run_seconds == pytest.approx(4.0)
        assert b.time_to_train_seconds == pytest.approx(4.5)

    def test_phase_order_enforced(self):
        _, timer = self.make()
        with pytest.raises(RuntimeError):
            timer.run_start()  # before init

    def test_double_init_rejected(self):
        _, timer = self.make()
        timer.init_start()
        with pytest.raises(RuntimeError):
            timer.init_start()

    def test_ttt_before_stop_rejected(self):
        clock, timer = self.make()
        timer.init_start()
        clock.advance(1)
        timer.init_stop()
        with pytest.raises(RuntimeError):
            timer.time_to_train()

    def test_fake_clock_rejects_reverse(self):
        clock = FakeClock()
        with pytest.raises(ValueError):
            clock.advance(-1)


class TestStreamingParse:
    """parse_log_lines: tolerant of exactly one truncated tail."""

    def _lines(self):
        clock = FakeClock()
        logger = MLLogger(clock)
        logger.event(Keys.RUN_START)
        clock.advance(1.0)
        logger.event(Keys.EVAL_ACCURACY, 0.5, epoch_num=1)
        return logger.to_lines()

    def test_matches_batch_parser_on_clean_input(self):
        lines = self._lines() + ["free-text launcher chatter", ""]
        assert parse_log_lines(lines) == [LogEvent.from_line(l) for l in self._lines()]

    def test_truncated_final_line_is_dropped(self):
        lines = self._lines()
        lines.append(lines[-1][: len(lines[-1]) // 2])  # killed mid-write
        events = parse_log_lines(lines)
        assert [e.key for e in events] == [Keys.RUN_START, Keys.EVAL_ACCURACY]

    def test_mid_stream_corruption_raises(self):
        lines = self._lines()
        lines.insert(1, ":::MLLOG {broken json")
        with pytest.raises(ValueError):
            parse_log_lines(lines)

    def test_iter_log_file(self, tmp_path):
        # An open file is an iterable of lines: the parser reads it as is.
        path = tmp_path / "run.log"
        lines = self._lines()
        path.write_text("\n".join(lines) + "\n" + lines[-1][:20])
        with open(path) as fh:
            events = parse_log_lines(fh)
        assert [e.key for e in events] == [Keys.RUN_START, Keys.EVAL_ACCURACY]
