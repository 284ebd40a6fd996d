"""The campaign engine: supervision, resume, scoring — on fakes, no real time.

Every test drives the in-process sequential executor with an injectable
benchmark factory, a FakeClock, and a recording sleeper, so retry pacing
and wall-clock accounting are assertable exactly.
"""

import shutil
from collections import Counter
from pathlib import Path

import pytest

from repro.core.artifacts import load_run_result

from repro.core.timing import FakeClock
from repro.exec import (
    CampaignSpec,
    RESEED_STRIDE,
    RetryPolicy,
    SequentialExecutor,
    run_campaign,
)
from repro.telemetry import current_metrics

from ..core.fakes import FAKE_SPEC, FakeBenchmark, FakeSession

SPECS = {"fake_benchmark": FAKE_SPEC}
# A campaign directory written before faulted attempts left files: cell 0
# faulted once and then reached its target, cell 1 reached it, cell 2
# faulted on both attempts.  Only the two finished runs have files.
PARENT_LAYOUT = Path(__file__).parent / "data" / "parent_layout"


class FlakyBenchmark(FakeBenchmark):
    """Raises on the first ``failures`` session creations, then behaves."""

    def __init__(self, failures, clock=None, epoch_cost_s=1.0):
        super().__init__(clock=clock, epoch_cost_s=epoch_cost_s)
        self.failures = failures
        self.calls = 0

    def create_session(self, seed, hyperparameters):
        self.calls += 1
        if self.calls <= self.failures:
            raise ValueError(f"injected fault #{self.calls}")
        return super().create_session(seed, hyperparameters)


class _SearchingSession(FakeSession):
    def run_epoch(self, epoch):
        current_metrics().counter("mcts_searches").inc()
        return super().run_epoch(epoch)


class SearchingBenchmark(FakeBenchmark):
    """Each epoch bumps the ``mcts_searches`` counter, as self-play does."""

    def create_session(self, seed, hyperparameters):
        return _SearchingSession(seed, hyperparameters, clock=self.clock,
                                 epoch_cost_s=self.epoch_cost_s)


class KillSwitchBenchmark(FakeBenchmark):
    """Simulates the process dying mid-campaign (kill -9, not a RunFailure)."""

    def __init__(self, kill_on_session, clock=None, epoch_cost_s=1.0):
        super().__init__(clock=clock, epoch_cost_s=epoch_cost_s)
        self.kill_on_session = kill_on_session
        self.sessions = 0

    def create_session(self, seed, hyperparameters):
        self.sessions += 1
        if self.sessions == self.kill_on_session:
            raise KeyboardInterrupt("campaign killed mid-flight")
        return super().create_session(seed, hyperparameters)


def _campaign(benchmark, spec, *, policy=None, journal_dir=None, resume=False,
              sleeps=None):
    clock = benchmark.clock
    return run_campaign(
        spec,
        executor=SequentialExecutor(benchmark_factory=lambda name: benchmark,
                                    clock=clock),
        benchmark_specs=SPECS,
        policy=policy or RetryPolicy(),
        journal_dir=journal_dir,
        resume=resume,
        sleeper=(sleeps.append if sleeps is not None else (lambda s: None)),
        wall_clock=clock.now,
    )


class TestRetryPolicy:
    def test_capped_exponential_backoff(self):
        policy = RetryPolicy(max_retries=8, backoff_base_s=0.05, backoff_cap_s=2.0)
        delays = [policy.delay_s(a) for a in range(1, 9)]
        assert delays == [0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 2.0, 2.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base_s=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy().delay_s(0)


class TestSupervision:
    def test_fault_retried_with_backoff_and_reseeded_stream(self):
        sleeps = []
        bench = FakeBenchmark(clock=FakeClock())
        flaky = FlakyBenchmark(failures=2, clock=bench.clock)
        out = _campaign(flaky, CampaignSpec(benchmarks=("fake_benchmark",), seeds=1),
                        policy=RetryPolicy(max_retries=3), sleeps=sleeps)
        assert out.ok
        assert out.summary.executed == 3          # 1 cell, 3 attempts
        assert out.summary.retries == 2
        assert out.summary.faults == 0            # recovered, not terminal
        assert sleeps == [0.05, 0.1]              # capped exponential backoff
        record = out.journal.jobs["fake_benchmark/0"]
        assert record.status == "reached"
        assert record.attempts == 3
        assert record.run_seed == 0 + 2 * RESEED_STRIDE  # reseeded RNG stream
        assert record.backoffs_s == [0.05, 0.1]

    def test_retries_exhausted_is_a_terminal_fault(self):
        sleeps = []
        flaky = FlakyBenchmark(failures=10, clock=FakeClock())
        out = _campaign(flaky, CampaignSpec(benchmarks=("fake_benchmark",), seeds=1),
                        policy=RetryPolicy(max_retries=2), sleeps=sleeps)
        assert not out.ok
        assert out.summary.executed == 3          # initial + 2 retries
        assert out.summary.retries == 2
        assert out.summary.faults == 1
        record = out.journal.jobs["fake_benchmark/0"]
        assert record.status == "fault"
        assert "injected fault #3" in record.error
        assert out.unscored == {
            "fake_benchmark": "1 cell(s) failed without a result"}

    def test_quality_miss_is_never_retried(self):
        sleeps = []
        bench = FakeBenchmark(clock=FakeClock())
        out = _campaign(
            bench,
            CampaignSpec(benchmarks=("fake_benchmark",), seeds=1,
                         overrides={"learning_speed": 0.0}, max_epochs=4),
            policy=RetryPolicy(max_retries=5), sleeps=sleeps,
        )
        assert not out.ok
        assert out.summary.executed == 1          # one attempt, no retries
        assert out.summary.retries == 0
        assert out.summary.quality_misses == 1
        assert sleeps == []
        record = out.journal.jobs["fake_benchmark/0"]
        assert record.status == "quality_miss"
        assert record.attempts == 1
        assert "missed the quality target" in out.unscored["fake_benchmark"]

    def test_timeout_aborts_cleanly_and_is_not_retried(self):
        sleeps = []
        bench = FakeBenchmark(clock=FakeClock(), epoch_cost_s=1.0)
        out = _campaign(
            bench,
            CampaignSpec(benchmarks=("fake_benchmark",), seeds=1,
                         overrides={"learning_speed": 0.0}, timeout_s=3.5),
            policy=RetryPolicy(max_retries=5), sleeps=sleeps,
        )
        assert out.summary.timeouts == 1
        assert out.summary.retries == 0
        assert sleeps == []
        record = out.journal.jobs["fake_benchmark/0"]
        assert record.status == "timeout"
        assert "RunTimeout" in record.error


class TestCampaignResults:
    def test_default_seed_count_scores_with_the_322_rule(self, tmp_path):
        bench = FakeBenchmark(clock=FakeClock())
        out = _campaign(bench, CampaignSpec(benchmarks=("fake_benchmark",)),
                        journal_dir=tmp_path)
        assert out.ok
        assert out.summary.total_cells == FAKE_SPEC.required_runs
        assert out.scores["fake_benchmark"].num_runs == FAKE_SPEC.required_runs
        assert out.submission is not None
        assert len(out.submission.runs["fake_benchmark"]) == FAKE_SPEC.required_runs

    def test_speedup_accounting(self):
        bench = FakeBenchmark(clock=FakeClock(), epoch_cost_s=1.0)
        out = _campaign(bench, CampaignSpec(benchmarks=("fake_benchmark",), seeds=3))
        # Sequential on a shared fake clock: wall >= sum of timed regions.
        assert out.summary.total_ttt_s > 0
        assert out.summary.wall_clock_s >= out.summary.total_ttt_s
        assert 0 < out.summary.speedup <= 1.0

    def test_merged_telemetry_has_one_pid_row_per_cell(self):
        bench = SearchingBenchmark(clock=FakeClock())
        out = _campaign(bench, CampaignSpec(benchmarks=("fake_benchmark",), seeds=3))
        pids = {e["pid"] for e in out.chrome_trace()["traceEvents"]}
        assert pids == {0, 1, 2}
        # Worker metrics merged parent-side: one search per epoch, all runs pooled.
        assert out.telemetry.metrics["mcts_searches"]["value"] == sum(
            r.epochs for r in out.runs_by_benchmark["fake_benchmark"])

    def test_faulted_attempt_keeps_its_partial_trace_on_the_cells_row(self):
        flaky = FlakyBenchmark(failures=1, clock=FakeClock())
        out = _campaign(flaky, CampaignSpec(benchmarks=("fake_benchmark",), seeds=1))
        events = out.chrome_trace()["traceEvents"]
        assert [e["args"]["name"] for e in events if e["ph"] == "M"] == ["fake_benchmark/0"]
        assert {e["pid"] for e in events} == {0}
        aborted = [(e["name"], e["args"]) for e in events if e["args"].get("aborted")]
        # The first attempt died creating its model; the retry ran to target.
        assert aborted == [("model_creation", {"aborted": True, "error": "ValueError"})]
        names = [e["name"] for e in events if e["ph"] == "X"]
        assert names.count("model_creation") == 2 and names.count("run") == 1

    def test_bench_payload_shape(self):
        bench = FakeBenchmark(clock=FakeClock())
        out = _campaign(bench, CampaignSpec(benchmarks=("fake_benchmark",), seeds=3))
        payload = out.bench_payload()
        assert payload["schema"] == "repro-campaign-bench/1"
        assert payload["total_cells"] == 3
        assert set(payload["jobs"]) == {f"fake_benchmark/{s}" for s in range(3)}
        # The score is the olympic mean; epochs count each cell once.
        assert payload["scores"] == {
            "fake_benchmark": out.scores["fake_benchmark"].time_to_train_s}
        histogram = payload["epochs"]["fake_benchmark"]
        assert sum(histogram.values()) == 3
        assert histogram == dict(sorted(Counter(
            r.epochs for r in out.runs_by_benchmark["fake_benchmark"]).items()))


class TestResume:
    def test_killed_campaign_resumes_only_remaining_cells(self, tmp_path):
        clock = FakeClock()
        killer = KillSwitchBenchmark(kill_on_session=3, clock=clock)
        spec = CampaignSpec(benchmarks=("fake_benchmark",), seeds=5)
        with pytest.raises(KeyboardInterrupt):
            _campaign(killer, spec, journal_dir=tmp_path)

        # The journal survived the kill with exactly the completed cells.
        from repro.exec import CampaignJournal

        journal = CampaignJournal.load(tmp_path)
        assert journal.completed_cells() == {("fake_benchmark", 0),
                                             ("fake_benchmark", 1)}

        healthy = FakeBenchmark(clock=clock)
        out = _campaign(healthy, spec, journal_dir=tmp_path, resume=True)
        assert out.ok
        assert out.summary.skipped_resumed == 2
        assert out.summary.executed == 3          # only the remainder ran
        assert out.summary.total_cells == 5
        # All five cells are now terminal in the journal.
        assert {r.seed for r in out.journal.jobs.values()
                if r.status == "reached"} == set(range(5))

    def test_resumed_campaign_matches_uninterrupted_run(self, tmp_path):
        spec = CampaignSpec(benchmarks=("fake_benchmark",), seeds=5)
        clock_a = FakeClock()
        killer = KillSwitchBenchmark(kill_on_session=4, clock=clock_a)
        with pytest.raises(KeyboardInterrupt):
            _campaign(killer, spec, journal_dir=tmp_path / "a")
        resumed = _campaign(FakeBenchmark(clock=clock_a), spec,
                            journal_dir=tmp_path / "a", resume=True)

        fresh = _campaign(FakeBenchmark(clock=FakeClock()), spec,
                          journal_dir=tmp_path / "b")
        a = resumed.runs_by_benchmark["fake_benchmark"]
        b = fresh.runs_by_benchmark["fake_benchmark"]
        assert [(r.seed, r.quality, r.epochs) for r in a] == \
               [(r.seed, r.quality, r.epochs) for r in b]
        assert resumed.scores["fake_benchmark"].mean_epochs == \
               fresh.scores["fake_benchmark"].mean_epochs

    def test_resumed_cells_keep_their_trace_rows(self, tmp_path):
        spec = CampaignSpec(benchmarks=("fake_benchmark",), seeds=3)
        fresh = _campaign(FakeBenchmark(clock=FakeClock()), spec, journal_dir=tmp_path)
        resumed = _campaign(FakeBenchmark(clock=FakeClock()), spec,
                            journal_dir=tmp_path, resume=True)
        assert resumed.summary.executed == 0
        rows = {e["pid"]: e["args"]["name"]
                for e in resumed.chrome_trace()["traceEvents"] if e["ph"] == "M"}
        assert rows == {s: f"fake_benchmark/{s}" for s in range(3)}
        # A resumed cell's row is the one its saved log gives: the same
        # phases as the run that wrote it.
        assert resumed.chrome_trace() == fresh.chrome_trace()

    def test_resume_requires_a_journal_directory(self):
        bench = FakeBenchmark(clock=FakeClock())
        with pytest.raises(ValueError, match="journal directory"):
            _campaign(bench, CampaignSpec(benchmarks=("fake_benchmark",), seeds=1),
                      resume=True)

    def test_resume_reschedules_faulted_cells(self, tmp_path):
        spec = CampaignSpec(benchmarks=("fake_benchmark",), seeds=2)
        clock = FakeClock()
        flaky = FlakyBenchmark(failures=10, clock=clock)
        first = _campaign(flaky, spec, journal_dir=tmp_path,
                          policy=RetryPolicy(max_retries=1))
        assert first.summary.faults >= 1

        healthy = FakeBenchmark(clock=clock)
        second = _campaign(healthy, spec, journal_dir=tmp_path, resume=True)
        assert second.ok
        assert second.summary.skipped_resumed == 0  # faults are rescheduled
        assert second.summary.executed == 2


class TestOneRecordPerAttempt:
    """Every attempt leaves a ``# repro-run`` file; every reader reads those."""

    SPEC = CampaignSpec(benchmarks=("fake_benchmark",), seeds=3)

    def test_resumed_trace_shows_both_attempts_of_a_retried_cell(self, tmp_path):
        fresh = _campaign(FlakyBenchmark(failures=1, clock=FakeClock()), self.SPEC,
                          journal_dir=tmp_path)
        resumed = _campaign(FakeBenchmark(clock=FakeClock()), self.SPEC,
                            journal_dir=tmp_path, resume=True)
        assert resumed.summary.executed == 0
        assert resumed.chrome_trace() == fresh.chrome_trace()
        # The files hold what an unsaved campaign keeps in memory.
        unsaved = _campaign(FlakyBenchmark(failures=1, clock=FakeClock()), self.SPEC)
        assert unsaved.chrome_trace() == fresh.chrome_trace()
        row = [e for e in resumed.chrome_trace()["traceEvents"] if e["pid"] == 0]
        names = [e["name"] for e in row if e["ph"] == "X"]
        assert names.count("model_creation") == 2 and names.count("run") == 1
        assert [e["args"] for e in row if e["args"].get("aborted")] == [
            {"aborted": True, "error": "ValueError"}]

    def test_faulted_attempt_is_a_missed_run_and_is_never_scored(self, tmp_path):
        out = _campaign(FlakyBenchmark(failures=1, clock=FakeClock()), self.SPEC,
                        journal_dir=tmp_path)
        first, retry = out.journal.attempt_files("fake_benchmark", 0)
        faulted = load_run_result(first)
        assert (faulted.reached_target, faulted.error_type, faulted.status) == (
            False, "ValueError", "fault")
        assert load_run_result(retry).status == "reached"
        assert [len(out.journal.attempt_files("fake_benchmark", s)) for s in (1, 2)] == [1, 1]
        # The score and the submission hold the retry only, as before
        # failed attempts were saved (these figures are that code's).
        score = out.scores["fake_benchmark"]
        assert (score.time_to_train_s, score.run_times_s, score.mean_epochs) == (
            8.0, (8.0, 8.0, 9.0), 25 / 3)
        assert [(r.seed, r.epochs, r.quality, r.time_to_train_s)
                for r in out.submission.runs["fake_benchmark"]] == [
            (RESEED_STRIDE, 9, 0.8676436592245972, 9.0),
            (1, 8, 0.847711324640545, 8.0),
            (2, 8, 0.8061209305669701, 8.0)]
        assert out.summary.total_ttt_s == 25.0

    def test_parent_layout_directory_resumes(self, tmp_path):
        directory = tmp_path / "camp"
        shutil.copytree(PARENT_LAYOUT, directory)
        out = _campaign(FakeBenchmark(clock=FakeClock()), self.SPEC,
                        journal_dir=directory, resume=True)
        assert out.ok
        assert (out.summary.skipped_resumed, out.summary.executed) == (2, 1)
        assert [r.seed for r in out.runs_by_benchmark["fake_benchmark"]] == [
            RESEED_STRIDE, 1, 2]
        # The retried cell kept only its last run, so its row holds one attempt.
        rows = Counter(e["pid"] for e in out.chrome_trace()["traceEvents"]
                       if e["name"] == "model_creation")
        assert rows == {0: 1, 1: 1, 2: 1}
