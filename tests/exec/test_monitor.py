"""The campaign monitor: file-built views, deterministic under FakeClock."""

import json

from repro.core.timing import FakeClock
from repro.exec import CampaignSpec, RetryPolicy, SequentialExecutor, run_campaign
from repro.telemetry import (
    Event,
    EventLog,
    StreamFold,
    build_view,
    load_monitor_view,
    merge_event_streams,
    read_events,
    render_job_table,
    render_monitor_view,
    replay_alerts,
)

from ..core.fakes import FAKE_SPEC, FakeBenchmark

SPECS = {"fake_benchmark": FAKE_SPEC}


def _run_campaign(tmp_path, clock, seeds=3):
    benchmark = FakeBenchmark(clock=clock)
    return run_campaign(
        CampaignSpec(benchmarks=("fake_benchmark",), seeds=seeds),
        executor=SequentialExecutor(benchmark_factory=lambda name: benchmark,
                                    clock=clock, events_clock=clock.now),
        benchmark_specs=SPECS,
        policy=RetryPolicy(),
        journal_dir=tmp_path,
        sleeper=lambda s: None,
        wall_clock=clock.now,
        event_clock=clock.now,
    )


class TestCampaignStreams:
    def test_campaign_writes_event_and_heartbeat_files(self, tmp_path):
        clock = FakeClock(start=1000.0)
        _run_campaign(tmp_path, clock)
        events_dir = tmp_path / "events"
        names = sorted(p.name for p in events_dir.glob("*.jsonl"))
        assert names == ["campaign.jsonl"] + [
            f"fake_benchmark_seed{s}.jsonl" for s in range(3)]
        campaign_events = read_events(events_dir / "campaign.jsonl")
        kinds = [e.name for e in campaign_events]
        assert kinds[0] == "campaign_start"
        assert kinds[-1] == "campaign_stop"
        assert kinds.count("job_finished") == 3
        job_events = read_events(events_dir / "fake_benchmark_seed1.jsonl")
        job_kinds = [e.name for e in job_events]
        # The stream opens with its identity record, then the run lifecycle.
        assert job_kinds[0] == "job_start"
        assert job_events[0].args["campaign"] == tmp_path.name
        assert job_kinds[1] == "run_start"
        assert job_kinds[-1] == "run_stop"
        assert "epoch" in job_kinds and "eval" in job_kinds
        # Worker events are stamped with the job ordinal and the fake clock.
        assert {e.pid for e in job_events} == {1}
        assert all(e.time_s >= 1000.0 for e in job_events)
        # The streams are the whole live record: no heartbeat files.
        assert not (tmp_path / "heartbeats").exists()

    def test_view_of_finished_campaign_is_deterministic(self, tmp_path):
        clock = FakeClock(start=1000.0)
        _run_campaign(tmp_path, clock)
        view = load_monitor_view(tmp_path, now_s=clock.now())
        assert len(view.jobs) == 3
        assert all(j.status == "reached" for j in view.jobs)
        assert view.settled and not view.stalled_jobs
        assert view.counts() == {"reached": 3}
        assert view.eta_s() is None  # nothing left to estimate
        # Built purely from files: a second load renders byte-identically.
        again = load_monitor_view(tmp_path, now_s=clock.now())
        assert render_monitor_view(view) == render_monitor_view(again)
        rendered = render_monitor_view(view)
        assert "fake_benchmark/0" in rendered
        assert "reached=3" in rendered
        assert "recent events" in rendered

    def test_old_arena_stats_events_are_read_and_ignored(self, tmp_path):
        # Campaigns recorded while kernels pooled their scratch published an
        # arena_stats event per epoch; their streams still load and replay.
        clock = FakeClock(start=1000.0)
        _run_campaign(tmp_path, clock, seeds=2)
        events_dir = tmp_path / "events"

        def replay():
            merged = merge_event_streams(sorted(events_dir.glob("*.jsonl")))
            return merged, [e.to_json() for e in replay_alerts(merged)[1]]

        _, before = replay()
        stream = events_dir / "fake_benchmark_seed1.jsonl"
        events = read_events(stream)
        with EventLog(stream, mode="w") as log:
            for event in events:
                log.write(event)
                if event.name == "epoch":
                    log.write(Event("arena_stats", event.time_s, event.pid,
                                    {"arena": "thread-1", "hit_rate": 0.1}))
        merged, after = replay()
        assert any(e.name == "arena_stats" for e in merged)
        assert after == before
        view = load_monitor_view(tmp_path, now_s=clock.now())
        assert view.counts() == {"reached": 2}

    def test_monitor_needs_no_running_campaign(self, tmp_path):
        view = load_monitor_view(tmp_path, now_s=0.0)
        assert view.jobs == [] and view.settled

    def test_event_only_directory_shows_its_run(self, tmp_path):
        # No journal: one run that started and went silent.  The monitor
        # lists it running, then stalled, as the alert rules see it.
        with EventLog(tmp_path / "events" / "b_seed0.jsonl") as log:
            log.write(Event("run_start", 100.0, 1,
                            {"benchmark": "b", "seed": 0}))
        job, = load_monitor_view(tmp_path, now_s=110.0).jobs
        assert (job.key, job.status) == ("b/0", "running")
        assert job.heartbeat_age_s == 10.0
        job, = load_monitor_view(tmp_path, now_s=200.0).jobs
        assert job.status == "stalled" and job.stalled

    def test_old_heartbeat_files_are_ignored(self, tmp_path):
        # Campaigns recorded while workers wrote heartbeats/ next to their
        # streams render and replay exactly as without those files.
        clock = FakeClock(start=1000.0)
        _run_campaign(tmp_path, clock, seeds=2)
        events_dir = tmp_path / "events"

        def render_and_replay():
            view = load_monitor_view(tmp_path, now_s=clock.now() + 5.0)
            merged = merge_event_streams(sorted(events_dir.glob("*.jsonl")))
            return (render_monitor_view(view),
                    [e.to_json() for e in replay_alerts(merged)[1]])

        before = render_and_replay()
        beats = tmp_path / "heartbeats"
        beats.mkdir()
        (beats / "fake_benchmark_seed0.json").write_text(json.dumps(
            {"pid": 0, "benchmark": "fake_benchmark", "seed": 0,
             "time_s": clock.now() + 4.0, "attempt": 0, "status": "running",
             "epoch": 3, "step": 96.0, "quality": 0.1, "metrics": {}}))
        assert render_and_replay() == before


def _progress(*specs):
    """Drive (t, name, pid, args) job events through the fold."""
    fold = StreamFold()
    fold.apply_all(Event(name, float(t), pid, args)
                   for t, name, pid, args in specs)
    return fold.jobs


class TestBuildView:
    def test_pending_cells_come_from_the_plan(self):
        view = build_view(
            job_records={"fake/0": {"status": "reached", "attempts": 1,
                                    "quality": 0.9, "epochs": 4,
                                    "time_to_train_s": 4.0}},
            planned_cells=[("fake", 0), ("fake", 1), ("fake", 2)],
            now_s=100.0,
        )
        assert [(j.key, j.status) for j in view.jobs] == [
            ("fake/0", "reached"), ("fake/1", "pending"), ("fake/2", "pending")]
        # ETA: 2 cells left x 4.0s mean finished TTT.
        assert view.eta_s() == 8.0
        assert not view.settled

    def test_fresh_running_heartbeat_marks_running(self):
        cell = {"benchmark": "fake", "seed": 1}
        progress = _progress(
            (80.0, "job_start", 1, dict(cell, attempt=0)),
            (81.0, "run_start", 1, dict(cell, target=0.8)),
            (90.0, "epoch", 1, {"epoch": 3, "samples_total": 96}),
            (95.0, "eval", 1, {"epoch": 3, "quality": 0.4}))
        view = build_view(job_records={}, planned_cells=[("fake", 1)],
                          progress=progress, now_s=100.0)
        job = view.jobs[0]
        assert job.status == "running" and not job.stalled
        assert (job.epoch, job.step, job.quality) == (3, 96.0, 0.4)
        assert job.heartbeat_age_s == 5.0
        assert job.attempts == 1  # attempt 0 -> one attempt in flight

    def test_stale_heartbeat_marks_stalled(self):
        progress = _progress(
            (10.0, "job_start", 0, {"benchmark": "fake", "seed": 0}))
        view = build_view(job_records={}, planned_cells=[("fake", 0)],
                          progress=progress, now_s=100.0)
        job = view.jobs[0]
        assert job.status == "stalled" and job.stalled
        assert view.stalled_jobs == [job]
        rendered = render_monitor_view(view)
        assert "STALL" in rendered and "STALLED" in render_job_table(view.jobs)

    def test_terminal_heartbeat_defers_to_journal(self):
        # A stream that ends in run_stop is a finished attempt, so the job
        # must not read as running however fresh its last event is.
        cell = {"benchmark": "fake", "seed": 0}
        progress = _progress(
            (95.0, "job_start", 0, cell),
            (95.0, "run_start", 0, cell),
            (99.0, "eval", 0, {"epoch": 4, "quality": 0.9}),
            (99.0, "run_stop", 0, dict(cell, status="success", quality=0.9)))
        view = build_view(
            job_records={"fake/0": {"status": "reached", "attempts": 1,
                                    "quality": 0.9, "epochs": 4,
                                    "time_to_train_s": 4.0}},
            progress=progress, now_s=100.0)
        assert view.jobs[0].status == "reached"
        assert view.settled

    def test_retry_in_flight_overrides_faulted_record(self):
        # Journal says fault, but a fresh job_start with a higher attempt
        # means the retry is live right now; its runner reports the
        # reseeded run seed, and the cell is still the job.
        cell = {"benchmark": "fake", "seed": 0}
        progress = _progress(
            (90.0, "job_start", 0, dict(cell, attempt=0)),
            (91.0, "run_start", 0, cell),
            (92.0, "run_stop", 0, dict(cell, status="error")),
            (98.0, "job_start", 0, dict(cell, attempt=1)),
            (98.0, "run_start", 0, {"benchmark": "fake", "seed": 7920}),
            (99.0, "epoch", 0, {"epoch": 2, "samples_total": 64}))
        view = build_view(
            job_records={"fake/0": {"status": "fault", "attempts": 1,
                                    "error": "ValueError: boom"}},
            progress=progress, now_s=100.0)
        job, = view.jobs  # the reseeded run is not a cell of its own
        assert job.status == "running"
        assert job.attempts == 2


class TestProgressAndEtaGuards:
    def test_no_progress_renders_dashes_not_division_errors(self):
        # Fresh campaign, nothing finished: rate and ETA have no data yet.
        view = build_view(job_records={},
                          planned_cells=[("fake", 0), ("fake", 1)],
                          now_s=100.0)
        assert view.completion() == (0, 2, 0.0)
        assert view.rate_cells_per_s() is None
        assert view.eta_s() is None
        rendered = render_monitor_view(view)
        assert "progress 0/2 (0%), rate --" in rendered
        assert "eta ~--s (no finished cell yet)" in rendered

    def test_empty_campaign_renders_without_progress_lines(self):
        view = build_view(job_records={}, planned_cells=[], now_s=0.0)
        assert view.completion() == (0, 0, None)
        rendered = render_monitor_view(view)
        assert "progress" not in rendered and "eta" not in rendered

    def test_zero_duration_records_do_not_divide_by_zero(self):
        # Instant cells (the fake clock never advanced): mean TTT is 0, so
        # the rate is unknowable rather than infinite.
        view = build_view(
            job_records={"fake/0": {"status": "reached", "attempts": 1,
                                    "time_to_train_s": 0.0}},
            planned_cells=[("fake", 0), ("fake", 1)],
            now_s=100.0)
        assert view.rate_cells_per_s() is None
        assert view.eta_s() == 0.0
        render_monitor_view(view)  # must not raise

    def test_partial_progress_reports_rate_and_eta(self):
        view = build_view(
            job_records={"fake/0": {"status": "reached", "attempts": 1,
                                    "time_to_train_s": 4.0}},
            planned_cells=[("fake", 0), ("fake", 1)],
            now_s=100.0)
        settled, total, fraction = view.completion()
        assert (settled, total) == (1, 2) and fraction == 0.5
        assert view.rate_cells_per_s() == 0.25  # 1 cell per 4s TTT
        assert view.eta_s() == 4.0
        rendered = render_monitor_view(view)
        assert "progress 1/2 (50%)" in rendered
        assert "0.25 cells/s" in rendered
