"""The alert engine: the fixed policy, lifecycle, determinism.

The acceptance bar: identical event streams produce bit-identical
``alerts.jsonl`` files under FakeClock, and every rule kind fires and
resolves on the conditions its name promises.
"""

from repro.core.timing import FakeClock
from repro.telemetry import (
    AlertEngine,
    Event,
    EventBus,
    StreamFold,
    replay_alerts,
)
from repro.telemetry.alerts import RULES


def _stream(specs):
    """Build a timeline from (t, name, pid, args) tuples."""
    return [Event(name=name, time_s=float(t), pid=pid, args=args)
            for t, name, pid, args in specs]


def _run_events(*, start=1000.0, epoch_gap=1.0, epochs=4, quality=0.9,
                target=0.8, pid=1):
    """A healthy run: start, epochs with throughput, eval, stop."""
    t = start
    out = [(t, "run_start", pid,
            {"benchmark": "b", "seed": 0, "target": target})]
    for i in range(epochs):
        t += epoch_gap
        out.append((t, "epoch", pid,
                    {"epoch": i, "epoch_seconds": epoch_gap, "samples": 32,
                     "samples_total": 32 * (i + 1)}))
    t += 0.5
    out.append((t, "eval", pid, {"epoch": epochs - 1, "quality": quality}))
    t += 0.5
    out.append((t, "run_stop", pid,
                {"benchmark": "b", "seed": 0, "status": "reached",
                 "epochs": epochs, "quality": quality}))
    return _stream(out)


class TestRuleParsing:
    def test_defaults_cover_every_kind(self):
        assert {kind: rule.severity for kind, rule in RULES.items()} == {
            "job_stall": "warning", "heartbeat_loss": "critical",
            "quality_regression": "warning", "throughput_drop": "warning"}
        assert list(RULES)[:2] == ["job_stall", "heartbeat_loss"]
        assert (RULES["job_stall"].silence_s,
                RULES["heartbeat_loss"].silence_s) == (30.0, 120.0)


class TestRuleLifecycle:
    def test_healthy_run_fires_nothing(self):
        engine, transitions = replay_alerts(_run_events())
        assert transitions == []
        assert engine.active() == []

    def test_job_stall_fires_on_gap_and_resolves_on_recovery(self):
        events = _run_events(epoch_gap=1.0)
        # Inject a 100s silent gap before the last epoch by shifting the
        # tail of the timeline.
        shifted = [e if e.time_s < 1004.0 else
                   Event(e.name, e.time_s + 100.0, e.pid, e.args)
                   for e in events]
        shifted.sort(key=lambda e: (e.time_s, e.pid))
        _, transitions = replay_alerts(shifted)
        names = [(t.name, t.args["rule"]) for t in transitions]
        assert ("alert_firing", "job_stall") in names
        assert ("alert_resolved", "job_stall") in names
        fired = next(t for t in transitions if t.name == "alert_firing"
                     and t.args["rule"] == "job_stall")
        resolved = next(t for t in transitions if t.name == "alert_resolved"
                        and t.args["rule"] == "job_stall")
        # Both stamp the instant the silence ended (event-stream time).
        assert fired.time_s == resolved.time_s == 1104.0

    def test_stream_ending_while_active_fires_stall_at_now(self):
        events = _run_events()[:-1]  # drop run_stop: job died silently
        _, transitions = replay_alerts(events, now_s=events[-1].time_s + 500)
        rules = {t.args["rule"] for t in transitions
                 if t.name == "alert_firing"}
        assert {"job_stall", "heartbeat_loss"} <= rules

    def test_quality_regression_persists_after_run_end(self):
        # Two evals below 0.9 * target(0.8) = 0.72; run ends quality_miss.
        events = _run_events(quality=0.5)
        extra_eval = Event("eval", 1003.7, 1, {"epoch": 2, "quality": 0.4})
        events = sorted(events + [extra_eval],
                        key=lambda e: (e.time_s, e.pid))
        # Make the stop a miss, not reached.
        events = [Event(e.name, e.time_s, e.pid,
                        dict(e.args, status="quality_miss"))
                  if e.name == "run_stop" else e for e in events]
        engine, transitions = replay_alerts(events)
        assert any(t.name == "alert_firing"
                   and t.args["rule"] == "quality_regression"
                   for t in transitions)
        assert [a.rule for a in engine.active()] == ["quality_regression"]

    def test_quality_regression_resolves_when_target_reached(self):
        # Early eval is bad, final eval recovers and the run reaches.
        bad = Event("eval", 1001.5, 1, {"epoch": 0, "quality": 0.3})
        worse = Event("eval", 1002.5, 1, {"epoch": 1, "quality": 0.2})
        events = sorted(_run_events(quality=0.9) + [bad, worse],
                        key=lambda e: (e.time_s, e.pid))
        engine, transitions = replay_alerts(events)
        kinds = [(t.name, t.args["rule"]) for t in transitions]
        assert ("alert_firing", "quality_regression") in kinds
        assert ("alert_resolved", "quality_regression") in kinds
        assert engine.active() == []

    def test_throughput_drop_fires_on_collapse(self):
        t = 1000.0
        specs = [(t, "run_start", 1, {"benchmark": "b", "seed": 0})]
        # Steady 32 samples/s, then one epoch at a tenth of that.
        for i in range(4):
            specs.append((t + 1 + i, "epoch", 1,
                          {"epoch": i, "epoch_seconds": 1.0, "samples": 32}))
        specs.append((t + 15, "epoch", 1,
                      {"epoch": 4, "epoch_seconds": 10.0, "samples": 32}))
        _, transitions = replay_alerts(_stream(specs))
        assert any(t.name == "alert_firing"
                   and t.args["rule"] == "throughput_drop"
                   for t in transitions)

    def test_old_arena_stats_events_fire_nothing(self):
        # Streams recorded while kernels pooled their scratch carry these
        # events; no rule reads them any more.
        specs = [
            (1000.0, "run_start", 1, {"benchmark": "b", "seed": 0}),
            (1001.0, "arena_stats", 1, {"hit_rate": 0.95}),
            (1002.0, "arena_stats", 1, {"hit_rate": 0.4}),
            (1003.0, "arena_stats", 1, {"hit_rate": 0.92}),
        ]
        engine, transitions = replay_alerts(_stream(specs))
        assert transitions == [] and engine.active() == []

    def test_subject_vanishing_resolves(self):
        """A run that ends while a stall alert fires resolves the alert."""
        events = _run_events()[:-1]
        _, _ = replay_alerts(events)  # sanity: replay works
        engine = AlertEngine()
        fold = StreamFold()
        engine.advance(fold, events, events[-1].time_s + 500)
        assert engine.active()  # stall + loss firing
        out = engine.advance(fold, [Event(
            "run_stop", events[-1].time_s + 501, 1,
            {"benchmark": "b", "seed": 0, "status": "fault"})])
        assert engine.active() == []
        assert out and all(t.name == "alert_resolved" for t in out)


class TestDeterminism:
    def test_replay_is_bit_identical(self):
        # A stream with a mid-run stall gap AND tail silence, so both
        # firing and resolved transitions appear in the log.
        events = [e if e.time_s < 1004.0 else
                  Event(e.name, e.time_s + 100.0, e.pid, e.args)
                  for e in _run_events()[:-1]]
        events.sort(key=lambda e: (e.time_s, e.pid))
        _, first = replay_alerts(events, now_s=2000.0)
        _, second = replay_alerts(events, now_s=2000.0)
        assert [t.to_json() for t in first] == [t.to_json() for t in second]
        assert first  # the stream does produce transitions

    def test_transitions_are_ordinary_events(self):
        """alerts.jsonl parses with the standard event tooling."""
        from repro.telemetry import EventLog, read_events

        events = _run_events()[:-1]
        _, transitions = replay_alerts(events, now_s=5000.0)
        assert transitions

    def test_engine_stamps_context_time_never_wall_clock(self):
        clock = FakeClock(start=123.0)
        bus = EventBus(clock=clock.now, pid=1)
        captured = []
        bus.subscribe(captured.append)
        bus.publish("run_start", benchmark="b", seed=0)
        engine = AlertEngine()
        out = engine.advance(StreamFold(), captured, clock.now() + 1000.0)
        assert out and all(t.time_s == 1123.0 for t in out)

    def test_lagging_events_never_stamp_earlier_transitions(self):
        # A poll at t=200 fires the stall; a stream that lagged behind it
        # then delivers progress from t=190.  The recovery is stamped at
        # the latest instant already evaluated, not back in time.
        engine, fold = AlertEngine(), StreamFold()
        start = _stream([(100.0, "run_start", 1,
                          {"benchmark": "b", "seed": 0})])
        fired = engine.advance(fold, start, 200.0)
        assert [(t.name, t.args["rule"], t.time_s) for t in fired] == [
            ("alert_firing", "job_stall", 200.0)]
        late = _stream([(190.0, "epoch", 1, {"epoch": 1})])
        resolved = engine.advance(fold, late, 205.0)
        assert [(t.name, t.args["rule"], t.time_s) for t in resolved] == [
            ("alert_resolved", "job_stall", 200.0)]


class TestStreamFold:
    def test_job_progress_folds_epoch_and_eval(self):
        clock = FakeClock(start=0.0)
        bus = EventBus(clock=clock.now, pid=3)
        fold = StreamFold()
        bus.subscribe(fold.apply)
        bus.publish("job_start", benchmark="fake", seed=0, attempt=1)
        bus.publish("epoch", epoch=1, samples_total=32)
        clock.advance(2.0)
        bus.publish("epoch", epoch=2, samples_total=64)
        bus.publish("eval", epoch=2, quality=0.5)
        job = fold.jobs["fake/0"]
        assert (job.epoch, job.step, job.quality) == (2, 64.0, 0.5)
        assert (job.live, job.attempt, job.last_event_s) == (True, 1, 2.0)
        bus.publish("run_stop", benchmark="fake", seed=0, status="success")
        assert not fold.jobs["fake/0"].live

    def test_retry_is_one_job_and_a_run_per_run_seed(self):
        # A retry's runner reports its reseeded run seed: the rules follow
        # that run, the monitor keeps following the cell's job.
        fold = StreamFold()
        fold.apply_all(_stream([
            (10.0, "job_start", 2,
             {"benchmark": "b", "seed": 1, "attempt": 1}),
            (11.0, "run_start", 2, {"benchmark": "b", "seed": 7920}),
            (12.0, "epoch", 2, {"epoch": 1, "samples_total": 32}),
        ]))
        assert list(fold.jobs) == ["b/1"]
        job = fold.jobs["b/1"]
        assert (job.live, job.attempt, job.step, job.last_event_s) == (
            True, 1, 32.0, 12.0)
        assert fold.runs["b/7920"].active

    def test_engine_stream_records_are_not_job_events(self):
        # The engine's stream shares pid 0 with job ordinal 0.
        fold = StreamFold()
        fold.apply_all(_stream([
            (10.0, "job_start", 0, {"benchmark": "b", "seed": 0}),
            (12.0, "run_stop", 0, {"benchmark": "b", "seed": 0}),
            (20.0, "job_finished", 0, {"benchmark": "b", "seed": 1,
                                       "status": "reached"}),
            (30.0, "campaign_stop", 0, {"executed": 2}),
        ]))
        assert fold.jobs["b/0"].last_event_s == 12.0
        assert fold.runs["b/1"].status == "reached"
