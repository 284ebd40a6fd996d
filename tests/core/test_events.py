"""The streaming layer: event bus, JSONL logs, crash tolerance."""

import pytest

from repro.core.timing import FakeClock
from repro.telemetry import (
    Event,
    EventBus,
    EventLog,
    NULL_EVENTS,
    Telemetry,
    current_events,
    merge_event_streams,
    read_events,
)


class TestEventBus:
    def test_publish_stamps_clock_and_pid(self):
        clock = FakeClock(start=100.0)
        bus = EventBus(clock=clock.now, pid=7)
        seen = []
        bus.subscribe(seen.append)
        clock.advance(2.5)
        event = bus.publish("epoch", epoch=3)
        assert seen == [event]
        assert event.name == "epoch"
        assert event.time_s == 102.5
        assert event.pid == 7
        assert event.args == {"epoch": 3}

    def test_unsubscribe(self):
        bus = EventBus(clock=lambda: 0.0)
        seen = []
        unsubscribe = bus.subscribe(seen.append)
        bus.publish("a")
        unsubscribe()
        bus.publish("b")
        assert [e.name for e in seen] == ["a"]
        unsubscribe()  # idempotent

    def test_disabled_bus_is_a_no_op(self):
        seen = []
        NULL_EVENTS.subscribe(seen.append)
        assert NULL_EVENTS.publish("anything", x=1) is None
        assert seen == []

    def test_ambient_bus_default_is_disabled(self):
        assert current_events().enabled is False

    def test_telemetry_session_activates_its_bus(self):
        clock = FakeClock(start=5.0)
        session = Telemetry(clock=clock, events_clock=clock.now)
        seen = []
        session.events.subscribe(seen.append)
        with session.activate():
            current_events().publish("run_start", seed=0)
        assert [e.name for e in seen] == ["run_start"]
        assert seen[0].time_s == 5.0


class TestEventLog:
    def test_round_trip(self, tmp_path):
        clock = FakeClock(start=10.0)
        bus = EventBus(clock=clock.now, pid=1)
        path = tmp_path / "streams" / "job.jsonl"  # parents created on open
        with EventLog(path) as log:
            bus.subscribe(log.write)
            bus.publish("run_start", seed=0)
            clock.advance(1.0)
            bus.publish("epoch", epoch=1, samples=32)
        events = read_events(path)
        assert [e.name for e in events] == ["run_start", "epoch"]
        assert events[1].time_s == 11.0
        assert events[1].args == {"epoch": 1, "samples": 32}

    def test_append_mode_extends_prior_stream(self, tmp_path):
        path = tmp_path / "job.jsonl"
        with EventLog(path) as log:
            log.write(Event("first", 1.0))
        with EventLog(path) as log:
            log.write(Event("second", 2.0))
        assert [e.name for e in read_events(path)] == ["first", "second"]

    def test_missing_file_is_empty_stream(self, tmp_path):
        assert read_events(tmp_path / "never_written.jsonl") == []

    def test_truncated_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "job.jsonl"
        with EventLog(path) as log:
            log.write(Event("run_start", 1.0))
            log.write(Event("epoch", 2.0, args={"epoch": 1}))
        # A killed writer leaves a partial final line.
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"name": "epoch", "time_s": 3.0, "pi')
        events = read_events(path)
        assert [e.name for e in events] == ["run_start", "epoch"]

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "job.jsonl"
        path.write_text(
            Event("ok", 1.0).to_json() + "\n"
            + "GARBAGE NOT JSON\n"
            + Event("later", 2.0).to_json() + "\n"
        )
        with pytest.raises(ValueError, match="corrupt event line"):
            read_events(path)

    def test_merge_orders_streams_by_time_then_pid(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        with EventLog(a) as log:
            log.write(Event("a1", 1.0, pid=1))
            log.write(Event("a2", 3.0, pid=1))
        with EventLog(b) as log:
            log.write(Event("b1", 2.0, pid=0))
            log.write(Event("b2", 3.0, pid=0))
        merged = merge_event_streams([a, b])
        assert [(e.name, e.pid) for e in merged] == [
            ("a1", 1), ("b1", 0), ("b2", 0), ("a2", 1)]
