"""Telemetry primitives: metrics, the ambient session, log-built traces."""

import json

import pytest

from repro.core.mllog import Keys, LogEvent
from repro.telemetry import (
    NULL_METRICS,
    MetricsRegistry,
    Telemetry,
    current_metrics,
    current_profiler,
    decompose_log_events,
    merge_snapshots,
    metadata_events,
    trace_from_log_events,
)


class TestMetrics:
    def test_counter(self):
        reg = MetricsRegistry()
        reg.counter("samples").inc(64)
        reg.counter("samples").inc(36)
        assert reg.counter("samples").value == 100
        with pytest.raises(ValueError):
            reg.counter("samples").inc(-1)

    def test_gauge(self):
        reg = MetricsRegistry()
        reg.gauge("eps").set(123.5)
        assert reg.gauge("eps").value == 123.5

    def test_histogram_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 5.0, 50.0):
            h.observe(v)
        assert h.counts == [1, 1, 1, 1]  # one per bucket incl. overflow
        assert h.count == 4
        assert h.mean == pytest.approx(55.55 / 4)
        assert h.min == 0.05 and h.max == 50.0

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("bad", buckets=(1.0, 0.5))

    def test_kind_collision_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_snapshot_is_json_serializable(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.gauge("g").set(2.0)
        reg.histogram("h").observe(0.3)
        snap = json.loads(json.dumps(reg.snapshot()))
        assert snap["c"] == {"type": "counter", "value": 1.0}
        assert snap["g"]["value"] == 2.0
        assert snap["h"]["count"] == 1

    def test_render_lists_every_instrument(self):
        reg = MetricsRegistry()
        reg.counter("samples_seen").inc(5)
        reg.histogram("epoch_seconds").observe(1.5)
        text = reg.render()
        assert "samples_seen" in text and "counter" in text
        assert "epoch_seconds" in text and "n=1" in text

    def test_null_registry_is_noop(self):
        NULL_METRICS.counter("x").inc(5)
        NULL_METRICS.gauge("y").set(1.0)
        NULL_METRICS.histogram("z").observe(2.0)
        assert NULL_METRICS.snapshot() == {}
        assert "x" not in NULL_METRICS


class TestMergeSnapshots:
    def test_null_type_instruments_are_skipped(self):
        # A disabled session snapshots instruments as {"type": "null"};
        # merging must drop them rather than poison real aggregates.
        real = {"samples": {"type": "counter", "value": 10.0}}
        nulled = {"samples": {"type": "null"},
                  "other": {"type": "null"}}
        merged = merge_snapshots([nulled, real, nulled])
        assert merged == {"samples": {"type": "counter", "value": 10.0}}

    def test_mismatched_histogram_buckets_raise(self):
        a_reg, b_reg = MetricsRegistry(), MetricsRegistry()
        a_reg.histogram("lat", buckets=(0.1, 1.0)).observe(0.5)
        b_reg.histogram("lat", buckets=(0.1, 2.0)).observe(0.5)
        with pytest.raises(ValueError, match="mismatched bucket layouts"):
            merge_snapshots([a_reg.snapshot(), b_reg.snapshot()])

    def test_gauge_last_write_across_three_sessions(self):
        sessions = []
        for value in (1.0, 2.0, 3.0):
            reg = MetricsRegistry()
            reg.gauge("eps").set(value)
            sessions.append(reg.snapshot())
        # Merge order = session order: the last session's value wins.
        assert merge_snapshots(sessions)["eps"]["value"] == 3.0
        assert merge_snapshots(reversed(sessions))["eps"]["value"] == 1.0


class TestAmbientContext:
    def test_default_is_disabled(self):
        assert not current_metrics().enabled
        assert not current_profiler().active

    def test_activation_scopes_the_session(self):
        tele = Telemetry()
        with tele.activate():
            assert current_metrics() is tele.metrics
            assert current_profiler() is tele.profiler
            current_metrics().counter("k").inc()
        assert not current_metrics().enabled
        assert tele.metrics.counter("k").value == 1

    def test_disabled_singleton_shared(self):
        assert Telemetry.disabled() is Telemetry.disabled()
        assert not Telemetry.disabled().enabled


def _interval_log(pairs):
    events = []
    for key, t_ms, meta in pairs:
        events.append(LogEvent(key=key, value=None, time_ms=t_ms, metadata=meta))
    return events


class TestLogDerivedTelemetry:
    EVENTS = _interval_log([
        (Keys.INIT_START, 0.0, {}),
        (Keys.INIT_STOP, 100.0, {}),
        (Keys.MODEL_CREATION_START, 100.0, {}),
        (Keys.MODEL_CREATION_STOP, 300.0, {}),
        (Keys.RUN_START, 300.0, {}),
        (Keys.EPOCH_START, 300.0, {"epoch_num": 1}),
        (Keys.EPOCH_STOP, 1300.0, {"epoch_num": 1}),
        (Keys.EVAL_START, 1300.0, {"epoch_num": 1}),
        (Keys.EVAL_STOP, 1500.0, {"epoch_num": 1}),
        (Keys.RUN_STOP, 1600.0, {}),
    ])

    def test_decompose_log_events(self):
        phases = decompose_log_events(self.EVENTS)
        assert phases.init_s == pytest.approx(0.1)
        assert phases.model_creation_s == pytest.approx(0.2)
        assert phases.run_s == pytest.approx(1.3)
        assert phases.train_s == pytest.approx(1.0)
        assert phases.eval_s == pytest.approx(0.2)
        assert phases.other_s == pytest.approx(0.1)
        assert phases.epochs == 1 and phases.evals == 1

    def test_trace_from_log_events(self):
        events = self.EVENTS + [
            LogEvent(key=Keys.EVAL_ACCURACY, value=0.9, time_ms=1500.0,
                     metadata={"epoch_num": 1})
        ]
        doc = trace_from_log_events(events, pid=2)
        names = {e["name"] for e in doc["traceEvents"]}
        assert {"init", "model_creation", "run", "epoch 1", "eval 1"} <= names
        accuracy = [e for e in doc["traceEvents"] if e["name"] == "eval_accuracy"]
        assert accuracy and accuracy[0]["ph"] == "i"
        run_event = next(e for e in doc["traceEvents"] if e["name"] == "run")
        assert run_event["ts"] == pytest.approx(300.0 * 1000)  # µs
        assert run_event["dur"] == pytest.approx(1300.0 * 1000)
        json.dumps(doc)  # Chrome-loadable

    def test_unbalanced_stop_tolerated(self):
        events = _interval_log([(Keys.EPOCH_STOP, 10.0, {"epoch_num": 1})])
        assert decompose_log_events(events).epochs == 0


class TestTracer:
    """The one trace producer: Chrome events rebuilt from a §4.1 log."""

    RUN = TestLogDerivedTelemetry.EVENTS

    def test_span_records_deterministic_times(self):
        spans = {e["name"]: e for e in trace_from_log_events(self.RUN)["traceEvents"]}
        assert (spans["epoch 1"]["ts"], spans["epoch 1"]["dur"]) == (300_000.0, 1_000_000.0)
        assert spans["epoch 1"]["args"] == {"epoch_num": 1}
        # Nesting is timestamp containment: the epoch and eval lie inside the run.
        run = spans["run"]
        for name in ("epoch 1", "eval 1"):
            assert run["ts"] <= spans[name]["ts"]
            assert spans[name]["ts"] + spans[name]["dur"] <= run["ts"] + run["dur"]

    def test_exception_closes_span_and_tags_error(self):
        events = self.RUN[:5] + _interval_log([
            (Keys.EPOCH_START, 300.0, {"epoch_num": 1}),
            (Keys.RUN_STOP, 900.0, {"status": "error", "error": "ArithmeticError"}),
        ])
        spans = {e["name"]: e for e in trace_from_log_events(events)["traceEvents"]}
        assert sorted(spans) == ["epoch 1", "init", "model_creation", "run"]
        assert spans["epoch 1"]["dur"] == pytest.approx(600.0 * 1000)
        assert spans["epoch 1"]["args"] == {
            "epoch_num": 1, "aborted": True, "error": "ArithmeticError"}
        # The phases the run finished are not tagged.
        assert "aborted" not in spans["run"]["args"]

    def test_instant_event(self):
        marker = LogEvent(key=Keys.EVAL_ACCURACY, value=0.9, time_ms=5.0,
                          metadata={"epoch_num": 1})
        (event,) = trace_from_log_events([marker], pid=4)["traceEvents"]
        assert (event["ph"], event["ts"], event["pid"]) == ("i", 5000.0, 4)
        assert event["args"] == {"value": 0.9, "epoch_num": 1}

    def test_chrome_export_shape(self):
        run = _interval_log([(Keys.RUN_START, 0.0, {}), (Keys.RUN_STOP, 2000.0, {})])
        doc = trace_from_log_events(run, pid=3)
        assert doc["displayTimeUnit"] == "ms"
        (event,) = doc["traceEvents"]
        assert event["ph"] == "X"
        assert event["ts"] == 0.0
        assert event["dur"] == 2e6  # trace_event times are microseconds
        assert event["pid"] == 3
        json.loads(json.dumps(doc))  # valid JSON document

    def test_open_spans_not_exported(self):
        # A log cut before its run_stop (a killed writer) closes nothing.
        events = self.RUN[:5] + _interval_log([(Keys.EPOCH_START, 300.0, {"epoch_num": 1})])
        names = {e["name"] for e in trace_from_log_events(events)["traceEvents"]}
        assert names == {"init", "model_creation"}


class TestMetadataCollisions:
    def test_intervals_trace_carries_metadata(self):
        epoch = _interval_log([(Keys.EPOCH_START, 0.0, {"epoch_num": 1}),
                               (Keys.EPOCH_STOP, 1000.0, {"epoch_num": 1})])
        events = metadata_events(7, "ncf/0") + trace_from_log_events(epoch, pid=7)["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        assert meta and meta[0]["pid"] == 7
        assert meta[0]["args"]["name"] == "ncf/0"
        assert [(e["name"], e["pid"]) for e in events if e["ph"] == "X"] == [("epoch 1", 7)]
