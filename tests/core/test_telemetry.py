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

    def test_snapshot_is_json_serializable(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        snap = json.loads(json.dumps(reg.snapshot()))
        assert snap == {"c": {"type": "counter", "value": 1.0}}

    def test_null_registry_is_noop(self):
        NULL_METRICS.counter("x").inc(5)
        assert NULL_METRICS.counter("x").value == 0.0
        assert NULL_METRICS.snapshot() == {}


class TestMergeSnapshots:
    def test_null_type_instruments_are_skipped(self):
        # A disabled session snapshots instruments as {"type": "null"}, and
        # result files written before the registry held counters only carry
        # histogram and gauge entries; merging must drop them rather than
        # poison real aggregates.
        real = {"samples": {"type": "counter", "value": 10.0}}
        nulled = {"samples": {"type": "null"},
                  "other": {"type": "null"}}
        old = {"epoch_seconds": {"type": "histogram", "count": 2, "sum": 3.0,
                                 "min": 1.0, "max": 2.0, "buckets": [1.0, 5.0],
                                 "counts": [1, 1, 0]},
               "examples_per_second": {"type": "gauge", "value": 16.0},
               "samples": {"type": "counter", "value": 5.0}}
        merged = merge_snapshots([nulled, real, nulled, old])
        assert merged == {"samples": {"type": "counter", "value": 15.0}}


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
