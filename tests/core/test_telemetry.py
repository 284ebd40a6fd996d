"""Telemetry primitives: spans, metrics, exporters — deterministic via FakeClock."""

import json

import pytest

from repro.core import FakeClock
from repro.core.mllog import Keys, LogEvent
from repro.telemetry import (
    NULL_METRICS,
    NULL_SPAN,
    MetricsRegistry,
    Telemetry,
    Tracer,
    chrome_trace_from_intervals,
    current_metrics,
    current_tracer,
    decompose_log_events,
    dedupe_metadata_events,
    merge_snapshots,
    metadata_events,
    trace_from_log_events,
)


class TestTracer:
    def test_span_records_deterministic_times(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("outer"):
            clock.advance(1.0)
            with tracer.span("inner", detail=7):
                clock.advance(0.5)
            clock.advance(0.25)
        outer, inner = tracer.spans
        assert outer.name == "outer" and outer.depth == 0
        assert inner.name == "inner" and inner.depth == 1
        assert inner.start_s == 1.0 and inner.duration_s == 0.5
        assert outer.duration_s == pytest.approx(1.75)
        assert inner.args == {"detail": 7}

    def test_span_set_attaches_args(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("work") as span:
            span.set(items=3)
        assert tracer.spans[0].args["items"] == 3

    def test_exception_closes_span_and_tags_error(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                clock.advance(2.0)
                raise ValueError("boom")
        (span,) = tracer.spans
        assert span.end_s == 2.0
        assert span.args["error"] == "ValueError"
        assert tracer.open_spans == []

    def test_instant_event(self):
        clock = FakeClock(5.0)
        tracer = Tracer(clock=clock)
        tracer.instant("marker", note="x")
        (span,) = tracer.spans
        assert span.start_s == span.end_s == 5.0

    def test_disabled_tracer_is_noop(self):
        tracer = Tracer(clock=FakeClock(), enabled=False)
        cm = tracer.span("anything", a=1)
        assert cm is NULL_SPAN  # one shared object, no allocation per span
        with cm as span:
            span.set(b=2)
        tracer.instant("marker")
        assert tracer.spans == []

    def test_chrome_export_shape(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock, pid=3)
        with tracer.span("run"):
            clock.advance(2.0)
        doc = tracer.to_chrome_trace()
        assert doc["displayTimeUnit"] == "ms"
        (event,) = doc["traceEvents"]
        assert event["ph"] == "X"
        assert event["ts"] == 0.0
        assert event["dur"] == 2e6  # trace_event times are microseconds
        assert event["pid"] == 3
        json.loads(tracer.to_json())  # valid JSON document

    def test_open_spans_not_exported(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        cm = tracer.span("open")
        cm.__enter__()
        assert tracer.chrome_events() == []


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
        assert not current_tracer().enabled
        assert not current_metrics().enabled

    def test_activation_scopes_the_session(self):
        tele = Telemetry(clock=FakeClock())
        with tele.activate():
            assert current_tracer() is tele.tracer
            current_metrics().counter("k").inc()
        assert not current_tracer().enabled
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


def _x_event(name, ts, dur, pid=0, tid=0):
    return {"name": name, "ph": "X", "ts": ts, "dur": dur,
            "pid": pid, "tid": tid, "args": {}}


class TestMetadataCollisions:
    def test_pid_reuse_across_attempts_merges_labels(self):
        # Two attempts of the same cell share pid=3; the merged trace must
        # keep both identities on the one process row, not let merge order
        # decide which label survives.
        merged = (metadata_events(3, "ncf/0 attempt0")
                  + [_x_event("run", 0, 10, pid=3)]
                  + metadata_events(3, "ncf/0 attempt1")
                  + [_x_event("run", 20, 10, pid=3)])
        deduped = dedupe_metadata_events(merged)
        meta = [e for e in deduped if e["ph"] == "M"]
        assert len(meta) == 1
        assert meta[0]["args"]["name"] == "ncf/0 attempt0 | ncf/0 attempt1"
        # Non-metadata events all survive, in order.
        assert [e["ts"] for e in deduped if e["ph"] == "X"] == [0, 20]

    def test_exact_duplicates_collapse_without_suffix(self):
        events = metadata_events(1, "worker") + metadata_events(1, "worker")
        deduped = dedupe_metadata_events(events)
        assert len(deduped) == 1
        assert deduped[0]["args"]["name"] == "worker"

    def test_distinct_rows_are_untouched(self):
        events = (metadata_events(1, "a", "t", tid=0)
                  + metadata_events(2, "b", "t", tid=0))
        assert len(dedupe_metadata_events(events)) == 4

    def test_intervals_trace_carries_metadata(self):
        doc = chrome_trace_from_intervals(
            [("epoch", 0.0, 1.0, {})], pid=7, process_name="ncf/0")
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert meta and meta[0]["pid"] == 7
        assert meta[0]["args"]["name"] == "ncf/0"
        assert [e["name"] for e in doc["traceEvents"] if e["ph"] == "X"] == ["epoch"]
