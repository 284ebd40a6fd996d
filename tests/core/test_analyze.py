"""Trace-analysis engine: critical path, gaps, folded stacks."""

import json

import pytest

from repro.telemetry import (
    TraceAnalysis,
    analyze_campaign_dir,
    analyze_trace,
    chrome_trace_from_intervals,
    dedupe_metadata_events,
    metadata_events,
    spans_from_events,
)
from repro.telemetry.analyze import (
    TraceSpan,
    align_span_origins,
    critical_path,
    critical_path_shares,
    folded_stacks,
    spans_from_campaign_events,
    top_gaps,
    top_spans,
)


def _span(name, start, end, pid=0, tid=0, **args):
    return TraceSpan(name=name, pid=pid, tid=tid,
                     start_us=float(start), end_us=float(end), args=args)


def _x_event(name, ts, dur, pid=0, tid=0):
    return {"name": name, "ph": "X", "ts": ts, "dur": dur,
            "pid": pid, "tid": tid, "args": {}}


class TestSpanExtraction:
    def test_metadata_and_instants_are_skipped(self):
        events = (metadata_events(1, "worker-1", "main")
                  + [_x_event("epoch", 0, 100),
                     {"name": "mark", "ph": "i", "ts": 5, "pid": 0, "tid": 0}])
        spans = spans_from_events(events)
        assert [s.name for s in spans] == ["epoch"]

    def test_origin_alignment_shifts_each_pid_to_zero(self):
        spans = [_span("run", 1000, 1100, pid=0), _span("run", 5000, 5120, pid=1)]
        aligned = align_span_origins(spans)
        assert [(s.start_us, s.end_us) for s in aligned] == [(0, 100), (0, 120)]


class TestCriticalPath:
    def test_straggler_and_deepest_active_decomposition(self):
        spans = [
            _span("run", 0, 100, pid=0),
            # pid 1 ends latest -> the straggler.
            _span("run", 0, 120, pid=1),
            _span("epoch", 10, 60, pid=1),
            _span("step", 20, 40, pid=1),
        ]
        path = critical_path(spans)
        assert all(seg["pid"] == 1 for seg in path)
        # Segments tile [0, 120] exactly once: no double counting.
        assert sum(seg["dur_us"] for seg in path) == pytest.approx(120.0)
        shares = critical_path_shares(path)
        # run covers [0,10)+[60,120] = 70, epoch [10,20)+[40,60) = 30, step 20.
        assert shares["run"] == pytest.approx(70 / 120)
        assert shares["epoch"] == pytest.approx(30 / 120)
        assert shares["step"] == pytest.approx(20 / 120)

    def test_gap_between_roots_is_charged_to_gap(self):
        spans = [_span("a", 0, 10), _span("b", 30, 40)]
        path = critical_path(spans)
        assert [seg["name"] for seg in path] == ["a", "(gap)", "b"]
        assert path[1]["dur_us"] == pytest.approx(20.0)

    def test_path_is_deterministic(self):
        spans = [_span("run", 0, 100, pid=p) for p in (3, 1, 2)]
        spans += [_span("epoch", 10, 50, pid=2), _span("epoch", 20, 80, pid=1)]
        assert critical_path(spans) == critical_path(list(reversed(spans)))


class TestAggregates:
    def test_top_spans_ranked_by_total(self):
        spans = [_span("epoch", 0, 50), _span("epoch", 50, 90),
                 _span("eval", 90, 100)]
        rows = top_spans(spans, k=2)
        assert [r["name"] for r in rows] == ["epoch", "eval"]
        assert rows[0]["calls"] == 2 and rows[0]["total_us"] == 90
        assert rows[0]["share_of_wall"] == pytest.approx(0.9)

    def test_top_gaps_finds_idle_between_siblings(self):
        spans = [_span("epoch", 0, 100), _span("step", 10, 20),
                 _span("step", 45, 55)]
        gaps = top_gaps(spans)
        assert len(gaps) == 1
        assert gaps[0]["parent"] == "epoch"
        assert gaps[0]["dur_us"] == pytest.approx(25.0)

    def test_folded_stacks_format_and_self_time(self):
        spans = [_span("run", 0, 100), _span("epoch", 10, 60)]
        lines = folded_stacks(spans)
        assert lines == ["pid0;run 50", "pid0;run;epoch 50"]


class TestAnalyzeTrace:
    def _doc(self):
        events = []
        for pid in (0, 1):
            base = pid * 10_000  # disjoint per-pid clocks -> auto-align
            events.append(_x_event("run", base, 100 + 20 * pid, pid=pid))
            events.append(_x_event("epoch", base + 10, 50, pid=pid))
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def test_analysis_is_deterministic_and_serializable(self):
        a = analyze_trace(self._doc(), top=5)
        b = analyze_trace(self._doc(), top=5)
        assert isinstance(a, TraceAnalysis)
        assert json.dumps(a.to_payload(), sort_keys=True) == \
            json.dumps(b.to_payload(), sort_keys=True)
        payload = a.to_payload()
        assert payload["schema"] == "repro.trace_analysis.v1"
        assert payload["aligned"] is True
        assert payload["span_count"] == 4

    def test_straggler_is_the_slower_pid_after_alignment(self):
        analysis = analyze_trace(self._doc())
        assert analysis.critical_path[0]["pid"] == 1
        assert analysis.wall_us == pytest.approx(120.0)

    def test_render_mentions_key_sections(self):
        text = analyze_trace(self._doc()).render()
        assert "critical path" in text and "top spans" in text


class TestCampaignAnalysis:
    class _Event:
        def __init__(self, name, pid, time_s, **args):
            self.name, self.pid, self.time_s, self.args = name, pid, time_s, args

    def test_spans_reconstructed_from_lifecycle_events(self):
        events = [
            self._Event("run_start", 0, 100.0, benchmark="ncf", seed=3),
            self._Event("epoch", 0, 101.5, epoch=1, epoch_seconds=1.5),
            self._Event("run_stop", 0, 102.0, status="success"),
            self._Event("run_start", 1, 100.0, benchmark="ncf", seed=4),
            self._Event("epoch", 1, 103.0, epoch=1, epoch_seconds=3.0),
        ]
        spans = spans_from_campaign_events(events)
        by_name = {(s.name, s.pid): s for s in spans}
        run0 = by_name[("run:ncf", 0)]
        assert run0.dur_us == pytest.approx(2e6)
        assert "truncated" not in run0.args
        # pid 1 never stopped: closed at its last event, flagged truncated.
        run1 = by_name[("run:ncf", 1)]
        assert run1.args["truncated"] is True
        assert run1.end_us == pytest.approx(103.0 * 1e6)

    def test_campaign_dir_without_streams_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            analyze_campaign_dir(tmp_path)

    def test_campaign_dir_end_to_end(self, tmp_path):
        events_dir = tmp_path / "events"
        events_dir.mkdir()
        lines = [
            {"name": "run_start", "pid": 0, "time_s": 10.0,
             "args": {"benchmark": "fake", "seed": 0}},
            {"name": "epoch", "pid": 0, "time_s": 11.0,
             "args": {"epoch": 1, "epoch_seconds": 1.0}},
            {"name": "run_stop", "pid": 0, "time_s": 11.5,
             "args": {"status": "success"}},
        ]
        (events_dir / "job0.jsonl").write_text(
            "\n".join(json.dumps(line) for line in lines) + "\n")
        analysis = analyze_campaign_dir(tmp_path)
        assert analysis.span_count == 2
        # Deepest-active: epoch covers [10, 11], the run tail [11, 11.5].
        assert [seg["name"] for seg in analysis.critical_path] == \
            ["epoch", "run:fake"]


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
