"""Prometheus exposition of counters, job states and alerts."""

from repro.telemetry import MetricsRegistry, merge_snapshots, snapshot_lines
from repro.telemetry.export import (
    EXPOSITION_CONTENT_TYPE,
    alert_lines,
    format_labels,
    render_exposition,
    sanitize_metric_name,
    view_lines,
)
from repro.telemetry.monitor import JobView, MonitorView


class TestExposition:
    def test_names_and_labels(self):
        assert sanitize_metric_name("epoch.seconds") == "repro_epoch_seconds"
        assert sanitize_metric_name("9lives") == "repro_9lives"
        assert format_labels({}) == ""
        assert format_labels({"b": 'x"y', "a": "z"}) == '{a="z",b="x\\"y"}'

    def test_counter_gauge_histogram_families(self):
        registry = MetricsRegistry()
        registry.counter("mcts_searches").inc(64)
        snapshot = registry.snapshot()
        # Result files written before the registry held counters only still
        # carry gauge and histogram entries: the merge the server runs over
        # them drops both, so they export nothing.
        snapshot["replay_depth"] = {"type": "gauge", "value": 3.5}
        snapshot["epoch_seconds"] = {"type": "histogram", "count": 1, "sum": 0.5,
                                     "min": 0.5, "max": 0.5, "buckets": [1.0],
                                     "counts": [1, 0]}
        lines = snapshot_lines(merge_snapshots([snapshot]), labels={"campaign": "c1"})
        text = render_exposition([lines])
        assert text.endswith("\n")
        assert lines == ["# TYPE repro_mcts_searches counter",
                         'repro_mcts_searches{campaign="c1"} 64']

    def test_content_type_is_prometheus_text(self):
        assert "version=0.0.4" in EXPOSITION_CONTENT_TYPE

    def test_view_lines_dense_job_states(self):
        view = MonitorView(jobs=[
            JobView(benchmark="b", seed=0, status="reached",
                    time_to_train_s=4.0),
            JobView(benchmark="b", seed=1, status="running"),
        ], now_s=10.0)
        text = "\n".join(view_lines(view, "c1"))
        # Every state exports, zeros included, so scrape series stay dense.
        assert 'repro_campaign_jobs{campaign="c1",status="reached"} 1' in text
        assert 'repro_campaign_jobs{campaign="c1",status="fault"} 0' in text
        assert 'repro_campaign_cells{campaign="c1"} 2' in text
        assert 'repro_campaign_settled_fraction{campaign="c1"} 0.5' in text

    def test_alert_lines(self):
        from repro.telemetry import ActiveAlert

        active = [ActiveAlert(rule="job_stall", kind="job_stall", key="b/0",
                              severity="warning", since_s=5.0, value=40.0,
                              detail="no progress")]
        text = "\n".join(alert_lines(active, "c1"))
        assert ('repro_alert_firing{campaign="c1",key="b/0",'
                'rule="job_stall",severity="warning"} 1') in text
        assert 'repro_alerts_firing_total{campaign="c1"} 1' in text
        empty = "\n".join(alert_lines([], "c1"))
        assert 'repro_alerts_firing_total{campaign="c1"} 0' in empty
