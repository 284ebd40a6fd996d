"""The observability server: HTTP endpoints over a finished campaign.

These tests run a real (FakeClock) campaign on disk, boot the server on
an ephemeral port, and scrape it like Prometheus/a dashboard would. The
tentpole property — consumed bytes never re-read — is asserted against
the tailer's own byte accounting across repeated scrapes.
"""

import io
import json
import threading
import urllib.request

from repro.cli import main
from repro.core.timing import FakeClock
from repro.telemetry import Event, EventLog
from repro.telemetry.serve import ObservabilityServer, discover_campaign_dirs

from .test_monitor import _run_campaign


def _get(url, timeout=10.0):
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.status, resp.headers, resp.read().decode("utf-8")


def _get_json(url):
    status, _, body = _get(url)
    return status, json.loads(body)


class _Server:
    """Context manager: bound server + background serve thread."""

    def __init__(self, root, clock, **kwargs):
        kwargs.setdefault("min_refresh_s", 0.0)
        self.server = ObservabilityServer(root, port=0, clock=clock.now,
                                          **kwargs).bind()
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       daemon=True)

    def __enter__(self):
        self.thread.start()
        return self.server

    def __exit__(self, *exc):
        self.server.shutdown()
        self.thread.join(timeout=10.0)
        self.server.close()


class TestDiscovery:
    def test_root_as_single_campaign(self, tmp_path):
        clock = FakeClock(start=1000.0)
        _run_campaign(tmp_path, clock)
        assert discover_campaign_dirs(tmp_path) == {tmp_path.name: tmp_path}

    def test_root_of_campaign_directories(self, tmp_path):
        clock = FakeClock(start=1000.0)
        _run_campaign(tmp_path / "c1", clock)
        _run_campaign(tmp_path / "c2", clock)
        (tmp_path / "not_a_campaign").mkdir()
        found = discover_campaign_dirs(tmp_path)
        assert sorted(found) == ["c1", "c2"]

    def test_empty_root(self, tmp_path):
        assert discover_campaign_dirs(tmp_path) == {}


class TestEndpoints:
    def test_metrics_api_and_alerts(self, tmp_path):
        clock = FakeClock(start=1000.0)
        _run_campaign(tmp_path, clock)
        cid = tmp_path.name
        with _Server(tmp_path, clock) as srv:
            # /metrics: Prometheus text with job states, alert totals, and
            # the run metrics merged out of the result-file headers.
            status, headers, text = _get(srv.url + "/metrics")
            assert status == 200
            assert "text/plain" in headers["Content-Type"]
            assert f'repro_campaign_jobs{{campaign="{cid}",status="reached"}} 3' in text
            assert f'repro_campaign_cells{{campaign="{cid}"}} 3' in text
            assert f'repro_alerts_firing_total{{campaign="{cid}"}} 0' in text
            assert "# TYPE repro_campaign_jobs gauge" in text
            assert "repro_server_polls" in text

            # /api/campaigns: one settled campaign.
            status, doc = _get_json(srv.url + "/api/campaigns")
            assert status == 200
            (campaign,) = doc["campaigns"]
            assert campaign["id"] == cid
            assert campaign["cells"] == campaign["settled"] == 3
            assert campaign["settled_fraction"] == 1.0
            assert campaign["counts"] == {"reached": 3}
            assert campaign["alerts_firing"] == 0

            # /api/campaigns/<id>/jobs: the monitor table as data.
            status, doc = _get_json(f"{srv.url}/api/campaigns/{cid}/jobs")
            assert status == 200
            jobs = doc["jobs"]
            assert [(j["benchmark"], j["seed"], j["status"]) for j in jobs] \
                == [("fake_benchmark", s, "reached") for s in range(3)]
            assert all(j["quality"] is not None for j in jobs)

            # /api/runs/<id>/<benchmark>/<seed>/series: read from the log.
            status, doc = _get_json(
                f"{srv.url}/api/runs/{cid}/fake_benchmark/1/series")
            assert status == 200
            assert doc["run"] == f"{cid}/fake_benchmark/1"
            assert doc["quality"] is not None

            # /api/alerts: a healthy finished campaign fires nothing.
            status, doc = _get_json(srv.url + "/api/alerts")
            assert status == 200
            assert doc["firing"] == []
            assert isinstance(doc["recent"], list)

            # The index lists every endpoint; junk paths 404 as JSON.
            status, doc = _get_json(srv.url + "/")
            assert status == 200 and "/metrics" in doc["endpoints"]
            req = urllib.request.Request(srv.url + "/api/nope")
            try:
                urllib.request.urlopen(req, timeout=10.0)
                raise AssertionError("expected 404")
            except urllib.error.HTTPError as err:
                assert err.code == 404
                assert "error" in json.loads(err.read().decode())

    def test_series_payload_equals_the_log(self, tmp_path):
        from repro.core import Keys, parse_log_lines

        clock = FakeClock(start=1000.0)
        _run_campaign(tmp_path, clock)
        path = tmp_path / "jobs" / "fake_benchmark" / "seed_1.txt"
        # A header from before the series left it: the log still wins.
        first, _, rest = path.read_text().partition("\n")
        header = json.loads(first[len("# repro-run "):])
        header["series"] = {"epoch_seconds": [[0.0, 1, 999.0]]}
        path.write_text("# repro-run " + json.dumps(header) + "\n" + rest)
        events = parse_log_lines(rest.splitlines())
        with _Server(tmp_path, clock) as srv:
            status, doc = _get_json(
                f"{srv.url}/api/runs/{tmp_path.name}/fake_benchmark/1/series")
        assert status == 200
        series = {name: [(epoch, value) for _, epoch, value in points]
                  for name, points in doc["series"].items()}
        assert series == {
            "epoch_seconds": [(e.metadata["epoch_num"], e.value["epoch_seconds"])
                              for e in events if e.key == Keys.TRACKED_STATS],
            "examples_per_second": [(e.metadata["epoch_num"], e.value)
                                    for e in events if e.key == Keys.THROUGHPUT],
            "eval_quality": [(e.metadata["epoch_num"], e.value)
                             for e in events if e.key == Keys.EVAL_ACCURACY],
        }
        assert doc["quality"] == header["quality"]

    def test_unknown_campaign_and_run_404(self, tmp_path):
        clock = FakeClock(start=1000.0)
        _run_campaign(tmp_path, clock)
        with _Server(tmp_path, clock) as srv:
            for path in (f"/api/campaigns/ghost/jobs",
                         f"/api/runs/{tmp_path.name}/ghost/9/series"):
                try:
                    urllib.request.urlopen(srv.url + path, timeout=10.0)
                    raise AssertionError("expected 404")
                except urllib.error.HTTPError as err:
                    assert err.code == 404

    def test_sse_streams_campaign_events(self, tmp_path):
        clock = FakeClock(start=1000.0)
        _run_campaign(tmp_path, clock)
        with _Server(tmp_path, clock) as srv:
            # Prime the ring so the stream has history to replay.
            srv.refresh(force=True)
            req = urllib.request.Request(srv.url + "/events")
            with urllib.request.urlopen(req, timeout=10.0) as resp:
                assert "text/event-stream" in resp.headers["Content-Type"]
                raw = resp.read(4096).decode("utf-8")
            frames = [f for f in raw.split("\n\n") if f.startswith("id:")]
            assert frames
            first = frames[0].split("\n")
            assert first[0] == "id: 1"
            data = json.loads(first[2][len("data: "):])
            assert data["campaign"] == tmp_path.name
            assert "name" in data and "time_s" in data


class TestAlertLog:
    """The server's alerts.jsonl comes from the schedule replay runs."""

    @staticmethod
    def _serve_once(root, now_s):
        srv = ObservabilityServer(root, clock=lambda: now_s,
                                  min_refresh_s=0.0)
        try:
            srv.refresh(force=True)
        finally:
            srv.close()
        return (root / "alerts.jsonl").read_bytes()

    def test_server_log_equals_replay_at_the_same_instant(self, tmp_path):
        # The 2-seed campaign regresses mid-run on both cells: a server
        # attached after the fact must log those transitions, not only
        # what is firing at its own clock.
        clock = FakeClock(start=1000.0)
        _run_campaign(tmp_path, clock, seeds=2)
        served = self._serve_once(tmp_path, clock.now())
        assert b"quality_regression" in served
        code = main(["alerts", str(tmp_path), "--now", str(clock.now())],
                    out=io.StringIO())
        assert code == 0
        assert (tmp_path / "alerts.jsonl").read_bytes() == served

    def test_restarted_server_rewrites_its_log(self, tmp_path):
        with EventLog(tmp_path / "events" / "b_seed0.jsonl") as log:
            log.write(Event("run_start", 100.0, 1,
                            {"benchmark": "b", "seed": 0}))
        first = self._serve_once(tmp_path, 1000.0)
        assert len(first.splitlines()) == 2  # job_stall + heartbeat_loss
        assert self._serve_once(tmp_path, 1000.0) == first


class TestOneStallDefinition:
    """The monitor's stalled state and the job_stall alert are one rule."""

    def test_view_and_alerts_cross_the_thresholds_together(self, tmp_path):
        cell = {"benchmark": "b", "seed": 0}
        with EventLog(tmp_path / "events" / "b_seed0.jsonl") as log:
            log.write(Event("job_start", 100.0, 0, dict(cell, attempt=0)))
            log.write(Event("run_start", 100.0, 0, dict(cell, target=0.8)))
            log.write(Event("epoch", 105.0, 0,
                            {"epoch": 1, "samples_total": 32}))
        clock = FakeClock(start=105.0)  # the job's last event

        def observe(srv):
            _, doc = _get_json(srv.url + "/api/campaigns")
            (campaign,) = doc["campaigns"]
            _, jobs = _get_json(srv.url + f"/api/campaigns/{tmp_path.name}"
                                          "/jobs")
            _, alerts = _get_json(srv.url + "/api/alerts")
            return (campaign["stalled_jobs"],
                    [job["status"] for job in jobs["jobs"]],
                    {a["rule"]: a["severity"] for a in alerts["firing"]})

        with _Server(tmp_path, clock) as srv:
            clock.advance(29.9)
            assert observe(srv) == (0, ["running"], {})
            clock.advance(0.2)
            assert observe(srv) == (1, ["stalled"], {"job_stall": "warning"})
            clock.advance(90.0)
            assert observe(srv) == (1, ["stalled"], {
                "job_stall": "warning", "heartbeat_loss": "critical"})


class TestZeroReread:
    def test_scrapes_never_reread_consumed_bytes(self, tmp_path):
        clock = FakeClock(start=1000.0)
        _run_campaign(tmp_path, clock)
        stream_bytes = sum(p.stat().st_size
                           for p in (tmp_path / "events").glob("*.jsonl"))
        srv = ObservabilityServer(tmp_path, clock=clock.now, min_refresh_s=0.0)
        try:
            first = srv.metrics_text()
            state = srv.campaigns[tmp_path.name]
            assert state.tailer.consumed_bytes == stream_bytes
            polls_before = state.tailer._cursors and max(
                c.polls for c in state.tailer._cursors.values())
            for _ in range(10):
                clock.advance(1.0)
                srv.metrics_text()
            # Ten more scrapes: every cursor polled again, zero new bytes.
            assert state.tailer.consumed_bytes == stream_bytes
            assert all(c.polls > polls_before
                       for c in state.tailer._cursors.values())
            assert f'repro_server_consumed_bytes_{tmp_path.name}' in first
        finally:
            srv.close()

    def test_refresh_is_coalesced_under_min_refresh(self, tmp_path):
        clock = FakeClock(start=1000.0)
        _run_campaign(tmp_path, clock)
        srv = ObservabilityServer(tmp_path, clock=clock.now, min_refresh_s=5.0)
        try:
            srv.refresh()
            state = srv.campaigns[tmp_path.name]
            polls = state.tailer._cursors and max(
                c.polls for c in state.tailer._cursors.values())
            for _ in range(10):
                srv.refresh()  # same fake instant: all coalesced away
            assert max(c.polls
                       for c in state.tailer._cursors.values()) == polls
        finally:
            srv.close()

    def test_direct_payloads_without_http(self, tmp_path):
        """The payload layer works standalone (CLI smoke path)."""
        clock = FakeClock(start=1000.0)
        _run_campaign(tmp_path, clock)
        srv = ObservabilityServer(tmp_path, clock=clock.now, min_refresh_s=0.0,
                                  write_alerts=False)
        try:
            assert srv.campaigns_payload()[0]["counts"] == {"reached": 3}
            assert srv.jobs_payload(tmp_path.name) is not None
            assert srv.jobs_payload("ghost") is None
            assert srv.alerts_payload()["firing"] == []
            assert not (tmp_path / "alerts.jsonl").exists()
        finally:
            srv.close()
