"""The live observability server: HTTP over the telemetry file streams.

``repro serve-metrics <root>`` turns the pull-only campaign surfaces
(journal, ``events/*.jsonl``, result files) into a service without adding
a single runtime dependency — everything is ``http.server`` + the same
file-only views the monitor uses, so the server can watch campaigns run
by *other* processes and cannot crash them.

Endpoints:

``/metrics``
    Prometheus text exposition (:mod:`repro.telemetry.export`): merged
    run counters per campaign, job-state gauges, firing alerts, and the
    server's own tailing counters.
``/api/campaigns``, ``/api/campaigns/<id>``, ``/api/campaigns/<id>/jobs``
    JSON monitor views (the ``repro monitor`` table as data).
``/api/runs/<campaign>/<benchmark>/<seed>/series``
    The run's per-epoch series, read back out of its result file's log
    (:func:`~repro.telemetry.profile.series_from_log_events`).
``/api/alerts``
    Currently-firing alerts plus the recent transition log.
``/events``
    Server-Sent Events: every newly-consumed telemetry event and alert
    transition, fed from an in-memory ring buffer — SSE fan-out never
    re-reads files, preserving the cursor layer's zero re-read property.

Incrementality is structural: each campaign is tailed by a
:class:`~repro.telemetry.monitor.CampaignTailer` (offset-tracking
:class:`~repro.telemetry.events.EventCursor` per stream) whose one fold
every endpoint shares.  Each poll's fresh events, from byte 0 on the
first, go through the schedule ``repro alerts`` replays
(:meth:`~repro.telemetry.alerts.AlertEngine.advance`), so a finished
campaign's rewritten ``alerts.jsonl`` equals the replay's byte for byte.
A refresh of a quiet campaign costs ``stat`` calls only.  The alert
policy, and with it the stall threshold ``stalled_jobs`` counts by, is
the fixed :data:`~repro.telemetry.alerts.RULES` table, so the server
takes no rules or thresholds of its own.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Callable
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..core.artifacts import read_run_header
from ..core.mllog import parse_log_lines
from ..exec.journal import CampaignJournal
from .alerts import AlertEngine
from .events import Event, EventLog
from .export import (EXPOSITION_CONTENT_TYPE, alert_lines, render_exposition,
                     snapshot_lines, view_lines)
from .metrics import MetricsRegistry, merge_snapshots
from .monitor import CampaignTailer, MonitorView, campaign_dir_problem
from .profile import series_from_log_events

__all__ = ["ObservabilityServer", "discover_campaign_dirs", "ALERTS_LOG_NAME"]

ALERTS_LOG_NAME = "alerts.jsonl"

# SSE ring depth: late subscribers replay at most this much history.
_RING_DEPTH = 2048


def discover_campaign_dirs(root: str | Path) -> dict[str, Path]:
    """Map campaign id -> directory under ``root``.

    ``root`` may itself be a campaign directory (id = its name) or a
    directory of campaign directories — the layout a campaign service
    accumulates.  Anything :func:`campaign_dir_problem` rejects is
    skipped, not fatal: the server must boot next to half-provisioned
    directories.
    """
    root = Path(root)
    if campaign_dir_problem(root) is None:
        return {root.name or "campaign": root}
    found: dict[str, Path] = {}
    if root.is_dir():
        for child in sorted(root.iterdir()):
            if child.is_dir() and campaign_dir_problem(child) is None:
                found[child.name] = child
    return found


class _CampaignState:
    """One tailed campaign: tailer, alert engine, latest view, run cache."""

    def __init__(self, campaign_id: str, directory: Path, *,
                 write_alerts: bool):
        self.id = campaign_id
        self.directory = directory
        self.tailer = CampaignTailer(directory)
        sink = None
        if write_alerts:
            # mode="w": the engine replays every stream from byte 0, so a
            # restarted server rewrites the log instead of appending to it.
            self._alerts_log = EventLog(directory / ALERTS_LOG_NAME, mode="w")
            sink = self._alerts_log.write
        else:
            self._alerts_log = None
        self.engine = AlertEngine(sink=sink)
        self.view: MonitorView | None = None
        self.transitions: deque[Event] = deque(maxlen=_RING_DEPTH)
        self._header_cache: dict[str, tuple[float, dict[str, Any]]] = {}

    def refresh(self, now_s: float) -> list[Event]:
        """Tail, fold, evaluate; return fresh events + alert transitions."""
        fresh = self.tailer.poll_events()
        new = self.engine.advance(self.tailer.fold, fresh, now_s)
        self.view = self.tailer.view(now_s)
        self.transitions.extend(new)
        return fresh + new

    def close(self) -> None:
        if self._alerts_log is not None:
            self._alerts_log.close()

    # -- result-file access (headers mtime-cached, no ndarray load) --------
    def _journal(self) -> CampaignJournal:
        """The journal that names the attempt files; empty while unreadable
        (absent, or foreign to this version)."""
        try:
            return CampaignJournal.load(self.directory)
        except (OSError, ValueError, TypeError):
            return CampaignJournal(self.directory)

    def _header(self, path: Path) -> dict[str, Any] | None:
        """A result file's header; None while it is absent or unreadable
        (a job still writing it, a damaged file)."""
        try:
            mtime = path.stat().st_mtime_ns
            cached = self._header_cache.get(str(path))
            if cached is not None and cached[0] == mtime:
                return cached[1]
            header = read_run_header(path)
        except (OSError, ValueError):
            self._header_cache.pop(str(path), None)
            return None
        self._header_cache[str(path)] = (mtime, header)
        return header

    def latest_run(self, benchmark: str,
                   seed: str) -> tuple[dict[str, Any], dict[str, Any]] | None:
        """The header and per-epoch series (from its log) of the cell's
        latest attempt; None while either is absent or unreadable."""
        files = self._journal().attempt_files(benchmark, seed)
        header = self._header(files[-1]) if files else None
        if header is None:
            return None
        try:
            with open(files[-1], encoding="utf-8", errors="replace") as fh:
                return header, series_from_log_events(parse_log_lines(fh))
        except (OSError, ValueError):
            return None

    def metric_snapshots(self) -> list[dict[str, Any]]:
        """Every recorded attempt's metrics snapshot (for /metrics merging)."""
        journal = self._journal()
        headers = (self._header(path) for rec in journal.jobs.values()
                   for path in journal.attempt_files(rec.benchmark, rec.seed))
        return [header["metrics"] for header in headers
                if header and header.get("metrics")]


class ObservabilityServer:
    """Shared state + HTTP front for ``repro serve-metrics``.

    ``clock`` is injectable (FakeClock in tests) and is the only time
    source for views and alert stamps; ``min_refresh_s`` coalesces
    concurrent scrapes so N dashboards do not multiply file polls.
    """

    def __init__(self, root: str | Path, *,
                 host: str = "127.0.0.1", port: int = 0,
                 clock: Callable[[], float] | None = None,
                 min_refresh_s: float = 0.5,
                 poll_interval_s: float = 1.0,
                 write_alerts: bool = True):
        self.root = Path(root)
        self.host, self.port = host, port
        self.clock = clock or time.time
        self.min_refresh_s = float(min_refresh_s)
        self.poll_interval_s = float(poll_interval_s)
        self.write_alerts = write_alerts
        self.metrics = MetricsRegistry()
        self.campaigns: dict[str, _CampaignState] = {}
        self._lock = threading.Lock()
        self._last_refresh: float | None = None
        # SSE ring: (seq, campaign_id, event) with a condition to wake
        # streaming clients the instant a refresh produces anything new.
        self._ring: deque[tuple[int, str, Event]] = deque(maxlen=_RING_DEPTH)
        self._seq = 0
        self._ring_cond = threading.Condition()
        self._httpd: ThreadingHTTPServer | None = None

    # -- state ---------------------------------------------------------------
    def _discover(self) -> None:
        for cid, directory in discover_campaign_dirs(self.root).items():
            if cid not in self.campaigns:
                self.campaigns[cid] = _CampaignState(
                    cid, directory, write_alerts=self.write_alerts)

    def refresh(self, force: bool = False) -> None:
        """Poll every campaign once (coalesced under ``min_refresh_s``)."""
        with self._lock:
            now = float(self.clock())
            if (not force and self._last_refresh is not None
                    and now - self._last_refresh < self.min_refresh_s):
                return
            self._last_refresh = now
            self._discover()
            self.metrics.counter("server_polls").inc()
            published: list[tuple[int, str, Event]] = []
            for cid in sorted(self.campaigns):
                state = self.campaigns[cid]
                for event in state.refresh(now):
                    self._seq += 1
                    published.append((self._seq, cid, event))
                consumed = self.metrics.counter(f"server_consumed_bytes_{cid}")
                consumed.inc(state.tailer.consumed_bytes - consumed.value)
            if published:
                self.metrics.counter("server_events_published").inc(
                    len(published))
        if published:
            with self._ring_cond:
                self._ring.extend(published)
                self._ring_cond.notify_all()

    # -- views ---------------------------------------------------------------
    def metrics_text(self) -> str:
        self.refresh()
        sections: list[list[str]] = []
        with self._lock:
            for cid in sorted(self.campaigns):
                state = self.campaigns[cid]
                if state.view is not None:
                    sections.append(view_lines(state.view, cid))
                sections.append(alert_lines(state.engine.active(), cid))
                merged = merge_snapshots(state.metric_snapshots())
                if merged:
                    sections.append(snapshot_lines(
                        merged, labels={"campaign": cid}))
            sections.append(snapshot_lines(self.metrics.snapshot(),
                                           prefix="repro_"))
        return render_exposition(sections)

    def _job_payload(self, job) -> dict[str, Any]:
        return {"benchmark": job.benchmark, "seed": job.seed,
                "status": job.status, "attempts": job.attempts,
                "epoch": job.epoch, "step": job.step,
                "quality": job.quality,
                "time_to_train_s": job.time_to_train_s,
                "heartbeat_age_s": job.heartbeat_age_s,
                "stalled": job.stalled, "error": job.error}

    def campaigns_payload(self) -> list[dict[str, Any]]:
        self.refresh()
        out = []
        with self._lock:
            for cid in sorted(self.campaigns):
                state = self.campaigns[cid]
                view = state.view
                if view is None:
                    continue
                settled, total, fraction = view.completion()
                out.append({
                    "id": cid, "cells": total, "settled": settled,
                    "settled_fraction": fraction,
                    "counts": view.counts(), "eta_s": view.eta_s(),
                    "stalled_jobs": len(view.stalled_jobs),
                    "alerts_firing": len(state.engine.active()),
                    "events": len(view.events),
                })
        return out

    def jobs_payload(self, cid: str) -> list[dict[str, Any]] | None:
        self.refresh()
        with self._lock:
            state = self.campaigns.get(cid)
            if state is None or state.view is None:
                return None
            return [self._job_payload(j) for j in state.view.jobs]

    def series_payload(self, cid: str, benchmark: str,
                       seed: str) -> dict[str, Any] | None:
        self.refresh()
        with self._lock:
            state = self.campaigns.get(cid)
            if state is None:
                return None
            latest = state.latest_run(benchmark, seed)
            if latest is None:
                return None
            header, series = latest
            return {"run": f"{cid}/{benchmark}/{seed}",
                    "quality": header.get("quality"),
                    "epochs": header.get("epochs"),
                    "time_to_train_s": header.get("time_to_train_s"),
                    "series": series}

    def alerts_payload(self) -> dict[str, Any]:
        self.refresh()
        with self._lock:
            firing, recent = [], []
            for cid in sorted(self.campaigns):
                state = self.campaigns[cid]
                firing.extend(dict(a.to_payload(), campaign=cid)
                              for a in state.engine.active())
                recent.extend(
                    {"campaign": cid, "event": ev.name, "time_s": ev.time_s,
                     **ev.args} for ev in state.transitions)
            recent.sort(key=lambda t: t["time_s"])
            return {"firing": firing, "recent": recent[-200:]}

    # -- SSE -----------------------------------------------------------------
    def sse_after(self, seq: int, timeout_s: float
                  ) -> list[tuple[int, str, Event]]:
        """Ring entries newer than ``seq``, waiting up to ``timeout_s``."""
        deadline = time.monotonic() + timeout_s
        with self._ring_cond:
            while True:
                fresh = [entry for entry in self._ring if entry[0] > seq]
                if fresh:
                    return fresh
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return []
                self._ring_cond.wait(min(remaining, self.poll_interval_s))

    # -- HTTP ----------------------------------------------------------------
    def bind(self) -> "ObservabilityServer":
        """Bind the listening socket (resolves port 0 to the real port)."""
        server = self

        class Handler(_Handler):
            observability = server

        self._httpd = ThreadingHTTPServer((self.host, self.port), Handler)
        self._httpd.daemon_threads = True
        self.port = self._httpd.server_address[1]
        return self

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def serve_forever(self) -> None:
        if self._httpd is None:
            self.bind()
        try:
            self._httpd.serve_forever(poll_interval=0.2)
        finally:
            self.close()

    def shutdown(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()

    def close(self) -> None:
        if self._httpd is not None:
            self._httpd.server_close()
        for state in self.campaigns.values():
            state.close()


class _Handler(BaseHTTPRequestHandler):
    observability: ObservabilityServer  # injected by bind()
    protocol_version = "HTTP/1.1"

    # Keep request handling quiet: the server's stdout belongs to the CLI.
    def log_message(self, fmt, *args):
        return None

    def _send(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, payload: Any, status: int = 200) -> None:
        body = json.dumps(payload, indent=2, sort_keys=True).encode("utf-8")
        self._send(status, body + b"\n", "application/json; charset=utf-8")

    def _not_found(self, what: str) -> None:
        self._send_json({"error": f"{what} not found"}, status=404)

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        srv = self.observability
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        parts = [p for p in path.split("/") if p]
        try:
            if path == "/metrics":
                self._send(200, srv.metrics_text().encode("utf-8"),
                           EXPOSITION_CONTENT_TYPE)
            elif path == "/api/campaigns":
                self._send_json({"campaigns": srv.campaigns_payload()})
            elif parts[:2] == ["api", "campaigns"] and len(parts) in (3, 4):
                cid = parts[2]
                jobs = srv.jobs_payload(cid)
                if jobs is None:
                    return self._not_found(f"campaign {cid!r}")
                if len(parts) == 3:
                    summary = [c for c in srv.campaigns_payload()
                               if c["id"] == cid]
                    self._send_json(dict(summary[0], jobs=jobs)
                                    if summary else {"id": cid, "jobs": jobs})
                elif parts[3] == "jobs":
                    self._send_json({"campaign": cid, "jobs": jobs})
                else:
                    self._not_found(path)
            elif (parts[:2] == ["api", "runs"] and len(parts) == 6
                  and parts[5] == "series"):
                payload = srv.series_payload(parts[2], parts[3], parts[4])
                if payload is None:
                    return self._not_found(f"run {'/'.join(parts[2:5])!r}")
                self._send_json(payload)
            elif path == "/api/alerts":
                self._send_json(srv.alerts_payload())
            elif path == "/events":
                self._serve_sse()
            elif path == "/":
                self._send_json({"endpoints": [
                    "/metrics", "/api/campaigns", "/api/campaigns/<id>",
                    "/api/campaigns/<id>/jobs",
                    "/api/runs/<campaign>/<benchmark>/<seed>/series",
                    "/api/alerts", "/events"]})
            else:
                self._not_found(path)
        except BrokenPipeError:
            pass

    def _serve_sse(self) -> None:
        srv = self.observability
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream; charset=utf-8")
        self.send_header("Cache-Control", "no-cache")
        self.end_headers()
        last_seq = 0
        if "Last-Event-ID" in self.headers:
            try:
                last_seq = int(self.headers["Last-Event-ID"])
            except ValueError:
                pass
        try:
            while True:
                srv.refresh()
                fresh = srv.sse_after(last_seq, srv.poll_interval_s)
                if not fresh:
                    self.wfile.write(b": keep-alive\n\n")
                    self.wfile.flush()
                    continue
                for seq, cid, event in fresh:
                    data = json.dumps(
                        {"campaign": cid, "name": event.name,
                         "time_s": event.time_s, "pid": event.pid,
                         "args": event.args}, sort_keys=True)
                    self.wfile.write(
                        f"id: {seq}\nevent: {event.name}\n"
                        f"data: {data}\n\n".encode("utf-8"))
                    last_seq = seq
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            return
