"""Prometheus text exposition over the telemetry file surfaces.

The observability server's ``/metrics`` endpoint speaks the Prometheus
text format (version 0.0.4) so any off-the-shelf scraper can watch a
campaign.  Everything here is a pure function from already-loaded state
— :meth:`~repro.telemetry.metrics.MetricsRegistry.snapshot` dicts,
:class:`~repro.telemetry.monitor.MonitorView` job tables, alert states —
to exposition lines; no I/O, no sockets, fully deterministic, so the
format is unit-testable without a server.

Mapping rules:

- counters export verbatim under a sanitized ``repro_`` name (the
  registry holds nothing else; epoch time, eval time and throughput are
  in each run's §4.1 log and its ``/api/runs/.../series``);
- job states become ``repro_campaign_jobs{campaign=...,status=...}``
  gauges plus per-campaign progress/stall summaries;
- alerts become a 0/1 ``repro_alert_firing`` gauge per (rule, subject).
"""

from __future__ import annotations

import math
import re
from typing import Any, Iterable, Mapping

__all__ = ["EXPOSITION_CONTENT_TYPE", "sanitize_metric_name", "format_labels",
           "snapshot_lines", "view_lines", "alert_lines", "render_exposition"]

EXPOSITION_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_NAME_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_metric_name(name: str, prefix: str = "repro_") -> str:
    """Coerce an internal metric name into the Prometheus charset."""
    name = _NAME_BAD_CHARS.sub("_", f"{prefix}{name}")
    if not _NAME_OK.match(name):
        name = "_" + name
    return name


def _escape_label(value: Any) -> str:
    return str(value).replace("\\", r"\\").replace('"', r'\"').replace("\n", r"\n")


def format_labels(labels: Mapping[str, Any] | None) -> str:
    """Render a label set: ``{}`` -> ``""``, else ``{k="v",...}`` sorted."""
    if not labels:
        return ""
    inner = ",".join(f'{key}="{_escape_label(labels[key])}"'
                     for key in sorted(labels))
    return "{" + inner + "}"


def _fmt(value: float) -> str:
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def snapshot_lines(snapshot: Mapping[str, Mapping[str, Any]],
                   labels: Mapping[str, Any] | None = None,
                   prefix: str = "repro_") -> list[str]:
    """Exposition lines for one :meth:`MetricsRegistry.snapshot` dict
    (or a :func:`~repro.telemetry.metrics.merge_snapshots` of several)."""
    lines: list[str] = []
    label_txt = format_labels(labels)
    for raw_name in sorted(snapshot):
        name = sanitize_metric_name(raw_name, prefix)
        lines.append(f"# TYPE {name} counter")
        lines.append(f"{name}{label_txt} {_fmt(snapshot[raw_name]['value'])}")
    return lines


# Every state a JobView can carry; exporting the full vector (zeros
# included) keeps scrape series dense so rate()/deltas behave.
_JOB_STATES = ("pending", "running", "stalled", "reached", "quality_miss",
               "fault", "timeout")


def view_lines(view, campaign: str) -> list[str]:
    """Job-state and progress gauges for one campaign's MonitorView."""
    lines = ["# TYPE repro_campaign_jobs gauge"]
    counts = view.counts()
    for status in _JOB_STATES:
        labels = format_labels({"campaign": campaign, "status": status})
        lines.append(f"repro_campaign_jobs{labels} {counts.get(status, 0)}")
    settled, total, fraction = view.completion()
    labels = format_labels({"campaign": campaign})
    lines.append("# TYPE repro_campaign_cells gauge")
    lines.append(f"repro_campaign_cells{labels} {total}")
    lines.append("# TYPE repro_campaign_settled_fraction gauge")
    lines.append(f"repro_campaign_settled_fraction{labels} "
                 f"{_fmt(fraction if fraction is not None else 0.0)}")
    eta = view.eta_s()
    if eta is not None:
        lines.append("# TYPE repro_campaign_eta_seconds gauge")
        lines.append(f"repro_campaign_eta_seconds{labels} {_fmt(eta)}")
    lines.append("# TYPE repro_campaign_stalled_jobs gauge")
    lines.append(f"repro_campaign_stalled_jobs{labels} {len(view.stalled_jobs)}")
    return lines


def alert_lines(active: Iterable[Any], campaign: str) -> list[str]:
    """One 0/1 gauge sample per currently-firing alert."""
    lines = ["# TYPE repro_alert_firing gauge"]
    count = 0
    for alert in active:
        labels = format_labels({"campaign": campaign, "rule": alert.rule,
                                "key": alert.key,
                                "severity": alert.severity})
        lines.append(f"repro_alert_firing{labels} 1")
        count += 1
    labels = format_labels({"campaign": campaign})
    lines.append("# TYPE repro_alerts_firing_total gauge")
    lines.append(f"repro_alerts_firing_total{labels} {count}")
    return lines


def render_exposition(sections: Iterable[list[str]]) -> str:
    """Join line groups into one exposition body (trailing newline, as
    the format requires)."""
    lines: list[str] = []
    for section in sections:
        lines.extend(section)
    return "\n".join(lines) + "\n"
