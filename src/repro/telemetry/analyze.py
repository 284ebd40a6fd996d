"""Trace analysis: critical path, gaps, and flamegraph export.

PR 5 made runs *emit* Chrome traces and per-worker event streams; this
module makes them *answer questions*.  Everything operates on plain
``trace_event`` dicts (or :class:`~repro.telemetry.events.Event` streams
reconstructed into spans), so it works identically on a live tracer's
export, a saved ``--trace`` file, and a campaign directory:

- **Clock-aligned merge.**  Workers stamp events with their own clock
  origin; when per-pid time ranges are disjoint (the tell-tale of
  different origins), each pid is shifted so its earliest span starts at
  zero, making cross-process comparison meaningful.  The heuristic is
  overridable (``align=True/False``).
- **Critical path.**  For the straggler process (the pid/tid whose last
  span ends latest — the one that *set* time-to-train), the span forest
  is decomposed into the deepest-active segment at every instant, so
  "where did the wall-clock go" has a single deterministic answer.
- **Top-k span and gap tables** and a **folded-stacks export**
  (``pid0;run;epoch 12345`` lines) that feeds any flamegraph renderer.

Determinism: every ordering is an explicit sort on values present in
the input, so the same trace always produces the same analysis —
``repro analyze`` output is diffable and testable under FakeClock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence

__all__ = ["TraceSpan", "TraceAnalysis", "TRACE_ANALYSIS_SCHEMA",
           "spans_from_events", "align_span_origins", "critical_path",
           "top_spans", "top_gaps", "folded_stacks",
           "analyze_trace", "spans_from_campaign_events",
           "analyze_campaign_dir"]

TRACE_ANALYSIS_SCHEMA = "repro.trace_analysis.v1"

_GAP = "(gap)"


@dataclass(frozen=True)
class TraceSpan:
    """One closed interval from a trace, in microseconds."""

    name: str
    pid: int
    tid: int
    start_us: float
    end_us: float
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def dur_us(self) -> float:
        return self.end_us - self.start_us


def spans_from_events(events: Iterable[dict[str, Any]]) -> list[TraceSpan]:
    """Closed ``"X"`` events as :class:`TraceSpan`; metadata/instants skip."""
    spans = []
    for event in events:
        if event.get("ph") != "X":
            continue
        ts = float(event.get("ts", 0.0))
        dur = float(event.get("dur", 0.0))
        spans.append(TraceSpan(
            name=str(event.get("name", "?")),
            pid=int(event.get("pid", 0)),
            tid=int(event.get("tid", 0)),
            start_us=ts,
            end_us=ts + max(dur, 0.0),
            args=dict(event.get("args") or {}),
        ))
    return spans


def _pid_extents(spans: Sequence[TraceSpan]) -> dict[int, tuple[float, float]]:
    extents: dict[int, tuple[float, float]] = {}
    for span in spans:
        lo, hi = extents.get(span.pid, (span.start_us, span.end_us))
        extents[span.pid] = (min(lo, span.start_us), max(hi, span.end_us))
    return extents


def _origins_look_disjoint(spans: Sequence[TraceSpan]) -> bool:
    """True when per-pid time ranges never overlap (different clock bases)."""
    extents = sorted(_pid_extents(spans).values())
    if len(extents) < 2:
        return False
    for (_, prev_hi), (lo, _) in zip(extents, extents[1:]):
        if lo < prev_hi:
            return False
    return True


def align_span_origins(spans: Sequence[TraceSpan]) -> list[TraceSpan]:
    """Shift each pid so its earliest span starts at t=0."""
    extents = _pid_extents(spans)
    return [
        TraceSpan(name=s.name, pid=s.pid, tid=s.tid,
                  start_us=s.start_us - extents[s.pid][0],
                  end_us=s.end_us - extents[s.pid][0], args=s.args)
        for s in spans
    ]


# ---------------------------------------------------------------------------
# Containment forest
# ---------------------------------------------------------------------------

class _Node:
    __slots__ = ("span", "children")

    def __init__(self, span: TraceSpan):
        self.span = span
        self.children: list["_Node"] = []


def _build_forest(spans: Sequence[TraceSpan]) -> list[_Node]:
    """Nest one (pid, tid) group's spans by timestamp containment."""
    ordered = sorted(spans, key=lambda s: (s.start_us, -s.end_us, s.name))
    roots: list[_Node] = []
    stack: list[_Node] = []
    for span in ordered:
        node = _Node(span)
        while stack and (span.start_us >= stack[-1].span.end_us
                         or span.end_us > stack[-1].span.end_us):
            stack.pop()
        (stack[-1].children if stack else roots).append(node)
        stack.append(node)
    return roots


def _group_spans(spans: Sequence[TraceSpan]) -> dict[tuple[int, int], list[TraceSpan]]:
    groups: dict[tuple[int, int], list[TraceSpan]] = {}
    for span in spans:
        groups.setdefault((span.pid, span.tid), []).append(span)
    return groups


# ---------------------------------------------------------------------------
# Critical path
# ---------------------------------------------------------------------------

def critical_path(spans: Sequence[TraceSpan]) -> list[dict[str, Any]]:
    """The deepest-active decomposition of the straggler process.

    The straggler is the (pid, tid) group whose last span ends latest —
    the process that determined the trace's wall-clock.  Its forest is
    flattened into consecutive segments, each charged to the deepest
    span covering that instant; idle time between siblings or roots
    becomes ``(gap)`` segments.  Deterministic: ties break on
    (pid, tid), and the forest build sorts on span values only.
    """
    if not spans:
        return []
    groups = _group_spans(spans)
    straggler = max(groups,
                    key=lambda key: (max(s.end_us for s in groups[key]),
                                     -key[0], -key[1]))
    group = groups[straggler]
    roots = _build_forest(group)
    pid, tid = straggler
    segments: list[dict[str, Any]] = []

    def emit(name: str, depth: int, start: float, end: float,
             stack: tuple[str, ...]) -> None:
        if end - start <= 0.0:
            return
        segments.append({"name": name, "pid": pid, "tid": tid,
                         "depth": depth, "start_us": start,
                         "dur_us": end - start, "stack": ";".join(stack)})

    def walk(node: _Node, stack: tuple[str, ...]) -> None:
        span = node.span
        path = stack + (span.name,)
        cursor = span.start_us
        for child in node.children:
            emit(span.name, len(path) - 1, cursor, child.span.start_us, path)
            walk(child, path)
            cursor = max(cursor, child.span.end_us)
        emit(span.name, len(path) - 1, cursor, span.end_us, path)

    cursor = None
    for root in roots:
        if cursor is not None and root.span.start_us > cursor:
            emit(_GAP, 0, cursor, root.span.start_us, (_GAP,))
        walk(root, ())
        cursor = (root.span.end_us if cursor is None
                  else max(cursor, root.span.end_us))
    return segments


def critical_path_shares(segments: Sequence[dict[str, Any]]) -> dict[str, float]:
    """Fraction of the critical path charged to each span name."""
    total = sum(seg["dur_us"] for seg in segments)
    if total <= 0.0:
        return {}
    shares: dict[str, float] = {}
    for seg in segments:
        shares[seg["name"]] = shares.get(seg["name"], 0.0) + seg["dur_us"]
    return {name: dur / total for name, dur in sorted(shares.items())}


# ---------------------------------------------------------------------------
# Aggregates, gaps, folded stacks
# ---------------------------------------------------------------------------

def top_spans(spans: Sequence[TraceSpan], k: int = 10) -> list[dict[str, Any]]:
    """Per-name aggregate table, ranked by total time."""
    agg: dict[str, list[float]] = {}
    for span in spans:
        entry = agg.setdefault(span.name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += span.dur_us
        entry[2] = max(entry[2], span.dur_us)
    wall = (max(s.end_us for s in spans) - min(s.start_us for s in spans)
            if spans else 0.0)
    rows = [
        {"name": name, "calls": int(count), "total_us": total,
         "mean_us": total / count if count else 0.0, "max_us": peak,
         "share_of_wall": (total / wall) if wall > 0 else 0.0}
        for name, (count, total, peak) in agg.items()
    ]
    rows.sort(key=lambda r: (-r["total_us"], r["name"]))
    return rows[:k]


def top_gaps(spans: Sequence[TraceSpan], k: int = 10) -> list[dict[str, Any]]:
    """The largest idle windows between consecutive siblings, per parent."""
    gaps: list[dict[str, Any]] = []
    for (pid, tid), group in sorted(_group_spans(spans).items()):
        def scan(node: _Node) -> None:
            cursor = None
            for child in node.children:
                if cursor is not None and child.span.start_us > cursor:
                    gaps.append({
                        "parent": node.span.name, "pid": pid, "tid": tid,
                        "start_us": cursor,
                        "dur_us": child.span.start_us - cursor,
                    })
                cursor = (child.span.end_us if cursor is None
                          else max(cursor, child.span.end_us))
                scan(child)
        for root in _build_forest(group):
            scan(root)
    gaps.sort(key=lambda g: (-g["dur_us"], g["pid"], g["tid"], g["start_us"]))
    return gaps[:k]


def folded_stacks(spans: Sequence[TraceSpan]) -> list[str]:
    """Folded-stack lines (``pid0;run;epoch 12345``, value = self µs).

    The standard flamegraph collapse format: semicolon-joined stack,
    space, integer self-time.  Lines are sorted for determinism.
    """
    totals: dict[str, float] = {}

    def walk(node: _Node, prefix: str) -> None:
        path = f"{prefix};{node.span.name}" if prefix else node.span.name
        self_us = node.span.dur_us - sum(c.span.dur_us for c in node.children)
        if self_us > 0:
            totals[path] = totals.get(path, 0.0) + self_us
        for child in node.children:
            walk(child, path)

    for (pid, _tid), group in sorted(_group_spans(spans).items()):
        for root in _build_forest(group):
            walk(root, f"pid{pid}")
    return [f"{path} {int(round(value))}"
            for path, value in sorted(totals.items())]


# ---------------------------------------------------------------------------
# The analysis bundle
# ---------------------------------------------------------------------------

@dataclass
class TraceAnalysis:
    """Everything one ``repro analyze`` invocation derives from a trace."""

    span_count: int
    pids: list[int]
    aligned: bool
    wall_us: float
    critical_path: list[dict[str, Any]]
    shares: dict[str, float]
    spans_table: list[dict[str, Any]]
    gaps_table: list[dict[str, Any]]
    folded: list[str]

    def to_payload(self) -> dict[str, Any]:
        return {
            "schema": TRACE_ANALYSIS_SCHEMA,
            "span_count": self.span_count,
            "pids": self.pids,
            "aligned": self.aligned,
            "wall_us": self.wall_us,
            "critical_path": self.critical_path,
            "critical_path_shares": self.shares,
            "top_spans": self.spans_table,
            "top_gaps": self.gaps_table,
        }

    def render(self) -> str:
        lines = [
            f"trace analysis: {self.span_count} span(s), "
            f"{len(self.pids)} process(es), wall {self.wall_us / 1e3:.3f} ms"
            + ("  [clock-aligned]" if self.aligned else "")
        ]
        if self.critical_path:
            straggler = self.critical_path[0]["pid"]
            lines.append(f"critical path (straggler pid {straggler}, "
                         f"{len(self.critical_path)} segment(s)):")
            for name, share in sorted(self.shares.items(),
                                      key=lambda kv: (-kv[1], kv[0])):
                dur_ms = share * sum(s["dur_us"] for s in self.critical_path) / 1e3
                lines.append(f"  {name:<28}{100 * share:>7.1f}%  {dur_ms:>10.3f} ms")
        if self.spans_table:
            header = (f"  {'Span':<28}{'Calls':>7}{'Total ms':>11}"
                      f"{'Mean ms':>10}{'Max ms':>10}{'Wall%':>7}")
            lines += ["top spans:", header, "  " + "-" * (len(header) - 2)]
            for row in self.spans_table:
                lines.append(
                    f"  {row['name']:<28}{row['calls']:>7}"
                    f"{row['total_us'] / 1e3:>11.3f}{row['mean_us'] / 1e3:>10.3f}"
                    f"{row['max_us'] / 1e3:>10.3f}"
                    f"{100 * row['share_of_wall']:>6.1f}%"
                )
        if self.gaps_table:
            lines.append("largest gaps (idle between siblings):")
            for gap in self.gaps_table:
                lines.append(
                    f"  pid{gap['pid']}/tid{gap['tid']} under "
                    f"{gap['parent']:<20} at {gap['start_us'] / 1e3:>10.3f} ms"
                    f"  {gap['dur_us'] / 1e3:>10.3f} ms"
                )
        return "\n".join(lines)


def analyze_trace(source: dict[str, Any] | Sequence[dict[str, Any]] | Sequence[TraceSpan],
                  *, top: int = 10, align: bool | None = None) -> TraceAnalysis:
    """Analyze a Chrome trace document, event list, or span list."""
    if isinstance(source, dict):
        spans = spans_from_events(source.get("traceEvents") or [])
    else:
        items = list(source)
        if items and isinstance(items[0], TraceSpan):
            spans = items  # type: ignore[assignment]
        else:
            spans = spans_from_events(items)  # type: ignore[arg-type]
    if align is None:
        align = _origins_look_disjoint(spans)
    if align:
        spans = align_span_origins(spans)
    wall = (max(s.end_us for s in spans) - min(s.start_us for s in spans)
            if spans else 0.0)
    path = critical_path(spans)
    return TraceAnalysis(
        span_count=len(spans),
        pids=sorted({s.pid for s in spans}),
        aligned=bool(align and spans),
        wall_us=wall,
        critical_path=path,
        shares=critical_path_shares(path),
        spans_table=top_spans(spans, k=top),
        gaps_table=top_gaps(spans, k=top),
        folded=folded_stacks(spans),
    )


# ---------------------------------------------------------------------------
# Campaign directories: spans reconstructed from event streams
# ---------------------------------------------------------------------------

def spans_from_campaign_events(events: Iterable[Any]) -> list[TraceSpan]:
    """Reconstruct worker spans from a campaign's lifecycle events.

    ``run_start``/``run_stop`` pairs become per-worker ``run`` spans and
    ``epoch`` events (which carry their duration) become nested ``epoch``
    spans — enough structure for critical-path and straggler analysis of
    a campaign without any worker having written a full trace.  Serving
    runs reconstruct the same way: ``scenario_start``/``scenario_stop``
    pairs become ``serve:<scenario>`` spans and per-query ``query``
    events (which carry their latency) become nested ``query`` spans.
    Event ``time_s`` values are epoch seconds (one shared clock), so no
    origin alignment is needed.
    """
    spans: list[TraceSpan] = []
    open_runs: dict[int, tuple[float, dict[str, Any]]] = {}
    open_scenarios: dict[int, tuple[float, dict[str, Any]]] = {}
    last_seen: dict[int, float] = {}
    for event in events:
        pid = int(getattr(event, "pid", 0))
        t_us = float(getattr(event, "time_s", 0.0)) * 1e6
        name = getattr(event, "name", "")
        args = dict(getattr(event, "args", {}) or {})
        last_seen[pid] = max(last_seen.get(pid, t_us), t_us)
        if name == "run_start":
            open_runs[pid] = (t_us, args)
        elif name == "run_stop":
            start = open_runs.pop(pid, None)
            if start is not None:
                start_us, start_args = start
                label = start_args.get("benchmark", "run")
                spans.append(TraceSpan(
                    name=f"run:{label}", pid=pid, tid=0,
                    start_us=start_us, end_us=max(t_us, start_us),
                    args={**start_args, **args}))
        elif name == "epoch":
            dur_us = float(args.get("epoch_seconds", 0.0)) * 1e6
            spans.append(TraceSpan(
                name="epoch", pid=pid, tid=0,
                start_us=t_us - max(dur_us, 0.0), end_us=t_us, args=args))
        elif name == "scenario_start":
            open_scenarios[pid] = (t_us, args)
        elif name == "scenario_stop":
            start = open_scenarios.pop(pid, None)
            if start is not None:
                start_us, start_args = start
                label = start_args.get("scenario", "scenario")
                spans.append(TraceSpan(
                    name=f"serve:{label}", pid=pid, tid=0,
                    start_us=start_us, end_us=max(t_us, start_us),
                    args={**start_args, **args}))
        elif name == "query":
            dur_us = float(args.get("latency_s", 0.0)) * 1e6
            spans.append(TraceSpan(
                name="query", pid=pid, tid=0,
                start_us=t_us - max(dur_us, 0.0), end_us=t_us, args=args))
    # Unbalanced run_start (worker died mid-run): close at its last event
    # so failed cells still contribute a span instead of vanishing.
    for pid, (start_us, start_args) in sorted(open_runs.items()):
        label = start_args.get("benchmark", "run")
        spans.append(TraceSpan(
            name=f"run:{label}", pid=pid, tid=0, start_us=start_us,
            end_us=max(last_seen.get(pid, start_us), start_us),
            args={**start_args, "truncated": True}))
    for pid, (start_us, start_args) in sorted(open_scenarios.items()):
        label = start_args.get("scenario", "scenario")
        spans.append(TraceSpan(
            name=f"serve:{label}", pid=pid, tid=0, start_us=start_us,
            end_us=max(last_seen.get(pid, start_us), start_us),
            args={**start_args, "truncated": True}))
    return spans


def analyze_campaign_dir(campaign_dir: str | Path, *, top: int = 10) -> TraceAnalysis:
    """Analyze a campaign directory from its durable event streams."""
    from .monitor import CampaignTailer

    tailer = CampaignTailer(campaign_dir)
    events = tailer.poll_events()
    if not tailer.streams:
        raise FileNotFoundError(
            f"{campaign_dir}: no events/*.jsonl streams to analyze "
            "(was the campaign run with --save?)")
    spans = spans_from_campaign_events(events)
    return analyze_trace(spans, top=top, align=False)
