"""The campaign monitor: a terminal view built purely from files.

``repro monitor <campaign-dir>`` must work on a *live* campaign run by
another process, and post-mortem on a dead one — so this module reads
only the durable observability surface:

- ``campaign_journal.json`` — terminal per-cell results and the planned
  cell list (:mod:`repro.exec.journal` writes it atomically);
- ``events/*.jsonl`` — the campaign's only live record: the engine's
  stream and one per job (truncation-tolerant), read by
  :class:`CampaignTailer` alone and folded once by
  :class:`~repro.telemetry.alerts.StreamFold`.

No sockets, no shared state, no imports of the execution engine: the
monitor cannot crash a campaign and works on a copied directory.  ``now``
is an explicit parameter everywhere, so views are deterministic under
:class:`repro.core.timing.FakeClock` in tests.

Job states: ``pending`` (planned, no record or stream yet), ``running``
(an attempt started and has not stopped), ``stalled`` (running, its
stream silent past the ``job_stall`` alert's threshold, so the view and
the alert agree), plus the journal's
terminal/attempted states ``reached`` / ``quality_miss`` / ``fault`` /
``timeout``.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from .alerts import RULES, JobState, StreamFold
from .events import Event, EventCursor

__all__ = ["JobView", "MonitorView", "CampaignTailer", "load_monitor_view",
           "build_view", "campaign_dir_problem", "render_monitor_view",
           "render_job_table"]

# Journal states that cannot change without another scheduling decision.
_SETTLED = frozenset({"reached", "quality_miss", "fault", "timeout"})


@dataclass(frozen=True)
class JobView:
    """One (benchmark, seed) cell as the monitor sees it."""

    benchmark: str
    seed: int
    status: str
    attempts: int = 0
    epoch: int = 0
    step: float = 0.0
    quality: float | None = None
    time_to_train_s: float | None = None
    heartbeat_age_s: float | None = None
    stalled: bool = False
    error: str | None = None

    @property
    def key(self) -> str:
        return f"{self.benchmark}/{self.seed}"

    @property
    def active(self) -> bool:
        return self.status in ("running", "stalled")


@dataclass
class MonitorView:
    """Everything one refresh of the monitor knows."""

    jobs: list[JobView] = field(default_factory=list)
    campaign: dict[str, Any] = field(default_factory=dict)
    events: list[Event] = field(default_factory=list)
    now_s: float = 0.0

    def counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for job in self.jobs:
            counts[job.status] = counts.get(job.status, 0) + 1
        return counts

    @property
    def settled(self) -> bool:
        """True when no cell can still make progress without rescheduling."""
        return all(not j.active and j.status != "pending" for j in self.jobs)

    @property
    def stalled_jobs(self) -> list[JobView]:
        return [j for j in self.jobs if j.stalled]

    @property
    def remaining(self) -> int:
        """Cells that can still make progress."""
        return sum(1 for j in self.jobs
                   if j.status in ("pending", "running", "stalled"))

    def completion(self) -> tuple[int, int, float | None]:
        """(settled, total, fraction) — fraction None for empty campaigns.

        All math is guarded: a campaign with zero planned cells, or one
        where no job has made progress yet, yields None fractions, never
        a ZeroDivisionError (the monitor must survive attaching at t=0).
        """
        total = len(self.jobs)
        settled = sum(1 for j in self.jobs if j.status in _SETTLED)
        return settled, total, (settled / total) if total else None

    def rate_cells_per_s(self) -> float | None:
        """Finished cells per second of mean TTT; None before progress."""
        durations = [j.time_to_train_s for j in self.jobs
                     if j.time_to_train_s is not None]
        if not durations:
            return None
        mean = sum(durations) / len(durations)
        return (1.0 / mean) if mean > 0 else None

    def eta_s(self) -> float | None:
        """Naive remaining-work estimate: mean finished-cell TTT x cells left.

        Deliberately simple (ignores parallelism and per-benchmark cost
        skew); None until at least one cell finished with a duration.
        """
        durations = [j.time_to_train_s for j in self.jobs
                     if j.time_to_train_s is not None]
        if not durations or self.remaining == 0:
            return None
        return self.remaining * (sum(durations) / len(durations))


def build_view(
    *,
    job_records: dict[str, dict[str, Any]],
    planned_cells: list[tuple[str, int]] | None = None,
    progress: Mapping[str, JobState] | None = None,
    campaign: dict[str, Any] | None = None,
    events: list[Event] | None = None,
    now_s: float,
) -> MonitorView:
    """Fuse journal records, the job streams' progress, and the plan.

    ``job_records`` maps ``benchmark/seed`` to journal-record dicts (the
    exact shape :class:`~repro.exec.journal.JobRecord` serializes to);
    ``progress`` is a :class:`~repro.telemetry.alerts.StreamFold`'s
    ``jobs``.  This is the single state-derivation path — ``repro
    monitor`` feeds it from files and ``repro campaign`` feeds it from the
    in-memory journal, so both render identical tables.
    """
    progress = progress or {}
    cells: dict[tuple[str, int], None] = {}
    for benchmark, seed in planned_cells or []:
        cells[(benchmark, int(seed))] = None
    for key in (*job_records, *progress):
        benchmark, _, seed = key.rpartition("/")
        cells[(benchmark, int(seed))] = None

    jobs: list[JobView] = []
    for benchmark, seed in sorted(cells):
        key = f"{benchmark}/{seed}"
        record = job_records.get(key)
        stream = progress.get(key)
        status = record["status"] if record else "pending"
        attempts = int(record["attempts"]) if record else 0
        quality = record.get("quality") if record else None
        ttt = record.get("time_to_train_s") if record else None
        error = record.get("error") if record else None
        epoch = int(record["epochs"]) if record and record.get("epochs") else 0
        step = 0.0
        age = None
        stalled = False
        if stream is not None:
            age = max(now_s - stream.last_event_s, 0.0)
            # A live attempt newer than the journal's last word means a
            # retry (or the first attempt) is in flight right now.
            if stream.live and status != "reached":
                stalled = age > RULES["job_stall"].silence_s
                status = "stalled" if stalled else "running"
                attempts = max(attempts, stream.attempt + 1)
                epoch = stream.epoch
                step = stream.step
                if stream.quality is not None:
                    quality = stream.quality
        jobs.append(JobView(
            benchmark=benchmark, seed=seed, status=status, attempts=attempts,
            epoch=epoch, step=step, quality=quality,
            time_to_train_s=ttt, heartbeat_age_s=age, stalled=stalled,
            error=error,
        ))
    return MonitorView(jobs=jobs, campaign=dict(campaign or {}),
                       events=list(events or []), now_s=now_s)


def load_monitor_view(
    campaign_dir: str | Path,
    *,
    now_s: float | None = None,
) -> MonitorView:
    """A view from a campaign directory's files alone: one tailer refresh."""
    return CampaignTailer(campaign_dir).refresh(now_s)


def campaign_dir_problem(campaign_dir: str | Path) -> str | None:
    """Human-readable reason this directory cannot be monitored, or None.

    ``repro monitor`` / ``repro alerts`` pointed at a typo'd or not-yet-
    provisioned path should say so in one line and exit nonzero, not
    unwind a traceback.  A directory counts as a campaign once its
    journal or an event stream exists.
    """
    campaign_dir = Path(campaign_dir)
    if not campaign_dir.exists():
        return f"{campaign_dir}: no such campaign directory"
    if not campaign_dir.is_dir():
        return f"{campaign_dir}: not a directory"
    has_journal = (campaign_dir / "campaign_journal.json").is_file()
    has_events = any((campaign_dir / "events").glob("*.jsonl")) \
        if (campaign_dir / "events").is_dir() else False
    if not (has_journal or has_events):
        return (f"{campaign_dir}: not a campaign directory (no "
                f"campaign_journal.json or events/)")
    return None


class CampaignTailer:
    """The one reader of a campaign directory, and its one fold.

    ``repro monitor``, ``repro alerts`` and the server
    all read through it.  It keeps an
    :class:`~repro.telemetry.events.EventCursor` per stream (new streams
    are discovered each poll) and a signature-checked journal parse, so a
    refresh over a quiet campaign costs only ``stat`` calls and
    already-consumed JSONL bytes are never re-read.  :meth:`poll_events`
    leaves folding to its caller: :meth:`refresh` applies the events to
    ``fold``, the server runs them through
    :meth:`~repro.telemetry.alerts.AlertEngine.advance`.  The accumulated
    timeline (``self.events``) matches what
    :func:`~repro.telemetry.events.merge_event_streams` would return for
    the same files, in the same ``(time_s, pid)`` order.
    """

    def __init__(self, campaign_dir: str | Path):
        self.campaign_dir = Path(campaign_dir)
        self.events: list[Event] = []
        self.fold = StreamFold()
        self._cursors: dict[Path, EventCursor] = {}
        self._journal_sig: tuple[int, int, int] | None = None
        self._journal_doc: dict[str, Any] = {}

    @property
    def consumed_bytes(self) -> int:
        """Total event-stream bytes ever handed to the parser."""
        return sum(c.consumed_bytes for c in self._cursors.values())

    @property
    def streams(self) -> list[Path]:
        """Every stream discovered so far, in merge order."""
        return sorted(self._cursors)

    def poll_events(self) -> list[Event]:
        """Consume newly-completed events from every stream (sorted)."""
        events_dir = self.campaign_dir / "events"
        if events_dir.is_dir():
            for path in sorted(events_dir.glob("*.jsonl")):
                if path not in self._cursors:
                    self._cursors[path] = EventCursor(path)
        fresh: list[Event] = []
        for path in sorted(self._cursors):
            fresh.extend(self._cursors[path].poll())
        fresh.sort(key=lambda e: (e.time_s, e.pid))
        if fresh:
            if self.events and fresh[0].time_s < self.events[-1].time_s:
                # A slow stream delivered events older than the merged
                # tail; re-sort (stable, so same-instant order holds).
                self.events.extend(fresh)
                self.events.sort(key=lambda e: (e.time_s, e.pid))
            else:
                self.events.extend(fresh)
        return fresh

    def _journal(self) -> dict[str, Any]:
        """The journal JSON, read directly (no exec-engine import)."""
        path = self.campaign_dir / "campaign_journal.json"
        try:
            stat = os.stat(path)
        except OSError:
            self._journal_sig, self._journal_doc = None, {}
            return self._journal_doc
        signature = (stat.st_mtime_ns, stat.st_size, stat.st_ino)
        if signature != self._journal_sig:
            try:
                doc = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                # A journal mid-replace can't be half-written (atomic
                # rename), but a foreign/corrupt file should degrade to "no
                # journal", not crash a monitor attached to a live run.
                doc = {}
            self._journal_doc, self._journal_sig = doc, signature
        return self._journal_doc

    def refresh(self, now_s: float | None = None) -> MonitorView:
        """One poll: fold new events in, return the current view."""
        self.fold.apply_all(self.poll_events())
        return self.view(now_s)

    def view(self, now_s: float | None = None) -> MonitorView:
        """The view of everything folded so far, at ``now_s``."""
        now_s = time.time() if now_s is None else float(now_s)
        doc = self._journal()
        campaign = dict(doc.get("campaign", {}))
        job_records = {key: dict(rec)
                       for key, rec in doc.get("jobs", {}).items()}
        planned = [(str(b), int(s))
                   for b, s in campaign.get("planned_cells", [])]
        return build_view(job_records=job_records, planned_cells=planned,
                          progress=self.fold.jobs, campaign=campaign,
                          events=self.events, now_s=now_s)


def _fmt(value: float | None, spec: str, empty: str = "-") -> str:
    return empty if value is None else format(value, spec)


def render_job_table(jobs: list[JobView]) -> str:
    """One row per cell — the table ``monitor`` and ``campaign`` share."""
    header = (
        f"{'Job':<32}{'Status':<14}{'Att':>4}{'Epoch':>6}{'Step':>8}"
        f"{'Quality':>9}{'TTT (s)':>9}  Heartbeat"
    )
    lines = [header, "-" * len(header)]
    for job in jobs:
        status = job.status.upper() if job.stalled else job.status
        beat = ("-" if job.heartbeat_age_s is None
                else f"{job.heartbeat_age_s:.1f}s ago")
        step = "-" if not job.step else f"{job.step:g}"
        lines.append(
            f"{job.key:<32}{status:<14}{job.attempts:>4}{job.epoch:>6}"
            f"{step:>8}{_fmt(job.quality, '.4f'):>9}"
            f"{_fmt(job.time_to_train_s, '.3f'):>9}  {beat}"
        )
    return "\n".join(lines)


def render_monitor_view(view: MonitorView, *, recent_events: int = 6) -> str:
    """The full refreshable screen: summary line, job table, event tail."""
    counts = view.counts()
    summary = " ".join(f"{name}={counts[name]}" for name in
                       ("reached", "running", "stalled", "pending",
                        "quality_miss", "fault", "timeout") if name in counts)
    benchmarks = view.campaign.get("benchmarks")
    head = (f"campaign: {len(benchmarks)} benchmark(s), " if benchmarks
            else "campaign: ") + f"{len(view.jobs)} cell(s)  [{summary or 'empty'}]"
    lines = [head]
    settled, total, fraction = view.completion()
    if total:
        pct = "--" if fraction is None else f"{100.0 * fraction:.0f}%"
        rate = view.rate_cells_per_s()
        rate_txt = "--" if rate is None else f"{rate:.3g} cells/s"
        lines.append(f"  progress {settled}/{total} ({pct}), rate {rate_txt}")
    if view.remaining:
        eta = view.eta_s()
        # Before any cell has finished there is no basis for an estimate;
        # render "--" rather than guessing (or crashing on empty math).
        lines.append(f"  eta ~{eta:.1f}s (mean finished-cell TTT x cells left)"
                     if eta is not None else "  eta ~--s (no finished cell yet)")
    if view.stalled_jobs:
        lines.append(
            f"  STALL: {len(view.stalled_jobs)} job(s) without a heartbeat "
            f"for > {RULES['job_stall'].silence_s:.0f}s"
        )
    lines.append("")
    lines.append(render_job_table(view.jobs))
    if view.events and recent_events > 0:
        lines.append("")
        lines.append(f"recent events (last {min(recent_events, len(view.events))} "
                     f"of {len(view.events)}):")
        for event in view.events[-recent_events:]:
            args = " ".join(f"{k}={event.args[k]}" for k in sorted(event.args))
            lines.append(f"  t={event.time_s:.3f} pid={event.pid} "
                         f"{event.name} {args}".rstrip())
    return "\n".join(lines)
