"""Declarative alert rules over a campaign's event streams.

The monitor renders *state*; alerting needs *transitions* — "this job
just stalled", "quality recovered".  This module turns the same file-only
surfaces into a firing/resolved lifecycle:

- An :class:`AlertRule` is data (kind + parameters), parseable from JSON,
  so a campaign can ship its alerting policy next to its spec.
- :class:`StreamFold` folds a merged event stream into per-run state
  (last progress instant, latest quality vs. target, rolling throughput)
  and the per-job progress the monitor shows — one ``O(1)`` update per
  event, so live tailers pay nothing for history.  Events no rule or
  view reads, such as those older campaign streams carry for retired
  rules, are skipped.
- :class:`AlertEngine` evaluates every rule against the fold and emits
  ``alert_firing`` / ``alert_resolved`` transitions **as ordinary
  telemetry events**: ``alerts.jsonl`` is just another JSONL stream that
  :func:`~repro.telemetry.events.read_events` parses and an
  :class:`~repro.telemetry.events.EventCursor` tails.

Determinism is the design constraint: transitions are stamped with
event-stream instants (never a wall clock read), rules evaluate in
declaration order and subjects in sorted order, and
:meth:`AlertEngine.advance`, the one schedule :func:`replay_alerts` and
the server both run, evaluates at the stream's own timestamps — so
identical event streams produce bit-identical ``alerts.jsonl`` files, on
any machine, at any polling cadence, under
:class:`repro.core.timing.FakeClock` or epoch time alike.

Rule kinds (each with its parameter defaults):

=====================  ==================================================
``job_stall``          no progress event for ``stall_after_s`` (30) — the
                       monitor's stall detection as an alert;
``heartbeat_loss``     no progress event for ``loss_after_s`` (120): the
                       job is presumed dead, not merely slow;
``quality_regression`` after ``min_evals`` (2) evaluations the run's
                       quality sits below ``min_fraction`` (0.9) of its
                       §3.2.2 target — and stays firing if the run ends
                       there;
``throughput_drop``    latest examples/second under ``drop_ratio`` (0.5)
                       of the rolling mean of the previous ``window``
                       (4) samples.
=====================  ==================================================
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

from .events import Event

__all__ = ["AlertRule", "ActiveAlert", "AlertEngine", "StreamFold",
           "RULE_KINDS", "default_rules", "parse_rules",
           "load_rules_file", "replay_alerts", "render_alert_table"]

# kind -> (parameter name -> default).  A rule may override any subset;
# unknown parameters are a configuration error, caught at parse time.
RULE_KINDS: dict[str, dict[str, float]] = {
    "job_stall": {"stall_after_s": 30.0},
    "heartbeat_loss": {"loss_after_s": 120.0},
    "quality_regression": {"min_fraction": 0.9, "min_evals": 2},
    "throughput_drop": {"drop_ratio": 0.5, "window": 4},
}

_SEVERITIES = ("info", "warning", "critical")

# Rolling-throughput memory per run; bounds fold state on long runs.
_THROUGHPUT_KEEP = 32


@dataclass(frozen=True)
class AlertRule:
    """One declarative rule: a kind, tuned parameters, and a severity."""

    kind: str
    name: str
    severity: str = "warning"
    params: tuple[tuple[str, float], ...] = ()

    def param(self, key: str) -> float:
        for name, value in self.params:
            if name == key:
                return value
        return RULE_KINDS[self.kind][key]

    def to_payload(self) -> dict[str, Any]:
        payload: dict[str, Any] = {"rule": self.kind, "severity": self.severity}
        if self.name != self.kind:
            payload["name"] = self.name
        payload.update(dict(self.params))
        return payload


def _make_rule(kind: str, name: str | None, severity: str,
               params: Mapping[str, Any]) -> AlertRule:
    if kind not in RULE_KINDS:
        raise ValueError(
            f"unknown alert rule kind {kind!r}; known: {sorted(RULE_KINDS)}")
    if severity not in _SEVERITIES:
        raise ValueError(
            f"rule {kind!r}: unknown severity {severity!r}; "
            f"choose from {_SEVERITIES}")
    unknown = sorted(set(params) - set(RULE_KINDS[kind]))
    if unknown:
        raise ValueError(
            f"rule {kind!r}: unknown parameter(s) {unknown}; "
            f"accepts {sorted(RULE_KINDS[kind])}")
    resolved = tuple(sorted(
        (key, float(params[key])) for key in params))
    return AlertRule(kind=kind, name=name or kind, severity=severity,
                     params=resolved)


def default_rules() -> list[AlertRule]:
    """One rule of every kind at its documented defaults."""
    return [_make_rule(kind, None,
                       "critical" if kind == "heartbeat_loss" else "warning",
                       {})
            for kind in RULE_KINDS]


def parse_rules(payload: Any) -> list[AlertRule]:
    """Parse the declarative rules document: a JSON list of objects.

    Each object needs ``"rule": <kind>`` and may carry ``"name"``,
    ``"severity"``, and the kind's parameters, e.g.::

        [{"rule": "job_stall", "stall_after_s": 45},
         {"rule": "quality_regression", "min_fraction": 0.95,
          "severity": "critical"}]
    """
    if not isinstance(payload, list):
        raise ValueError("alert rules document must be a JSON list of objects")
    rules: list[AlertRule] = []
    seen: set[str] = set()
    for i, entry in enumerate(payload):
        if not isinstance(entry, dict) or "rule" not in entry:
            raise ValueError(f"alert rule #{i}: expected an object with a "
                             f"'rule' key, got {entry!r}")
        entry = dict(entry)
        kind = str(entry.pop("rule"))
        name = entry.pop("name", None)
        severity = str(entry.pop("severity", "warning"))
        rule = _make_rule(kind, None if name is None else str(name),
                          severity, entry)
        if rule.name in seen:
            raise ValueError(f"alert rule #{i}: duplicate rule name "
                             f"{rule.name!r}")
        seen.add(rule.name)
        rules.append(rule)
    return rules


def load_rules_file(path: str | Path) -> list[AlertRule]:
    path = Path(path)
    try:
        return parse_rules(json.loads(path.read_text(encoding="utf-8")))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc


@dataclass
class RunAlertState:
    """Everything the rules need to know about one (benchmark, seed) run."""

    key: str
    active: bool = False
    status: str = "pending"
    last_progress_s: float = 0.0
    target: float | None = None
    quality: float | None = None
    evals: int = 0
    throughput: list[float] = field(default_factory=list)


@dataclass
class JobState:
    """One job's latest attempt as its own event stream shows it.

    ``live`` from ``job_start`` (or ``run_start``, on a stream without
    one) until ``run_stop``; a stall is measured from ``last_event_s``.
    """

    live: bool = False
    attempt: int = 0
    epoch: int = 0
    step: float = 0.0  # cumulative samples seen (the finest progress unit)
    quality: float | None = None
    last_event_s: float = 0.0


@dataclass(frozen=True)
class ActiveAlert:
    """One currently-firing alert (the /api/alerts and /metrics view)."""

    rule: str
    kind: str
    key: str
    severity: str
    since_s: float
    value: float
    detail: str

    def to_payload(self) -> dict[str, Any]:
        return {"rule": self.rule, "kind": self.kind, "key": self.key,
                "severity": self.severity, "since_s": self.since_s,
                "value": self.value, "detail": self.detail}


# The engine's own stream (events/campaign.jsonl) publishes on pid 0, the
# pid of job ordinal 0 too; none of its records is an event of that job.
_CAMPAIGN_EVENTS = frozenset({"campaign_start", "job_finished",
                              "wave_backoff", "campaign_stop"})


class StreamFold:
    """Incrementally fold a time-ordered event stream into run states.

    The one fold over a campaign's streams: the alert rules read its
    :class:`RunAlertState` per run, the monitor its :class:`JobState` per
    job (keyed apart: a retry's runner reports its reseeded run seed, not
    the cell's).  Events must be applied in timeline order (what
    :func:`~repro.telemetry.events.merge_event_streams` and the tailer
    produce).  Worker events carry no benchmark/seed in their args, only
    a ``pid`` (the job ordinal) — ``run_start``/``job_start`` establish
    the pid→run and pid→job mappings the progress events resolve through.
    """

    def __init__(self):
        self.runs: dict[str, RunAlertState] = {}
        self.jobs: dict[str, JobState] = {}
        self._key_by_pid: dict[int, str] = {}
        self._job_by_pid: dict[int, str] = {}

    def _run(self, key: str) -> RunAlertState:
        state = self.runs.get(key)
        if state is None:
            state = self.runs[key] = RunAlertState(key=key)
        return state

    def apply(self, event: Event) -> None:
        args = event.args
        name = event.name
        identified = "benchmark" in args and "seed" in args
        if name in _CAMPAIGN_EVENTS:
            if name == "job_finished" and identified:
                # Campaign-stream confirmation; authoritative terminal status.
                state = self._run(f"{args['benchmark']}/{args['seed']}")
                state.active = bool(args.get("will_retry", False))
                state.status = str(args.get("status", state.status))
            return
        if name in ("run_start", "job_start"):
            if not identified:
                return
            key = f"{args['benchmark']}/{args['seed']}"
            self._key_by_pid[event.pid] = key
            if name == "job_start":
                self._job_by_pid[event.pid] = key
        key = self._key_by_pid.get(event.pid)
        if key is None and name == "run_stop" and identified:
            key = f"{args['benchmark']}/{args['seed']}"
        if key is None:
            return
        state = self._run(key)
        job = self.jobs.setdefault(self._job_by_pid.get(event.pid, key),
                                   JobState())
        job.last_event_s = max(job.last_event_s, event.time_s)
        if name in ("run_start", "job_start"):
            job.live = True
            job.epoch, job.step, job.quality = 0, 0.0, None
            if name == "job_start":
                job.attempt = int(args.get("attempt", 0))
            else:
                # A (re)started attempt resets the run-scoped signals.
                state.active = True
                state.status = "running"
                state.quality = None
                state.evals = 0
                state.throughput = []
                if args.get("target") is not None:
                    state.target = float(args["target"])
            state.last_progress_s = max(state.last_progress_s, event.time_s)
        elif name == "epoch":
            state.last_progress_s = max(state.last_progress_s, event.time_s)
            if "epoch" in args:
                job.epoch = int(args["epoch"])
            if "samples_total" in args:
                job.step = float(args["samples_total"])
            seconds = args.get("epoch_seconds")
            samples = args.get("samples")
            if seconds and samples:
                state.throughput.append(float(samples) / float(seconds))
                del state.throughput[:-_THROUGHPUT_KEEP]
        elif name == "eval":
            state.last_progress_s = max(state.last_progress_s, event.time_s)
            if "quality" in args:
                state.quality = job.quality = float(args["quality"])
                state.evals += 1
                if "epoch" in args:
                    job.epoch = int(args["epoch"])
        elif name == "run_stop":
            job.live = False
            state.active = False
            state.status = str(args.get("status", "stopped"))
            if args.get("quality") is not None:
                state.quality = float(args["quality"])

    def apply_all(self, events: Iterable[Event]) -> None:
        for event in events:
            self.apply(event)


def _check(rule: AlertRule, state: RunAlertState,
           now_s: float) -> tuple[bool, float, str] | None:
    """One (rule, run) condition: (firing, value, detail), or None = N/A."""
    if rule.kind == "job_stall":
        if not state.active:
            return None
        age = now_s - state.last_progress_s
        limit = rule.param("stall_after_s")
        return (age > limit, age,
                f"no progress for {age:.1f}s (stall threshold {limit:g}s)")
    if rule.kind == "heartbeat_loss":
        if not state.active:
            return None
        age = now_s - state.last_progress_s
        limit = rule.param("loss_after_s")
        return (age > limit, age,
                f"silent for {age:.1f}s (loss threshold {limit:g}s)")
    if rule.kind == "quality_regression":
        if (state.target is None or state.quality is None
                or state.evals < rule.param("min_evals")):
            return None
        if not state.active and state.status == "reached":
            return (False, state.quality, "run reached its target")
        floor = rule.param("min_fraction") * state.target
        return (state.quality < floor, state.quality,
                f"quality {state.quality:.4f} vs floor {floor:.4f} "
                f"({rule.param('min_fraction'):g} x target {state.target:g})")
    if rule.kind == "throughput_drop":
        window = int(rule.param("window"))
        if not state.active or len(state.throughput) < 2:
            return None
        latest = state.throughput[-1]
        baseline_window = state.throughput[:-1][-window:]
        baseline = sum(baseline_window) / len(baseline_window)
        if baseline <= 0:
            return None
        floor = rule.param("drop_ratio") * baseline
        return (latest < floor, latest,
                f"{latest:.4g} ex/s vs rolling baseline {baseline:.4g} "
                f"(floor {floor:.4g})")
    raise ValueError(f"unknown alert rule kind {rule.kind!r}")


class AlertEngine:
    """Stateful firing/resolved lifecycle over rule evaluations.

    ``sink`` (e.g. ``EventLog.write``) receives every transition as it
    happens — the append-only ``alerts.jsonl`` contract.  The engine
    never reads a clock: every transition is stamped with an instant of
    the schedule :meth:`advance` runs.
    """

    def __init__(self, rules: Iterable[AlertRule] | None = None,
                 sink: Callable[[Event], None] | None = None):
        self.rules = list(rules) if rules is not None else default_rules()
        self.sink = sink
        self._latest_s = float("-inf")
        self._active: dict[tuple[str, str], ActiveAlert] = {}

    def active(self) -> list[ActiveAlert]:
        """Currently-firing alerts, in deterministic (rule, key) order."""
        return [self._active[k] for k in sorted(self._active)]

    def advance(self, fold: StreamFold, events: list[Event],
                now_s: float | None = None) -> list[Event]:
        """Fold time-ordered ``events`` in on the one schedule.

        At each distinct event instant the rules run *before* folding that
        instant's events (so a silent gap between two progress events
        fires the age-based rules, stamped at the moment the silence
        ended) and again *after* (so recovery resolves at the same instant
        it happened); then, given ``now_s``, once more at it, which fires
        age rules for silence at the tail.  An instant earlier than one already
        evaluated (a stream that lagged behind the last poll) is evaluated
        at that one instead, so transitions are stamped in order.
        """
        out: list[Event] = []
        i, n = 0, len(events)
        while i < n:
            t = events[i].time_s
            if fold.runs:
                out.extend(self._evaluate(fold.runs, t))
            while i < n and events[i].time_s == t:
                fold.apply(events[i])
                i += 1
            out.extend(self._evaluate(fold.runs, t))
        if now_s is not None:
            out.extend(self._evaluate(fold.runs, now_s))
        return out

    def _emit(self, name: str, now_s: float, args: dict[str, Any]) -> Event:
        event = Event(name=name, time_s=now_s, pid=0, args=args)
        if self.sink is not None:
            self.sink(event)
        return event

    def _evaluate(self, runs: Mapping[str, RunAlertState],
                  now_s: float) -> list[Event]:
        """Evaluate every rule at ``now_s``; return new transitions."""
        now_s = self._latest_s = max(float(now_s), self._latest_s)
        out: list[Event] = []
        for rule in self.rules:
            seen: set[tuple[str, str]] = set()
            for key in sorted(runs):
                verdict = _check(rule, runs[key], now_s)
                if verdict is None:
                    continue
                firing, value, detail = verdict
                slot = (rule.name, key)
                seen.add(slot)
                args = {"rule": rule.name, "kind": rule.kind, "key": key,
                        "severity": rule.severity, "value": value,
                        "detail": detail}
                if firing and slot not in self._active:
                    self._active[slot] = ActiveAlert(
                        rule=rule.name, kind=rule.kind, key=key,
                        severity=rule.severity, since_s=now_s,
                        value=value, detail=detail)
                    out.append(self._emit("alert_firing", now_s, args))
                elif not firing and slot in self._active:
                    del self._active[slot]
                    out.append(self._emit("alert_resolved", now_s, args))
            # Subjects that vanished (rule no longer applicable — e.g. the
            # run ended) resolve rather than firing forever.
            for slot in [s for s in self._active
                         if s[0] == rule.name and s not in seen]:
                stale = self._active.pop(slot)
                out.append(self._emit("alert_resolved", now_s, {
                    "rule": stale.rule, "kind": stale.kind,
                    "key": stale.key, "severity": stale.severity,
                    "value": stale.value,
                    "detail": "subject no longer evaluable"}))
        return out


def replay_alerts(events: list[Event],
                  rules: Iterable[AlertRule] | None = None,
                  *,
                  now_s: float | None = None,
                  sink: Callable[[Event], None] | None = None,
                  ) -> tuple[AlertEngine, list[Event]]:
    """Deterministically replay a finished (or copied) event stream.

    A fresh fold and engine run :meth:`AlertEngine.advance` over the whole
    timeline, with the final evaluation at ``now_s`` (default: the last
    event time).  No wall clock is consulted anywhere, so two replays of
    identical streams emit byte-identical transition sequences.
    """
    engine = AlertEngine(rules, sink=sink)
    return engine, engine.advance(StreamFold(), events, now_s)


def render_alert_table(transitions: list[Event],
                       active: list[ActiveAlert]) -> str:
    """The ``repro alerts`` text view: transition log + firing summary."""
    lines: list[str] = []
    if transitions:
        header = (f"{'t (s)':>12}  {'event':<16}{'rule':<22}"
                  f"{'job':<28}{'value':>12}  detail")
        lines.append(header)
        lines.append("-" * len(header))
        for ev in transitions:
            a = ev.args
            state = "FIRING" if ev.name == "alert_firing" else "resolved"
            lines.append(
                f"{ev.time_s:>12.3f}  {state:<16}{a.get('rule', '?'):<22}"
                f"{a.get('key', '?'):<28}{a.get('value', 0.0):>12.4g}  "
                f"{a.get('detail', '')}")
    else:
        lines.append("(no alert transitions)")
    lines.append("")
    if active:
        lines.append(f"{len(active)} alert(s) firing:")
        for alert in active:
            lines.append(f"  [{alert.severity}] {alert.rule} {alert.key} "
                         f"since t={alert.since_s:.3f}s — {alert.detail}")
    else:
        lines.append("no alerts firing")
    return "\n".join(lines)
