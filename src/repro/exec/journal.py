"""The campaign journal: the one record of every attempt, kept for resume.

One JSON file (``campaign_journal.json``) under the campaign's artifacts
directory, rewritten atomically after **every** job completion — so a
campaign killed at any instant loses at most the in-flight jobs.  Each
attempt of each cell, faulted and timed-out ones included, is persisted
alongside as a ``# repro-run`` file in the format submission artifacts
use (:func:`~repro.core.artifacts.save_run_result`); a failed attempt's
file is its partial run, its header naming its ``status`` and
``error_type``.  :func:`attempt_file` alone names them
(``jobs/<benchmark>/seed_<k>.txt``, retry ``n`` adding ``.attempt_<n>``),
and every reader — trace, resume, ``repro profile DIR``, the server —
goes through :meth:`CampaignJournal.attempt_files`.  A directory written
before failed attempts left files holds each cell's last run under the
first attempt's name, and reads the same way.

Cell states:

- ``reached`` — run completed and met the quality target (terminal);
- ``quality_miss`` — run completed below target (terminal: deterministic
  re-execution cannot change it, §3.2.2 treats it as a failed *result*);
- ``fault`` — the run raised; retried up to the cap, then terminal for
  this invocation but **rescheduled on resume** (fresh chance, whose
  attempts replace the cell's earlier ones);
- ``timeout`` — exceeded the per-job deadline; terminal for this
  invocation, rescheduled on resume (the user may raise the budget).
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

from ..core.artifacts import load_run_result, save_run_result
from ..core.runner import RunResult

__all__ = ["JobRecord", "CampaignJournal", "JOURNAL_NAME", "attempt_file"]

JOURNAL_NAME = "campaign_journal.json"
JOURNAL_VERSION = 1

# Cell states that resume must not reschedule.
_DONE = frozenset({"reached", "quality_miss"})


def attempt_file(benchmark: str, seed: int, attempt: int) -> Path:
    """The file of one attempt of one cell, relative to the journal directory."""
    retry = f".attempt_{attempt}" if attempt else ""
    return Path("jobs") / benchmark / f"seed_{seed}{retry}.txt"


@dataclass
class JobRecord:
    """Everything the journal knows about one (benchmark, seed) cell."""

    benchmark: str
    seed: int
    status: str  # reached | quality_miss | fault | timeout
    attempts: int = 1
    run_seed: int | None = None
    quality: float | None = None
    epochs: int | None = None
    time_to_train_s: float | None = None
    error: str | None = None
    backoffs_s: list[float] = field(default_factory=list)
    result_file: str | None = None  # the latest attempt's, relative to the directory

    @property
    def key(self) -> str:
        return f"{self.benchmark}/{self.seed}"

    @property
    def done(self) -> bool:
        return self.status in _DONE


class CampaignJournal:
    """Load/record/persist campaign progress.

    ``directory=None`` keeps the journal, and each attempt's run, in
    memory only (the default for unsaved campaigns); with a directory,
    every :meth:`record` writes the attempt's file and atomically rewrites
    the JSON file (write-temp-then-rename, so a kill mid-write never
    corrupts the previous state).
    """

    def __init__(self, directory: str | Path | None = None,
                 campaign: dict[str, Any] | None = None):
        self.directory = Path(directory) if directory is not None else None
        self.campaign = campaign or {}
        self.jobs: dict[str, JobRecord] = {}
        self._runs: dict[str, list[RunResult]] = {}  # in memory only

    # -- persistence ---------------------------------------------------------
    @property
    def path(self) -> Path | None:
        return None if self.directory is None else self.directory / JOURNAL_NAME

    @classmethod
    def load(cls, directory: str | Path) -> "CampaignJournal":
        """Read a journal back; an absent file yields an empty journal."""
        journal = cls(directory)
        path = journal.path
        if not path.is_file():
            return journal
        doc = json.loads(path.read_text())
        if doc.get("version") != JOURNAL_VERSION:
            raise ValueError(
                f"{path}: unsupported journal version {doc.get('version')!r}"
            )
        journal.campaign = doc.get("campaign", {})
        for key, raw in doc.get("jobs", {}).items():
            journal.jobs[key] = JobRecord(**raw)
        return journal

    def flush(self) -> None:
        if self.directory is None:
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        doc = {
            "version": JOURNAL_VERSION,
            "campaign": self.campaign,
            "jobs": {key: asdict(rec) for key, rec in sorted(self.jobs.items())},
        }
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(doc, indent=2, sort_keys=True))
        os.replace(tmp, self.path)

    # -- recording -----------------------------------------------------------
    def record(self, record: JobRecord, run: RunResult | None = None) -> None:
        """Record one attempt of a cell as its latest state and persist
        immediately; ``run`` is the attempt's run, partial if it raised."""
        if run is not None and self.directory is not None:
            rel = attempt_file(record.benchmark, record.seed, record.attempts - 1)
            save_run_result(self.directory / rel, run)
            record.result_file = str(rel)
        elif run is not None:
            self._runs.setdefault(record.key, []).append(run)
        self.jobs[record.key] = record
        self.flush()

    # -- reading attempts ----------------------------------------------------
    def completed_cells(self) -> set[tuple[str, int]]:
        """Cells resume must skip (terminal results, reached or missed)."""
        return {(r.benchmark, r.seed) for r in self.jobs.values() if r.done}

    def attempt_files(self, benchmark: str, seed: int) -> list[Path]:
        """The cell's attempt files that are on disk, oldest first."""
        record = self.jobs.get(f"{benchmark}/{seed}")
        if record is None or self.directory is None:
            return []
        paths = (self.directory / attempt_file(benchmark, seed, attempt)
                 for attempt in range(record.attempts))
        return [path for path in paths if path.is_file()]

    def attempts(self, benchmark: str, seed: int) -> list[RunResult]:
        """Every recorded attempt of the cell as a run, oldest first."""
        if self.directory is None:
            return list(self._runs.get(f"{benchmark}/{seed}", []))
        return [load_run_result(path) for path in self.attempt_files(benchmark, seed)]

    def load_result(self, benchmark: str, seed: int) -> RunResult | None:
        """The cell's finished run (reached or missed): its latest attempt."""
        record = self.jobs.get(f"{benchmark}/{seed}")
        runs = self.attempts(benchmark, seed) if record is not None and record.done else []
        return runs[-1] if runs else None
