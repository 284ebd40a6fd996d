"""Submission artifacts on disk (§4.1).

"An MLPERF submission consists of system description, training session log
files, and all code and libraries required to reproduce those training
sessions. All of these are made publicly available in MLPERF GitHub
simultaneously with publication of MLPERF results."

This module serializes a :class:`~repro.core.submission.Submission` to the
directory layout real MLPerf results repositories use and loads it back,
so review audits the published files themselves.  A result file is one
``# repro-run`` JSON header line (:func:`read_run_header`) followed by the
run's MLLOG lines:

    <root>/<submitter>/
      systems/<system_name>.json
      results/<system_name>/<benchmark>/result_<k>.txt
      code/README.md              (pointer to the reproduction code)
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import asdict
from pathlib import Path

import numpy as np

from ..suite.base import BenchmarkSpec
from ..telemetry import RunTelemetry
from .mllog import Keys, parse_log_lines
from .review import ReviewReport, review_submission
from .runner import RunResult
from .submission import Category, Division, Submission, SystemDescription, SystemType
from .timing import TimingBreakdown

__all__ = ["save_submission", "load_submission", "review_directory",
           "save_run_result", "load_run_result", "read_run_header"]

_HEADER = "# repro-run "


def save_submission(submission: Submission, root: str | Path) -> Path:
    """Write the submission's artifacts; returns the submitter directory."""
    base = Path(root) / submission.system.submitter
    systems_dir = base / "systems"
    systems_dir.mkdir(parents=True, exist_ok=True)

    system_payload = asdict(submission.system)
    system_payload["system_type"] = submission.system.system_type.value
    meta = {
        "division": submission.division.value,
        "category": submission.category.value,
        "code_url": submission.code_url,
        "notes": submission.notes,
        "system": system_payload,
    }
    (systems_dir / f"{submission.system.system_name}.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True)
    )

    for benchmark, runs in submission.runs.items():
        bench_dir = base / "results" / submission.system.system_name / benchmark
        bench_dir.mkdir(parents=True, exist_ok=True)
        for i, run in enumerate(runs):
            save_run_result(bench_dir / f"result_{i}.txt", run)

    code_dir = base / "code"
    code_dir.mkdir(exist_ok=True)
    (code_dir / "README.md").write_text(
        f"Reproduction code: {submission.code_url or '(this repository)'}\n"
    )
    return base


def _scrub(hp: dict) -> dict:
    return {k: (list(v) if isinstance(v, tuple) else v) for k, v in hp.items()}


def save_run_result(path: str | Path, run: RunResult) -> Path:
    """Write one run as a ``result_*.txt``-format file (header + log lines).

    This is the unit the submission layout is built from; the campaign
    journal reuses it so per-job results stay auditable with the same
    tooling (``repro trace``, ``repro review``) as published files.  What
    can be rebuilt from the log (the trace, the per-epoch series) stays
    out of the header.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # Trained parameters go in an .npz sidecar next to the text file (the
    # log format stays line-oriented and auditable); the header records the
    # sidecar's name so the round-trip needs only the result file's path.
    params_name = None
    if run.model_state:
        sidecar = path.with_name(path.stem + ".params.npz")
        np.savez(sidecar, **run.model_state)
        params_name = sidecar.name
    header = json.dumps(
        {
            "benchmark": run.benchmark,
            "model_params": params_name,
            "seed": run.seed,
            "hyperparameters": _scrub(run.hyperparameters),
            "time_to_train_s": run.time_to_train_s,
            "epochs": run.epochs,
            "quality": run.quality,
            "reached_target": run.reached_target,
            "breakdown": (
                asdict(run.breakdown) if run.breakdown is not None else None
            ),
            # Metrics ride in the header so `repro profile` sees counters
            # (e.g. allreduce traffic) on reloaded runs.
            "metrics": run.telemetry.metrics if run.telemetry is not None else None,
            # The op-level profile (when the run recorded one) backs
            # `repro profile` on saved artifacts.
            "op_profile": (run.telemetry.op_profile
                           if run.telemetry is not None else None),
        },
        sort_keys=True,
    )
    path.write_text(f"{_HEADER}{header}\n" + "\n".join(run.log_lines) + "\n")
    return path


def load_run_result(benchmark: str | Path | None, path: str | Path | None = None) -> RunResult:
    """Read one ``result_*.txt``-format file back into a :class:`RunResult`.

    The benchmark name may be omitted (``load_run_result(path)``) for files
    written by this version, whose header records it; the two-argument form
    stays for older artifacts and directory-layout callers.
    """
    if path is None:
        benchmark, path = None, benchmark
    return _parse_result_file(benchmark, Path(path))


def load_submission(submitter_dir: str | Path) -> Submission:
    """Reconstruct a submission from its artifact directory."""
    base = Path(submitter_dir)
    system_files = sorted((base / "systems").glob("*.json"))
    if len(system_files) != 1:
        raise FileNotFoundError(
            f"expected exactly one system description in {base / 'systems'}, "
            f"found {len(system_files)}"
        )
    meta = json.loads(system_files[0].read_text())
    system_payload = dict(meta["system"])
    system_payload["system_type"] = SystemType(system_payload["system_type"])
    system = SystemDescription(**system_payload)
    submission = Submission(
        system=system,
        division=Division(meta["division"]),
        category=Category(meta["category"]),
        code_url=meta.get("code_url", ""),
        notes=meta.get("notes", ""),
    )

    results_root = base / "results" / system.system_name
    if results_root.exists():
        for bench_dir in sorted(p for p in results_root.iterdir() if p.is_dir()):
            runs = []
            for result_file in sorted(bench_dir.glob("result_*.txt")):
                runs.append(_parse_result_file(bench_dir.name, result_file))
            if runs:
                submission.add_runs(bench_dir.name, runs)
    return submission


def read_run_header(path: str | Path) -> dict:
    """The ``# repro-run`` header of one result file, read from its first line.

    Raises one ``ValueError`` naming the file when the header is missing
    or does not parse.
    """
    with open(path, encoding="utf-8", errors="replace") as fh:
        first = fh.readline()
    if not first.startswith(_HEADER):
        raise ValueError(f"{path}: missing run header")
    try:
        header = json.loads(first[len(_HEADER):])
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: corrupt run header: {exc}") from None
    if not isinstance(header, dict):
        raise ValueError(f"{path}: corrupt run header: not a JSON object")
    return header


def _parse_result_file(benchmark: str | None, path: Path) -> RunResult:
    header = read_run_header(path)
    if benchmark is None:
        benchmark = header.get("benchmark")
        if not benchmark:
            raise ValueError(
                f"{path}: header records no benchmark name; pass it explicitly"
            )
    log_lines = [line for line in path.read_text().splitlines()[1:] if line.strip()]
    try:
        # A truncated final log line (a killed writer's) parses away, so
        # such a result file still reviews and reloads.
        history = [float(e.value) for e in parse_log_lines(log_lines)
                   if e.key == Keys.EVAL_ACCURACY]
    except ValueError as exc:
        raise ValueError(f"{path}: corrupt log record: {exc}") from None
    # Rehydrate the trained parameters when the sidecar is present; a run
    # copied without its .params.npz still loads (it just isn't servable).
    model_state = None
    params_name = header.get("model_params")
    if params_name:
        sidecar = path.with_name(params_name)
        if sidecar.exists():
            try:
                with np.load(sidecar) as npz:
                    model_state = {key: npz[key].copy() for key in npz.files}
            except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
                raise ValueError(f"{sidecar}: unreadable parameters: {exc}") from None
    raw_breakdown = header.get("breakdown")
    raw_metrics = header.get("metrics")
    raw_profile = header.get("op_profile")
    try:
        return RunResult(
            benchmark=benchmark,
            seed=int(header["seed"]),
            hyperparameters=dict(header["hyperparameters"]),
            reached_target=bool(header["reached_target"]),
            quality=float(header["quality"]),
            epochs=int(header["epochs"]),
            time_to_train_s=float(header["time_to_train_s"]),
            quality_history=history,
            log_lines=log_lines,
            breakdown=TimingBreakdown(**raw_breakdown) if raw_breakdown else None,
            telemetry=(
                RunTelemetry(metrics=raw_metrics or {}, op_profile=raw_profile or {})
                if raw_metrics or raw_profile else None
            ),
            model_state=model_state,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: corrupt run header: {exc!r}") from None


def review_directory(submitter_dir: str | Path,
                     specs: dict[str, BenchmarkSpec]) -> ReviewReport:
    """Load artifacts from disk and run the full compliance review —
    auditing the *published files*, exactly as real review does."""
    return review_submission(load_submission(submitter_dir), specs)
