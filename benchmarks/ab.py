#!/usr/bin/env python3
"""Alternating A/B pairs of the end-to-end benchmark, and the verdict on them.

Usage::

    python3 benchmarks/ab.py REV [--change REV] --workload W --pairs N [--name NAME]
                             [--what TEXT]
    python3 benchmarks/ab.py --verdict FILE [FILE ...]

The measuring form builds the parent ``REV`` and the change (default: the
working tree's tracked files, as ``git stash create`` records them, else
``HEAD``) with ``git archive`` into a temporary directory each, and runs pair
``i`` as two fresh processes, one a side, on query seed ``i + 1``: each is
that tree's own ``benchmarks/e2e/run.py --workload W --seed i+1 --seconds 30
--trace 0``, called as ``run.measure(W, i+1, 30, 0)``, the function behind it,
so the training fingerprint (epochs, quality; for ``serve_forward`` also the
answers' checksum) is kept.  Even pairs run the parent first, odd pairs the
change.  After every pair it writes ``benchmarks/reports/ab_NAME.json``
(default name: the workload) with ``what``, ``command``, ``host``,
``revisions``, ``runs`` (per workload, within a seed in the order they ran;
each run also records its process's ``minor_faults`` and ``sys_cpu_s``, read
with ``getrusage(RUSAGE_CHILDREN)`` around it) and ``fingerprints_equal``
(per workload: every pair's two sides agree).  A
report that exists for the same two trees gains the new workload's pairs,
its seeds continuing after the last one; for other trees it is refused.

``--verdict`` reads any ``ab_*.json`` of that schema and prints, per workload
and end-to-end metric of ``BENCHMARK.json`` (plus the derived
``ttt_per_epoch_s``, ``time_to_train_s / epochs_to_target``, judged the same
way), each side's median and
quartiles, the pairs the change wins, the difference of the medians, and that
difference in multiples of the parent's interquartile range, then each side's
median minor faults and system CPU seconds where the runs record them.  A
metric reads
``better`` (or ``worse``) when the change wins (loses) at least nine pairs in
ten over at least ten pairs and the medians differ by more than the parent's
IQR, ``same`` when every pair is equal, and ``unresolved`` otherwise.  It
exits 1 when a file cannot be read as pairs, and 0 whatever the verdicts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REPORTS = ROOT / "benchmarks" / "reports"
SECONDS = 30
MIN_PAIRS = 10
MEASURE = (
    "import json, sys; sys.path.insert(0, 'benchmarks/e2e'); import run; "
    "r = run.measure(sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), 0); "
    "print(json.dumps(dict(r['result'], fingerprint=r['fingerprint'], "
    "provenance=r['provenance'])))"
)
COMMAND = (f"python3 benchmarks/e2e/run.py --workload W --seed S --seconds {SECONDS} "
           f"--trace 0 (called as run.measure(W, S, {SECONDS}, 0), the function behind "
           "it, so the fingerprint is kept), each side in a fresh process in its own "
           "git archive of its revision")


def end_to_end() -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


# The derived row: time_to_train_s / epochs_to_target, so a change that
# moves the time per epoch is judged apart from one that moves the epochs.
PER_EPOCH = {"name": "ttt_per_epoch_s", "better": "lower"}


def with_per_epoch(run: dict) -> dict:
    if run.get("epochs_to_target") and "time_to_train_s" in run:
        return {**run, PER_EPOCH["name"]: run["time_to_train_s"] / run["epochs_to_target"]}
    return run


# ---------------------------------------------------------------------------
# Measuring
# ---------------------------------------------------------------------------

def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def resolve(rev: str | None) -> str:
    if rev is None:
        rev = git("stash", "create") or "HEAD"
    return git("rev-parse", "--verify", f"{rev}^{{commit}}")


def build(commit: str, into: Path) -> Path:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit], check=True,
                             capture_output=True).stdout
    into.mkdir()
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


# Read around one child: RUSAGE_CHILDREN sums this process's waited-for children only.
RUSAGE = (("minor_faults", "ru_minflt"), ("sys_cpu_s", "ru_stime"))


def run_side(tree: Path, workload: str, seed: int) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    done = subprocess.run([sys.executable, "-c", MEASURE, workload, str(seed), str(SECONDS)],
                          cwd=tree, env=env, capture_output=True, text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {tree} exited {done.returncode}:\n"
                           + done.stderr[-2000:])
    out = json.loads(done.stdout.strip().splitlines()[-1])
    out["rusage"] = {key: getattr(after, field) - getattr(before, field)
                     for key, field in RUSAGE}
    return out


def record(seed: int, side: str, out: dict) -> dict:
    metrics = {name: round(m["value"], 4) for name, m in out["metrics"].items()}
    rusage = {key: round(value, 4) for key, value in out["rusage"].items()}
    return {"seed": seed, "side": side, "correct": out["correct"],
            "attempted": out["attempted"], "failed": out["failed"], **metrics,
            **rusage, "fingerprint": out["fingerprint"]}


def host(provenance: dict) -> str:
    return (f"{provenance['cpu_count']}-core {provenance['platform']}, Python "
            f"{provenance['python']}, NumPy {provenance['numpy']}, {provenance['blas']} "
            f"({provenance['blas_threads']} BLAS thread), kernel mode "
            f"{provenance['kernel_mode']}, sentinel-normalised timings")


def measure(args: argparse.Namespace) -> int:
    revisions = {"parent": resolve(args.rev), "change": resolve(args.change)}
    target = REPORTS / f"ab_{args.name or args.workload}.json"
    report = json.loads(target.read_text()) if target.exists() else {
        "what": (f"{args.what + ': ' if args.what else ''}parent {revisions['parent'][:10]} "
                 f"vs change {revisions['change'][:10]}, alternating pairs, the order "
                 "flipping every pair (even pair index: parent first); within a seed, "
                 "runs are listed in the order they ran"),
        "command": COMMAND, "host": None, "revisions": revisions,
        "runs": {}, "fingerprints_equal": {}}
    # Trees, not commits: each `git stash create` of one working tree is a new commit.
    if [git("rev-parse", f"{c}^{{tree}}") for c in report.get("revisions", {}).values()] != [
            git("rev-parse", f"{c}^{{tree}}") for c in revisions.values()]:
        print(f"ab: {target} holds pairs of other revisions; pass another --name",
              file=sys.stderr)
        return 2
    runs = report["runs"].setdefault(args.workload, [])
    first = max((r["seed"] for r in runs), default=0) + 1
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees = {side: build(commit, Path(tmp) / side) for side, commit in revisions.items()}
        for i in range(args.pairs):
            seed = first + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            outs = {}
            for side in order:
                outs[side] = run_side(trees[side], args.workload, seed)
                runs.append(record(seed, side, outs[side]))
                print(f"# pair {i + 1}/{args.pairs} seed {seed} {side}: "
                      + json.dumps({k: v for k, v in runs[-1].items() if k != "fingerprint"}),
                      file=sys.stderr)
            report["host"] = report["host"] or host(outs["parent"]["provenance"])
            report["fingerprints_equal"][args.workload] = all(
                a["fingerprint"] == b["fingerprint"] for a, b in pair_up(runs))
            target.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {target.relative_to(ROOT)}")
    return verdict([target])


# ---------------------------------------------------------------------------
# Verdict
# ---------------------------------------------------------------------------

def pair_up(runs: list[dict]) -> list[tuple[dict, dict]]:
    """(parent, change) per seed; any side but ``parent`` is the change."""
    by_seed: dict[int, list[dict]] = {}
    for run in runs:
        by_seed.setdefault(run["seed"], []).append(run)
    pairs = []
    for seed, group in by_seed.items():
        parents = [r for r in group if r["side"] == "parent"]
        if len(group) != 2 or len(parents) != 1:
            raise ValueError(f"seed {seed}: {len(group)} runs, {len(parents)} parent")
        pairs.append((parents[0], next(r for r in group if r is not parents[0])))
    return pairs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def judge(parent: list[float], change: list[float], lower_is_better: bool) -> dict:
    sign = -1 if lower_is_better else 1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    qp, qc = quartiles(parent), quartiles(change)
    delta, iqr = qc[1] - qp[1], qp[2] - qp[0]
    n = len(parent)
    if wins == losses == 0:
        word = "same"
    elif n >= MIN_PAIRS and abs(delta) > iqr and 10 * max(wins, losses) >= 9 * n:
        word = ("better" if sign * delta > 0 and wins > losses
                else "worse" if sign * delta < 0 and losses > wins else "unresolved")
    else:
        word = "unresolved"
    in_iqr = delta / iqr if iqr else (math.copysign(math.inf, delta) if delta else 0.0)
    return {"parent": qp, "change": qc, "wins": wins, "n": n, "delta": delta,
            "in_iqr": in_iqr, "verdict": word}


def verdict(paths: list[Path]) -> int:
    metrics = end_to_end() + [PER_EPOCH]
    status = 0
    for path in paths:
        try:
            report = json.loads(Path(path).read_text())
            tables = {w: pair_up([with_per_epoch(r) for r in runs])
                      for w, runs in report["runs"].items()}
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"ab: cannot read {path}: {exc}", file=sys.stderr)
            status = 1
            continue
        print(f"== {path}")
        equal = report.get("fingerprints_equal", {})
        for workload, pairs in tables.items():
            fp = {True: "fingerprints equal", False: "FINGERPRINTS DIFFER"}.get(
                equal.get(workload), "no fingerprint")
            print(f"{workload}: {len(pairs)} pairs, {fp}")
            print(f"  {'metric':<17}{'parent median [q1, q3]':>26}{'change median [q1, q3]':>26}"
                  f"{'wins':>8}{'delta':>10}{'delta/IQR':>11}  verdict")
            for m in metrics:
                if not all(m["name"] in r for pair in pairs for r in pair):
                    continue
                j = judge([p[m["name"]] for p, _ in pairs], [c[m["name"]] for _, c in pairs],
                          m["better"] == "lower")
                cells = [f"{q[1]:.2f} [{q[0]:.2f}, {q[2]:.2f}]" for q in (j["parent"], j["change"])]
                print(f"  {m['name']:<17}{cells[0]:>26}{cells[1]:>26}"
                      f"{j['wins']:>5}/{j['n']:<2}{j['delta']:>+10.2f}{j['in_iqr']:>+11.2f}"
                      f"  {j['verdict']}")
            for key, _ in RUSAGE:
                if all(key in r for pair in pairs for r in pair):
                    medians = [statistics.median(pair[side][key] for pair in pairs)
                               for side in (0, 1)]
                    print(f"  {key:<17}{medians[0]:>26.2f}{medians[1]:>26.2f}"
                          "  (median; the run's process)")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("rev", nargs="?", help="the parent revision")
    parser.add_argument("--change", help="the change's revision (default: the working tree)")
    parser.add_argument("--workload")
    parser.add_argument("--pairs", type=int)
    parser.add_argument("--name", help="writes benchmarks/reports/ab_NAME.json")
    parser.add_argument("--what", help="what the change is, for the report's 'what'")
    parser.add_argument("--verdict", nargs="+", type=Path, metavar="FILE")
    args = parser.parse_args()
    if args.verdict:
        return verdict(args.verdict)
    if not (args.rev and args.workload and args.pairs and args.pairs > 0):
        parser.error("measuring needs REV, --workload and --pairs N > 0")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
