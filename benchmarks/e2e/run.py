#!/usr/bin/env python3
"""The end-to-end benchmark: time-to-train, set-up, memory, and where it went.

Driver form (one workload, one JSON object on the last line of stdout)::

    python3 benchmarks/e2e/run.py --workload vision_ttt --seed 3 --seconds 30 --trace 0

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
wrapper installed; ``--trace 1`` repeats the workload under the span
recorder, once, and reports the per-layer ones.  ``--seconds`` becomes a
whole number of passes of the workload, each in a fresh process, and every
value is the median over the passes (``setup_s``: over the run's set-ups).
Timings are divided by how slow the host was during the run (``sentinel.py``);
the timings as measured go to stderr and into the ledger under ``raw``.

Ledger form (every workload, ``REPEATS`` runs round-robin so slow phases of
the host are spread, median of the runs, then one traced pass each)::

    python3 benchmarks/e2e/run.py [--seed 0] [--out FILE]
    python3 benchmarks/e2e/run.py --compare A.json B.json
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from catalog import (CAMPAIGN, END_TO_END, EXACT_COUNTS, PER_LAYER, SEQ,  # noqa: E402
                     SERVE, SPEC, VISION, WORKLOADS)

REPEATS = 3  # ledger runs per workload; baseline/ledger_{A,B}.json were made with it
# Set-ups timed per run, median reported.  serve_forward's trains two
# artifacts (about 3.5 s), so it gets two where the others get three.
SETUP_REPEATS = {SERVE: 2}
# Passes in a run of the benchmark's run_seconds (30: a pass of vision_ttt is
# 31 s, of seq_ttt 29 s, of the campaign 8.5 s, of serve_forward 4.9 s), scaled
# for another --seconds.  A fixed count, so every run of a workload does the
# same work (a floor on measured time gave one pass on a slow minute and two on
# a fast).  A third campaign pass took its spread from 10 % to 8 % and the
# driver's 92 runs from 75 % of their 3420 s to 85 %: not worth the margin.
PASSES = {VISION: 1, SEQ: 1, CAMPAIGN: 2, SERVE: 3}
E2E_BY_NAME = {m.name: m for m in END_TO_END}
TIMINGS = [m.name for m in END_TO_END if m.unit == "s"]
# sentinel.py's median beside any of the four workloads on a quiet stretch of
# this host (2.04-2.07 ms).  It only fixes the scale: every use of the numbers
# is the ratio of two runs on one host.  A run cannot supply it: one that falls
# inside a slow stretch holds no quiet sample (README, *How steady it is*).
REFERENCE_MS = 2.05
CHILD_TIMEOUT_S = 170


class ChildFailed(RuntimeError):
    pass


def child(workload: str, phase: str, seed: int, trace: int, scratch: Path,
          smoke: bool) -> dict:
    """One phase of one workload in a fresh interpreter; its JSON result."""
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--phase", phase, "--seed", str(seed), "--trace", str(trace),
           "--scratch", str(scratch)] + (["--smoke"] if smoke else [])
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise ChildFailed(f"{workload} {phase} exited {done.returncode}:\n"
                          + done.stderr[-2000:])
    return json.loads(done.stdout.strip().splitlines()[-1])


class HostProbe:
    """``sentinel.py`` running beside one run; see its docstring.

    One figure per run: the median over passes deals with the seconds-long
    stalls and spurts inside a run, this with the minutes-long slow stretches
    between runs.  (A pass of a few seconds holds too few samples to be divided
    by its own.)
    """

    def __init__(self, log: Path) -> None:
        self.log = log

    def __enter__(self) -> "HostProbe":
        with self.log.open("w") as out:  # a file, not a pipe: it cannot fill up
            self.process = subprocess.Popen([sys.executable, str(HERE / "sentinel.py")],
                                            stdout=out)
        return self

    def __exit__(self, *exc) -> None:
        self.process.terminate()
        self.process.wait(timeout=10)
        self.samples = [float(line) for line in self.log.read_text().split()]


def at_reference_speed(metric, value: float, slowdown: float) -> float:
    """A timing or a rate as it would read on the quiet reference host."""
    if metric.name.startswith("host."):
        return value
    if metric.unit in ("s", "ms"):
        return value / slowdown
    return value * slowdown if metric.unit == "1/s" else value


def measure(workload: str, seed: int, seconds: float, trace: int,
            smoke: bool = False) -> dict:
    """One run of one workload: the driver's JSON plus what stands behind it.

    Timings are divided by how slow the host was during the run
    (``HostProbe``), so they read as seconds on a quiet reference host; the
    end-to-end timings as measured are kept under ``raw``.
    """
    scratch = OUT / f"tmp-{workload}-{time.time_ns()}"
    scratch.mkdir(parents=True)
    setup_repeats = 1 if smoke else SETUP_REPEATS.get(workload, 3)
    passes = 1 if trace else max(1, round(PASSES[workload] * seconds / SPEC["run_seconds"]))
    try:
        with HostProbe(scratch / "sentinel.log") as probe:
            # serve_forward's body serves what its set-up trained: set-ups first.
            setups = [child(workload, "setup", seed, 0, scratch, smoke)
                      for _ in range(setup_repeats)]
            bodies = [child(workload, "body", seed, trace, scratch, smoke)
                      for _ in range(passes)]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if not probe.samples:
        raise ChildFailed("the host probe took no sample during the run")
    kernel_ms = statistics.median(probe.samples)
    slowdown = kernel_ms / REFERENCE_MS
    samples: dict[str, list[float]] = {}
    raw: dict[str, list[float]] = {}
    for part in setups + bodies:
        for name, value in part["e2e"].items():
            if name in TIMINGS:
                raw.setdefault(name, []).append(value)
            samples.setdefault(name, []).append(
                at_reference_speed(E2E_BY_NAME[name], value, slowdown))
    problems = [p for body in bodies for p in body["problems"]]
    for group in (setups, bodies):  # same training seed, so same outcome
        prints = {json.dumps(p.get("fingerprint"), sort_keys=True) for p in group}
        if len(prints) > 1:
            problems.append(f"{workload}: (epochs, quality) differ between repeats")

    if trace:
        layer = dict(bodies[-1]["layer"], **{"host.sentinel_ms": kernel_ms})
        metrics = {m.name: {"value": at_reference_speed(m, layer[m.name], slowdown),
                            "unit": m.unit} for m in PER_LAYER}
    else:
        metrics = {m.name: {"value": statistics.median(samples[m.name]), "unit": m.unit}
                   for m in END_TO_END}
    return {
        "result": {"correct": not problems,
                   "attempted": sum(b["attempted"] for b in bodies),
                   "failed": sum(b["failed"] for b in bodies),
                   "metrics": metrics},
        "samples": samples, "raw": raw, "problems": problems,
        "sentinel_ms": kernel_ms,
        "fingerprint": bodies[-1]["fingerprint"],
        "provenance": bodies[-1]["provenance"],
    }


# ---------------------------------------------------------------------------
# Ledger: all workloads, median of R runs, one traced pass
# ---------------------------------------------------------------------------

def ledger(seed: int, seconds: float, smoke: bool) -> dict:
    runs: dict[str, list[dict]] = {w: [] for w in WORKLOADS}
    for repeat in range(REPEATS):
        for workload in WORKLOADS:  # A B C D, A B C D: spread the slow phases
            runs[workload].append(measure(workload, seed, seconds, 0, smoke))
            print(f"# repeat {repeat + 1}/{REPEATS} {workload} done", file=sys.stderr)
    payload = {"provenance": {"repeats": REPEATS, "git": git_revision()}, "workloads": {}}
    for workload, results in runs.items():
        traced = measure(workload, seed, seconds, 1, smoke)
        problems = [p for r in results + [traced] for p in r["problems"]]
        if len({json.dumps(r["fingerprint"], sort_keys=True) for r in results}) > 1:
            problems.append(f"{workload}: counts differ between repeats")
        end_to_end = {}
        for metric in END_TO_END:
            values = [r["result"]["metrics"][metric.name]["value"] for r in results]
            end_to_end[metric.name] = {
                "value": statistics.median(values), "unit": metric.unit,
                "range": max(values) - min(values), "samples": values}
        attempted = sum(r["result"]["attempted"] for r in results)
        failed = sum(r["result"]["failed"] for r in results)
        payload["workloads"][workload] = {
            "end_to_end": end_to_end,
            "per_layer": traced["result"]["metrics"],
            # measured counterpart of host.trace_overhead_share
            "traced_wall_over_untraced": (traced["samples"]["wall_s"][-1]
                                          / end_to_end["wall_s"]["value"]),
            "sentinel_ms": [r["sentinel_ms"] for r in results],  # untraced runs
            "raw": {name: [v for r in results for v in r["raw"][name]]
                    for name in TIMINGS},
            "attempted": attempted, "failed": failed,
            "failed_share": failed / attempted,
            "problems": problems,
        }
        payload["provenance"].update(traced["provenance"])
    return payload


def git_revision() -> str:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def print_ledger(payload: dict) -> None:
    for workload, entry in payload["workloads"].items():
        print(f"\n== {workload}  failed {entry['failed']}/{entry['attempted']}  "
              f"host.sentinel_ms {statistics.median(entry['sentinel_ms']):.3f}")
        for name, m in entry["end_to_end"].items():
            print(f"  {name:<42}{m['value']:>14.4f} {m['unit']:<6}"
                  f"range {m['range']:.4f} over {len(m['samples'])} runs")
        for name, m in entry["per_layer"].items():
            if m["value"]:
                print(f"  {name:<42}{m['value']:>14.4f} {m['unit']}")
        for problem in entry["problems"]:
            print(f"  PROBLEM: {problem}")


# ---------------------------------------------------------------------------
# Compare two ledgers
# ---------------------------------------------------------------------------

def compare(path_a: str, path_b: str) -> int:
    """Per metric x workload: both values, B/A, the bound, and a verdict."""
    a, b = (json.loads(Path(p).read_text())["workloads"] for p in (path_a, path_b))
    bad = 0
    print(f"{'workload':<20}{'metric':<28}{'A':>14}{'B':>14}{'B/A':>8}{'bound':>7}  verdict")
    for workload in WORKLOADS:
        rows = [("end_to_end", m.name, m) for m in END_TO_END]
        rows += [("per_layer", name, None) for name in EXACT_COUNTS]
        for section, name, metric in rows:
            va = a[workload][section][name]["value"]
            vb = b[workload][section][name]["value"]
            if not (va or vb):
                continue  # a layer this workload never enters
            ratio = vb / va if va else float("nan")
            if metric is None or metric.unit == "count":
                verdict = "within" if va == vb else "count-mismatch"
            else:
                worse = ratio - 1.0 if metric.better == "lower" else 1.0 - ratio
                verdict = "within" if worse <= metric.bound else "outside"
            bad += verdict != "within"
            print(f"{workload:<20}{name:<28}{va:>14.4f}{vb:>14.4f}{ratio:>8.3f}"
                  f"{format(metric.bound, '.2f') if metric else '':>7}  {verdict}")
        host = [statistics.median(x[workload]["sentinel_ms"]) for x in (a, b)]
        print(f"{workload:<20}{'host.sentinel_ms':<28}{host[0]:>14.4f}{host[1]:>14.4f}"
              f"{host[1] / host[0]:>8.3f}{'':>7}  not gated")
        failed = a[workload]["failed"], b[workload]["failed"]
        if any(failed):
            bad += 1
            print(f"{workload:<20}{'failed':<28}{failed[0]:>14}{failed[1]:>14}")
    print(f"B/A is relative to {path_a}; {bad} outside, mismatched or failed")
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="one epoch, one cell, 50 queries; checks shape, not targets")
    parser.add_argument("--out", type=Path, help="ledger file (default out/ledger.json)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args()

    if args.compare:
        return compare(*args.compare)
    try:
        if args.workload:
            run = measure(args.workload, args.seed, args.seconds, args.trace, args.smoke)
            for problem in run["problems"]:
                print(f"PROBLEM: {problem}", file=sys.stderr)
            print(f"# host.sentinel_ms {run['sentinel_ms']:.4f}; as measured: "
                  f"{json.dumps(run['raw'])}", file=sys.stderr)
            print(json.dumps(run["result"]))
            return 0 if run["result"]["correct"] else 1
        payload = ledger(args.seed, args.seconds, args.smoke)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(exc, file=sys.stderr)
        return 1
    print_ledger(payload)
    target = args.out or OUT / "ledger.json"
    target.write_text(json.dumps(payload, indent=1))
    print(f"\nwrote {target}")
    return 1 if any(e["problems"] for e in payload["workloads"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
