"""One phase of one workload, in a process of its own.

``run.py`` starts this file as a subprocess: ``--phase setup`` times the
set-up a user pays before any measured work (imports, ``prepare_data`` and,
for ``serve_forward``, training and saving the artifacts it serves), and
``--phase body`` runs the workload once through the program's public API
(``BenchmarkRunner.run``, ``run_campaign``, ``train_and_save`` / ``load_sut``
/ ``SUT.predict``), checks what came out, and prints one JSON object.

Training seeds are fixed per workload, as the campaign planner fixes its own
(0..n-1): time-to-train moves by whole epochs from one training seed to the
next (reinforcement: 1.3 s to 8.3 s over seeds 0-9), which is the variance
section 3.2.2 of the paper spends 5-10 runs on, and no bound could sit on
it.  ``--seed`` drives what the benchmark itself generates, the query stream
of ``serve_forward``.  The order the benchmarks run in stays fixed: shuffling
it by seed moved ``vision_ttt``'s peak RSS by 15 % (2287-2747 MiB).
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up is timed from the first line of the process

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import zlib
from pathlib import Path

# One BLAS thread: two doubled CPU time for the same wall time on two cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE))

from catalog import CAMPAIGN, PER_LAYER, SEQ, SERVE, VISION  # noqa: E402

BENCHMARKS = {
    VISION: ("image_classification", "object_detection", "instance_segmentation"),
    SEQ: ("translation_recurrent", "translation_transformer"),
    CAMPAIGN: ("recommendation", "reinforcement"),
    SERVE: ("image_classification", "recommendation"),
}
# vision_ttt on seed 0 needs 17 epochs against 12 on seed 1, and the run cap
# (92 runs in 57 minutes) does not hold the difference.
TRAIN_SEED = {VISION: 1, SEQ: 0, SERVE: 0}
CAMPAIGN_SEEDS = 5      # cells per benchmark, seeds 0-4 (the vision run count)
OBSERVE_REPEATS = 200   # monitor view + alert replay over the written streams
DP2_SEEDS = 3
# Sized so the ResNet stream, the NCF stream and the offline batches each take
# about a third of wall_s: a slower query has to show in the gated number.
QUERIES = {"image_classification": 1500, "recommendation": 24000}
WARMUP = 100
CHECKED = 512           # queries per stream compared with their batched answer
OFFLINE_BATCHES, OFFLINE_BATCH = 10, 256
SMOKE = {"queries": 50, "warmup": 5, "offline_batches": 2, "observe": 3,
         "campaign_seeds": 1, "dp2_seeds": 1}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(BENCHMARKS))
    parser.add_argument("--phase", required=True, choices=("setup", "body"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--scratch", required=True, type=Path)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    benches, prepare_s = set_up(args.workload, args.phase, args.scratch)
    setup_s = time.perf_counter() - _T0
    if args.phase == "setup":
        out = artifact_facts(args.workload, args.scratch)
        out.setdefault("e2e", {})["setup_s"] = setup_s
    else:
        out = run_body(args, benches, prepare_s)
    print(json.dumps(out))
    return 0


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def set_up(workload: str, phase: str, scratch: Path) -> tuple[dict, float]:
    """Imports, then the data preparation the paper leaves untimed.

    Returns the prepared benchmarks and the seconds ``prepare_data`` took.
    """
    from repro.suite.registry import create_benchmark

    if workload == SERVE:
        if phase == "setup":
            from repro.loadgen.sut import train_and_save

            for name in BENCHMARKS[SERVE]:
                train_and_save(name, artifact_path(scratch, name),
                               seed=TRAIN_SEED[SERVE], max_epochs=1)
        return {}, 0.0  # load_sut prepares its own data, inside the timed body
    benches = {name: create_benchmark(name) for name in BENCHMARKS[workload]}
    t0 = time.perf_counter()
    for bench in benches.values():
        bench.prepare_data()
    return benches, time.perf_counter() - t0


def artifact_path(scratch: Path, name: str) -> Path:
    return scratch / "artifacts" / f"{name}.txt"


def artifact_facts(workload: str, scratch: Path) -> dict:
    """What the served artifacts cost to train (``serve_forward`` only)."""
    if workload != SERVE:
        return {}
    from repro.core.artifacts import load_run_result

    runs = [load_run_result(artifact_path(scratch, n)) for n in BENCHMARKS[SERVE]]
    return {
        "e2e": {"time_to_train_s": sum(r.time_to_train_s for r in runs),
                "epochs_to_target": sum(r.epochs for r in runs)},
        "fingerprint": {r.benchmark: [r.epochs, r.quality] for r in runs},
    }


# ---------------------------------------------------------------------------
# Body
# ---------------------------------------------------------------------------

class Outcome:
    """What a body hands back: numbers, checks, and non-span layer facts."""

    def __init__(self) -> None:
        self.e2e: dict[str, float] = {}
        self.layer: dict[str, float] = {}     # layer metrics not read off spans
        self.fingerprint: dict = {}           # must be equal across repeats
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)


def run_body(args, benches: dict, prepare_s: float) -> dict:
    import numpy as np
    import tracer

    rng = np.random.default_rng(args.seed)
    recorder = tracer.Recorder() if args.trace else None
    if recorder:
        recorder.run = f"{args.workload}/-/{args.seed}"
        tracer.install(recorder)
    body = {VISION: train_runs, SEQ: train_runs, CAMPAIGN: campaign,
            SERVE: serve}[args.workload]
    out = Outcome()
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    try:
        root = recorder.enter("e2e.body") if recorder else -1
        t0 = time.perf_counter()
        body(args, benches, rng, out, recorder)
        body_wall = time.perf_counter() - t0
        if recorder:
            recorder.exit(root)
    finally:
        if recorder:
            recorder.restore()
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    out.e2e["peak_rss_mb"] = usage1.ru_maxrss / 1024.0

    result = {"e2e": out.e2e, "fingerprint": out.fingerprint,
              "attempted": out.attempted, "failed": out.failed,
              "problems": out.problems, "provenance": provenance(np, args)}
    if recorder:
        from repro.framework.workspace import arena

        stats = arena().stats()
        out.layer.update({
            "core.user_cpu_s": usage1.ru_utime - usage0.ru_utime,
            "core.sys_cpu_s": usage1.ru_stime - usage0.ru_stime,
            "core.minor_faults": usage1.ru_minflt - usage0.ru_minflt,
            "framework.alloc_bytes": recorder.alloc_bytes,
            "framework.arena_hit_rate": stats["hit_rate"],
            "framework.arena_peak_live_mb": stats["peak_live_bytes"] / 2**20,
            "datasets.prepare_s": prepare_s,  # plus what load_sut prepares in the body
        })
        spans = recorder.spans
        origin = spans[0][tracer.START]
        for span in spans:
            span[tracer.START] -= origin
            span[tracer.END] -= origin
        summary = tracer.summarize(spans)
        result["layer"] = layer_metrics(spans, summary, out.layer, body_wall)
        tracer.write_trace(HERE / "out" / f"trace_{args.workload}.json", {
            "workload": args.workload, "seed": args.seed,
            "fields": ["name", "parent", "run", "start_s", "end_s"],
            "summary": summary,
            "reconciliation": {
                "body_wall_s": spans[0][tracer.END],
                "sum_self_s": sum(row["self_s"] for row in summary.values())},
            "layer_metrics": result["layer"],
            "spans": spans,
        })
    return result


def provenance(np, args) -> dict:
    """The framework and package version report (SNIPPETS.md snippet 1)."""
    import platform

    from repro.framework.config import kernel_mode

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(), "platform": platform.platform(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": 1, "kernel_mode": kernel_mode(), "seed": args.seed,
        "train_seeds": {**TRAIN_SEED, CAMPAIGN: f"0-{CAMPAIGN_SEEDS - 1}"},
    }


def train_runs(args, benches, rng, out: Outcome, recorder) -> None:
    """vision_ttt / seq_ttt: each benchmark once to its Table-1 target."""
    from repro.core.runner import BenchmarkRunner, RunFailure

    seed = TRAIN_SEED[args.workload]
    ttt = wall = 0.0
    epochs = 0
    for name in BENCHMARKS[args.workload]:
        if recorder:
            recorder.run = f"{args.workload}/{name}/{seed}"
        out.attempted += 1
        t0 = time.perf_counter()
        try:
            run = BenchmarkRunner().run(benches[name], seed,
                                        max_epochs=1 if args.smoke else None)
        except RunFailure as failure:
            out.failed += 1
            out.problems.append(str(failure))
            continue
        wall += time.perf_counter() - t0
        ttt += run.time_to_train_s
        epochs += run.epochs
        out.fingerprint[name] = [run.epochs, run.quality]
        out.layer[f"suite.ttt_{name}_s"] = run.time_to_train_s
        if not (run.reached_target or args.smoke):
            out.failed += 1
            out.problems.append(f"{name}: quality {run.quality} missed its target")
    out.e2e.update(time_to_train_s=ttt, wall_s=wall, epochs_to_target=epochs)


def campaign(args, benches, rng, out: Outcome, recorder) -> None:
    """smallstep_campaign: the section 3.2.2 run matrix through the engine."""
    from repro.exec import engine
    from repro.exec.journal import CampaignJournal
    from repro.exec.plan import CampaignSpec
    from repro.telemetry import alerts, events

    cells_each = SMOKE["campaign_seeds"] if args.smoke else CAMPAIGN_SEEDS
    order = BENCHMARKS[CAMPAIGN]
    directory = args.scratch / "campaign"
    shutil.rmtree(directory, ignore_errors=True)  # event logs append
    if recorder:
        recorder.run = f"{args.workload}/campaign/0-{cells_each - 1}"
    t0 = time.perf_counter()
    outcome = engine.run_campaign(
        CampaignSpec(order, seeds=cells_each, max_epochs=1 if args.smoke else None),
        journal_dir=directory)
    wall = time.perf_counter() - t0

    jobs = CampaignJournal.load(directory).jobs
    reached = sum(1 for rec in jobs.values() if rec.status == "reached")
    out.attempted = len(order) * cells_each
    out.failed = 0 if args.smoke else out.attempted - reached
    out.check(len(jobs) == out.attempted, f"journal holds {len(jobs)} cells")
    out.check(out.failed == 0, f"{out.failed} cells did not reach their target")
    out.e2e.update(time_to_train_s=outcome.summary.total_ttt_s, wall_s=wall,
                   epochs_to_target=sum(rec.epochs or 0 for rec in jobs.values()))
    out.fingerprint.update({key: [rec.epochs, rec.quality]
                            for key, rec in sorted(jobs.items())})

    streams = sorted((directory / "events").glob("*.jsonl"))
    replays = [[e.to_json() for e in
                alerts.replay_alerts(events.merge_event_streams(streams))[1]]
               for _ in range(2)]
    out.check(replays[0] == replays[1], "two alert replays of the streams differ")
    if not recorder:
        return

    for name in order:
        score = outcome.scores.get(name)
        out.layer[f"suite.ttt_{name}_s"] = score.time_to_train_s if score else 0.0
    files = [p for sub in ("events", "heartbeats") for p in (directory / sub).glob("*")]
    out.layer.update({
        "exec.overhead_s": wall - outcome.summary.total_ttt_s,
        "exec.cells": reached, "exec.retries": outcome.summary.retries,
        "telemetry.stream_bytes": sum(p.stat().st_size for p in files),
    })
    observe(directory, streams, out, SMOKE["observe"] if args.smoke else OBSERVE_REPEATS)
    dp2(benches["recommendation"], out, recorder, args)


def observe(directory, streams, out, repeats: int) -> None:
    """Reader side of the streams the campaign wrote; gates nothing today."""
    from repro.telemetry import alerts, events, monitor

    n_events = len(events.merge_event_streams(streams))
    t0 = time.perf_counter()
    for _ in range(repeats):
        monitor.load_monitor_view(directory)
    fold = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(repeats):
        alerts.replay_alerts(events.merge_event_streams(streams))
    replay = time.perf_counter() - t0
    out.layer["telemetry.monitor_fold_events_per_s"] = n_events * repeats / fold
    out.layer["telemetry.alert_replay_events_per_s"] = n_events * repeats / replay


def dp2(bench, out, recorder, args) -> None:
    """recommendation over the comms engine with two workers."""
    from repro.core.runner import BenchmarkRunner
    from repro.telemetry import Telemetry

    ttt = nbytes = elements = 0.0
    for seed in range(SMOKE["dp2_seeds"] if args.smoke else DP2_SEEDS):
        recorder.run = f"{args.workload}/dp2/{seed}"
        run = BenchmarkRunner().run(bench, seed, {"dp_workers": 2},
                                    max_epochs=1 if args.smoke else None,
                                    telemetry=Telemetry())
        ttt += run.time_to_train_s
        counters = run.telemetry.metrics
        nbytes += counters.get("allreduce_bytes", {}).get("value", 0)
        elements += counters.get("allreduce_elements", {}).get("value", 0)
    out.layer.update({"comms.dp2_ttt_s": ttt, "comms.allreduce_bytes": nbytes,
                      "comms.allreduce_elements": elements})


def serve(args, benches, rng, out: Outcome, recorder) -> None:
    """serve_forward: single-index queries, then offline batches, closed loop."""
    import numpy as np
    from repro.loadgen import sut as sut_mod

    warmup = SMOKE["warmup"] if args.smoke else WARMUP
    checksum = 0
    wall = 0.0
    latencies: dict[str, list[float]] = {}
    t0 = time.perf_counter()
    suts = {name: sut_mod.load_sut(artifact_path(args.scratch, name))
            for name in BENCHMARKS[SERVE]}
    wall += time.perf_counter() - t0
    out.layer["loadgen.queries"] = 0
    for name, sut in suts.items():
        if recorder:
            recorder.run = f"{args.workload}/{name}/{sut.info.seed}"
        count = SMOKE["queries"] if args.smoke else QUERIES[name]
        indices = rng.integers(0, sut.pool_size, size=count)
        answers = np.empty(count)
        samples = []
        t0 = time.perf_counter()
        for k in range(count):
            t_query = time.perf_counter()
            try:
                answers[k] = sut.predict(indices[k:k + 1])[0]
            except Exception as exc:  # a failed query is counted, not fatal
                out.failed += 1
                answers[k] = np.nan
                out.problems.append(f"{name} query {k}: {type(exc).__name__}: {exc}")
            samples.append(time.perf_counter() - t_query)
        wall += time.perf_counter() - t0
        out.attempted += count
        # Untimed check on the first CHECKED queries: an index answered alone
        # must agree with the same index answered in a batch: class ids exactly,
        # NCF scores (float32 GEMMs of another shape, values below 1) to four
        # float32 ulps.
        batched = sut.predict(indices[:CHECKED])
        tolerance = 0.0 if name == "image_classification" else 4 * np.finfo(np.float32).eps
        wrong = int((~(np.abs(answers[:CHECKED] - batched) <= tolerance)).sum())
        out.failed += wrong
        out.check(wrong == 0, f"{name}: {wrong} single answers differ from batched")
        checksum = zlib.crc32(answers.tobytes(), checksum)
        latencies[name] = samples[warmup:]
        out.layer["loadgen.queries"] += count - warmup

    resnet = suts["image_classification"]
    n_batches = SMOKE["offline_batches"] if args.smoke else OFFLINE_BATCHES
    batch_s = []
    for _ in range(n_batches):
        indices = rng.integers(0, resnet.pool_size, size=OFFLINE_BATCH)
        t0 = time.perf_counter()
        answers = resnet.predict(indices)
        batch_s.append(time.perf_counter() - t0)
        checksum = zlib.crc32(answers.tobytes(), checksum)
    wall += sum(batch_s)
    out.attempted += n_batches
    for sut in suts.values():
        sut.close()

    out.e2e["wall_s"] = wall
    out.fingerprint["checksum"] = checksum
    for name, short in (("image_classification", "resnet"), ("recommendation", "ncf")):
        ordered = sorted(latencies[name])
        out.layer[f"loadgen.singlestream_p50_ms_{short}"] = statistics.median(ordered) * 1e3
        out.layer[f"loadgen.query_p99_ms_{short}"] = ordered[int(0.99 * len(ordered))] * 1e3
    out.layer["loadgen.offline_batch_ms"] = statistics.median(batch_s) * 1e3
    out.layer["loadgen.offline_samples_per_s"] = n_batches * OFFLINE_BATCH / sum(batch_s)


# ---------------------------------------------------------------------------
# Layer metrics from the recording
# ---------------------------------------------------------------------------

def layer_metrics(spans: list, table: dict, facts: dict[str, float],
                  body_wall: float) -> dict[str, float]:
    """Every catalogued layer metric; a layer the workload never enters reads 0.

    ``table`` is ``tracer.summarize(spans)``; ``facts`` are the numbers that
    do not come from spans, added to any span-derived value of the same name.
    """
    import tracer

    def total(name):
        return table.get(name, {}).get("total_s", 0.0)

    def self_(name):
        return table.get(name, {}).get("self_s", 0.0)

    def count(name):
        return table.get(name, {}).get("count", 0)

    values = {
        "suite.run_epoch_s": total("suite.run_epoch"),
        "suite.evaluate_s": total("suite.evaluate"),
        "suite.create_session_s": total("suite.create_session"),
        "suite.train_steps_per_s": (count("framework.step") / total("suite.run_epoch")
                                    if total("suite.run_epoch") else 0.0),
        "core.runner_overhead_s": self_("core.run"),
        "core.artifact_save_s": total("core.artifact_save"),
        "core.artifact_load_s": total("core.artifact_load"),
        "framework.forward_s": total("framework.step") - tracer.total_under(
            spans, "framework.backward", "framework.step"),
        "framework.backward_s": total("framework.backward"),
        "framework.optimizer_s": total("framework.optimizer"),
        "framework.dataloader_wait_s": total("framework.dataloader_next"),
        "framework.fwd_other_s": self_("framework.fwd_other") + self_("framework.step"),
        "framework.steps": count("framework.step"),
        "models.roi_align_s": total("models.roi_align"),
        "models.greedy_decode_s": total("models.greedy_decode"),
        "metrics.detection_s": total("metrics.detection"),
        "metrics.bleu_s": total("metrics.bleu"),
        "metrics.ranking_s": total("metrics.ranking"),
        "datasets.prepare_s": total("datasets.prepare"),
        "go.selfplay_s": total("go.selfplay"),
        "go.mcts_search_s": total("go.mcts_search"),
        "go.games": count("go.selfplay_game"),
        "exec.journal_flush_s": total("exec.journal_flush"),
        "exec.journal_flushes": count("exec.journal_flush"),
        "telemetry.event_write_s": (total("telemetry.event_write")
                                    + total("telemetry.heartbeat_write")),
        "telemetry.events_written": count("telemetry.event_write"),
        "loadgen.sut_load_s": total("loadgen.sut_load"),
        "host.trace_overhead_share": len(spans) * empty_span_cost(tracer) / body_wall,
        "host.unattributed_share": sum(
            self_(n) for n in ("e2e.body", "suite.run_epoch", "suite.evaluate",
                               "loadgen.predict")) / body_wall,
    }
    for family in ("conv2d", "batchnorm", "pool", "linear", "lstm", "attention",
                   "layernorm", "embedding"):
        values[f"framework.fwd_{family}_s"] = self_(f"framework.fwd_{family}")
    for name, value in facts.items():
        values[name] = values.get(name, 0.0) + value
    return {m.name: float(values.get(m.name, 0.0)) for m in PER_LAYER}


def empty_span_cost(tracer, n: int = 20000) -> float:
    scratch = tracer.Recorder()
    t0 = time.perf_counter()
    for _ in range(n):
        scratch.exit(scratch.enter("x"))
    return (time.perf_counter() - t0) / n


if __name__ == "__main__":
    sys.exit(main())
