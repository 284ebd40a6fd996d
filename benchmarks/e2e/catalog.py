"""What the benchmark measures: workloads, end-to-end metrics, layer metrics.

``BENCHMARK.json`` at the root of the repo is where names, units, directions,
bounds and the workloads' reasons are written down, once; this file reads them
from there.  What the JSON has no key for lives here, keyed by name: how each
value is obtained, and for every layer metric the end-to-end metric it is
expected to move and on which workload (``moves``), and the workloads on
which it must stay flat.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"]: w["why"] for w in SPEC["workloads"]}
VISION, SEQ, CAMPAIGN, SERVE = ("vision_ttt", "seq_ttt", "smallstep_campaign",
                                "serve_forward")


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    what: str


# Every workload reports every one of these, so each is defined on all four.
# A value is the median over the run's passes (set-ups for setup_s); the three
# timings are divided by the run's host slowdown (sentinel.py).
_END_TO_END_WHAT = {
    "setup_s": "imports + prepare_data in a fresh process (serve_forward: + training "
               "and saving the served artifacts)",
    "time_to_train_s": "sum of RunResult.time_to_train_s (section 3.2.1) over the "
                       "workload's training runs; serve_forward: its two one-epoch "
                       "artifact runs",
    "wall_s": "wall-clock of the workload's body seen from outside: the "
              "BenchmarkRunner.run calls, the run_campaign call, or load_sut plus "
              "the whole query schedule",
    "epochs_to_target": "sum of RunResult.epochs over those runs; exact, so any change "
                        "in convergence or bit-identity moves it past the bound",
    "peak_rss_mb": "ru_maxrss of the process that ran the body",
}
END_TO_END = [EndToEnd(**m, what=_END_TO_END_WHAT[m["name"]]) for m in SPEC["end_to_end"]]


class Layer(NamedTuple):
    name: str
    unit: str
    better: str
    what: str
    moves: tuple[tuple[str, str], ...]  # (end-to-end metric, workload)
    flat_on: tuple[str, ...] = ()


TTT, WALL, SETUP, RSS = "time_to_train_s", "wall_s", "setup_s", "peak_rss_mb"
_TRAINING = ((TTT, VISION), (TTT, SEQ), (TTT, CAMPAIGN))
_NONE = (("none", "none"),)  # trust / reader-side metrics: gate nothing today


def _t(name, what, moves, flat_on=()):
    return name, {"what": what, "moves": tuple(moves), "flat_on": tuple(flat_on)}


_LAYER_NOTES = dict([
    # -- suite ---------------------------------------------------------------
    _t("suite.run_epoch_s", "TrainingSession.run_epoch, inclusive", _TRAINING),
    _t("suite.evaluate_s", "TrainingSession.evaluate, inclusive", _TRAINING),
    _t("suite.create_session_s", "Benchmark.create_session, inclusive",
       ((WALL, VISION), (WALL, SEQ), (WALL, SERVE))),
    _t("suite.ttt_image_classification_s", "that benchmark's time-to-train",
       ((TTT, VISION),), (SEQ, CAMPAIGN)),
    _t("suite.ttt_object_detection_s", "same", ((TTT, VISION),), (SEQ, CAMPAIGN)),
    _t("suite.ttt_instance_segmentation_s", "same", ((TTT, VISION),), (SEQ, CAMPAIGN)),
    _t("suite.ttt_translation_recurrent_s", "same", ((TTT, SEQ),), (VISION, CAMPAIGN)),
    _t("suite.ttt_translation_transformer_s", "same", ((TTT, SEQ),), (VISION, CAMPAIGN)),
    _t("suite.ttt_recommendation_s", "score_runs olympic mean over the campaign's cells",
       ((TTT, CAMPAIGN),), (VISION, SEQ)),
    _t("suite.ttt_reinforcement_s", "same", ((TTT, CAMPAIGN),), (VISION, SEQ)),
    _t("suite.train_steps_per_s", "framework.steps / suite.run_epoch_s",
       _TRAINING),
    # -- core ----------------------------------------------------------------
    _t("core.runner_overhead_s", "BenchmarkRunner.run self time: MLLog, timer, result",
       ((TTT, CAMPAIGN),), (VISION,)),
    _t("core.user_cpu_s", "ru_utime over the body", ((TTT, VISION),)),
    _t("core.sys_cpu_s", "ru_stime over the body: page-fault and mmap cost",
       ((TTT, VISION), (RSS, VISION)), (SEQ,)),
    _t("core.minor_faults", "ru_minflt over the body", ((TTT, VISION), (RSS, VISION)),
       (SEQ,)),
    _t("core.artifact_save_s", "save_run_result", ((WALL, CAMPAIGN),)),
    _t("core.artifact_load_s", "load_run_result", ((WALL, SERVE),)),
    # -- framework -----------------------------------------------------------
    _t("framework.forward_s", "StepExecutor.step minus the backward inside it",
       ((TTT, VISION), (TTT, SEQ))),
    _t("framework.backward_s", "Tensor.backward", ((TTT, VISION), (TTT, SEQ)), (SERVE,)),
    _t("framework.optimizer_s", "Optimizer.step", ((TTT, CAMPAIGN), (TTT, SEQ)), (SERVE,)),
    _t("framework.dataloader_wait_s", "time inside next() of DataLoader.__iter__",
       ((TTT, VISION), (TTT, CAMPAIGN)), (SEQ,)),
    *[_t(f"framework.fwd_{family}_s", "self time of Module.__call__ for that class family",
         ((TTT, VISION), (WALL, SERVE)), flat)
      for family, flat in (("conv2d", (SEQ,)), ("batchnorm", (SEQ,)), ("pool", (SEQ,)),
                           ("linear", ()))],
    *[_t(f"framework.fwd_{family}_s", "same", ((TTT, SEQ),), (VISION,))
      for family in ("lstm", "attention", "layernorm", "embedding")],
    _t("framework.fwd_other_s", "forward self time outside the named families: losses, "
       "softmax, model glue, zero_grad", _TRAINING),
    _t("framework.steps", "StepExecutor.step calls", _TRAINING),
    _t("framework.alloc_bytes", "set_alloc_tracker total", ((RSS, VISION),)),
    _t("framework.arena_hit_rate", "arena().stats() hit rate", ((TTT, VISION),)),
    _t("framework.arena_peak_live_mb", "arena().stats() peak live bytes",
       ((RSS, VISION),)),
    # -- models / metrics / datasets -------------------------------------------
    _t("models.roi_align_s", "roi_align, inclusive", ((TTT, VISION),), (SEQ,)),
    _t("models.greedy_decode_s", "GNMT/Transformer.greedy_decode, inclusive: the "
       "decoder the suite's evaluation uses (beam search is not on its path)",
       ((TTT, SEQ),), (VISION,)),
    _t("metrics.detection_s", "nms + mean_average_precision", ((TTT, VISION),), (SEQ,)),
    _t("metrics.bleu_s", "corpus_bleu", ((TTT, SEQ),), (VISION,)),
    _t("metrics.ranking_s", "leave_one_out_eval", ((TTT, CAMPAIGN),), (VISION, SEQ)),
    _t("datasets.prepare_s", "Benchmark.prepare_data: before the body, or inside load_sut",
       ((SETUP, VISION), (SETUP, SEQ), (SETUP, CAMPAIGN), (SETUP, SERVE))),
    # -- go --------------------------------------------------------------------
    _t("go.selfplay_s", "selfplay_batch, inclusive", ((TTT, CAMPAIGN), (WALL, CAMPAIGN)),
       (VISION, SEQ, SERVE)),
    _t("go.mcts_search_s", "MCTS.search, inclusive", ((TTT, CAMPAIGN),),
       (VISION, SEQ, SERVE)),
    _t("go.games", "play_selfplay_game calls", ((TTT, CAMPAIGN),)),
    # -- exec ------------------------------------------------------------------
    _t("exec.overhead_s", "run_campaign wall minus the cells' time-to-train",
       ((WALL, CAMPAIGN),), (VISION, SEQ)),
    _t("exec.journal_flush_s", "CampaignJournal.flush", ((WALL, CAMPAIGN),)),
    _t("exec.journal_flushes", "same, calls", ((WALL, CAMPAIGN),)),
    _t("exec.cells", "cells the journal holds as reached", ((WALL, CAMPAIGN),)),
    _t("exec.retries", "CampaignSummary.retries", ((WALL, CAMPAIGN),)),
    # -- telemetry -------------------------------------------------------------
    _t("telemetry.event_write_s", "EventLog.write + HeartbeatWriter.beat",
       ((WALL, CAMPAIGN),)),
    _t("telemetry.events_written", "EventLog.write calls", ((WALL, CAMPAIGN),)),
    _t("telemetry.stream_bytes", "bytes under events/ and heartbeats/",
       ((WALL, CAMPAIGN),)),
    _t("telemetry.monitor_fold_events_per_s", "load_monitor_view over the written "
       "streams, repeated; reader side", _NONE),
    _t("telemetry.alert_replay_events_per_s", "merge_event_streams + replay_alerts, "
       "repeated; reader side", _NONE),
    # -- comms -----------------------------------------------------------------
    _t("comms.dp2_ttt_s", "recommendation with dp_workers=2, three seeds; two cores, "
       "so the counts are the signal", _NONE),
    _t("comms.allreduce_bytes", "allreduce_bytes counter of those runs", _NONE),
    _t("comms.allreduce_elements", "allreduce_elements counter of those runs", _NONE),
    # -- loadgen ---------------------------------------------------------------
    _t("loadgen.sut_load_s", "load_sut, inclusive", ((WALL, SERVE),)),
    _t("loadgen.singlestream_p50_ms_resnet", "median wall latency of one "
       "SUT.predict([i]) on MiniResNet", ((WALL, SERVE),), (VISION, SEQ, CAMPAIGN)),
    _t("loadgen.singlestream_p50_ms_ncf", "same on NCF", ((WALL, SERVE),),
       (VISION, SEQ, CAMPAIGN)),
    _t("loadgen.query_p99_ms_resnet", "99th percentile of the same samples",
       ((WALL, SERVE),)),
    _t("loadgen.query_p99_ms_ncf", "same on NCF", ((WALL, SERVE),)),
    _t("loadgen.offline_batch_ms", "median wall of one 256-query SUT.predict",
       ((WALL, SERVE),)),
    _t("loadgen.offline_samples_per_s", "MiniResNet samples per second over the "
       "256-batches", ((WALL, SERVE),)),
    _t("loadgen.queries", "single queries timed, warm-up excluded", ((WALL, SERVE),)),
    # -- host: how far to trust the row ------------------------------------------
    _t("host.sentinel_ms", "sentinel.py's fixed kernel beside the run, median CPU time",
       _NONE),
    _t("host.trace_overhead_share", "spans recorded x the measured cost of an empty "
       "span, over the body's wall", _NONE),
    _t("host.unattributed_share", "self time of the body, run_epoch and evaluate "
       "spans (no wrapped call open) over the body's wall", _NONE),
])
PER_LAYER = [Layer(**m, **_LAYER_NOTES[m["name"]]) for m in SPEC["per_layer"]]
assert len(PER_LAYER) == len(_LAYER_NOTES), "a note names no metric of BENCHMARK.json"

# Layer counts that repeat exactly; --compare reports a mismatch on any of them.
EXACT_COUNTS = ("framework.steps", "go.games", "exec.cells", "comms.allreduce_bytes",
                "loadgen.queries")
