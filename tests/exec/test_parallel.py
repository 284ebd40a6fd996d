"""Parallel execution must be bit-identical to sequential execution.

Runs the real ``recommendation`` benchmark (the fastest in the suite)
through both executors: same seeds in, same quality/epochs/log out.
This is the acceptance gate for ``repro campaign --jobs N``.
"""

import json

import pytest

from repro.exec import (
    CampaignSpec,
    MultiprocessExecutor,
    RetryPolicy,
    SequentialExecutor,
    run_campaign,
)

SPEC = CampaignSpec(benchmarks=("recommendation",), seeds=3)


def _logical_log(run):
    """mllog lines minus wall-clock measurements: the deterministic payload.

    Timestamps, per-epoch seconds, and throughput are real elapsed time and
    legitimately vary run to run; everything else — event order, epochs,
    eval qualities, hyperparameters, run status — must match exactly.
    """
    lines = []
    for line in run.log_lines:
        record = json.loads(line.removeprefix(":::MLLOG "))
        record.pop("time_ms", None)
        if record.get("key") == "throughput":
            record["value"] = None
        elif record.get("key") == "tracked_stats" and isinstance(record.get("value"), dict):
            record["value"].pop("epoch_seconds", None)
        lines.append(json.dumps(record, sort_keys=True))
    return tuple(lines)


def _signature(outcome):
    runs = outcome.runs_by_benchmark["recommendation"]
    return sorted((r.seed, r.quality, r.epochs, _logical_log(r)) for r in runs)


@pytest.mark.slow
class TestParallelIdentity:
    def test_two_workers_match_sequential_bit_for_bit(self):
        sequential = run_campaign(SPEC, executor=SequentialExecutor(),
                                  policy=RetryPolicy(max_retries=0))
        parallel = run_campaign(SPEC, executor=MultiprocessExecutor(max_workers=2),
                                policy=RetryPolicy(max_retries=0))
        assert sequential.ok and parallel.ok
        assert _signature(sequential) == _signature(parallel)
        assert parallel.scores["recommendation"].mean_epochs == \
               sequential.scores["recommendation"].mean_epochs
        assert {r.seed: r.quality for r in parallel.submission.runs["recommendation"]} \
            == {r.seed: r.quality for r in sequential.submission.runs["recommendation"]}

    def test_parallel_merges_worker_telemetry(self):
        outcome = run_campaign(SPEC, executor=MultiprocessExecutor(max_workers=2),
                               policy=RetryPolicy(max_retries=0))
        pids = {e["pid"] for e in outcome.chrome_trace()["traceEvents"]}
        assert pids == {0, 1, 2}  # one trace row per seed, merged parent-side

    def test_worker_cap_validated(self):
        with pytest.raises(ValueError):
            MultiprocessExecutor(max_workers=0)
