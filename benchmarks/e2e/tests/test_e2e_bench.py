"""Self-test of the end-to-end benchmark on its ``--smoke`` path.

Run with ``python3 -m pytest benchmarks/e2e/tests -q`` (about half a
minute; not part of tier-1).  It checks shape and arithmetic, never a
timing value: names and limits of the contract, that every layer metric
says what it should move, that recorded spans nest and their self times add
up, and that the wrappers are gone afterwards.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]
sys.path[:0] = [str(E2E), str(ROOT / "src")]

import catalog  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_meets_the_contract():
    spec = catalog.SPEC  # the one place names, units, directions and bounds are written
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/e2e"]
    assert tuple(catalog.WORKLOADS) == (catalog.VISION, catalog.SEQ, catalog.CAMPAIGN,
                                        catalog.SERVE)
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in spec["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in spec["per_layer"])
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    assert all(0 <= m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_every_layer_metric_says_what_it_moves():
    end_to_end = {m.name for m in catalog.END_TO_END} | {"none"}
    workloads = set(catalog.WORKLOADS) | {"none"}
    for metric in catalog.PER_LAYER:
        assert metric.moves, metric.name
        for moved, workload in metric.moves:
            assert moved in end_to_end and workload in workloads, metric.name
        assert set(metric.flat_on) <= workloads, metric.name
        layer = metric.name.split(".")[0]
        assert layer == "host" or (ROOT / "src" / "repro" / layer).is_dir(), metric.name


def test_summarize_self_and_total_times():
    # root [0,10] > a [1,4] > a [2,3] (same name nested), root > b [5,9]
    spans = [["root", -1, "", 0.0, 10.0], ["a", 0, "", 1.0, 4.0],
             ["a", 1, "", 2.0, 3.0], ["b", 0, "", 5.0, 9.0]]
    table = tracer.summarize(spans)
    assert table["root"] == {"count": 1, "total_s": 10.0, "self_s": 3.0}
    assert table["a"] == {"count": 2, "total_s": 3.0, "self_s": 3.0}
    assert table["b"] == {"count": 1, "total_s": 4.0, "self_s": 4.0}
    assert sum(row["self_s"] for row in table.values()) == 10.0
    assert tracer.total_under(spans, "a", "root") == 3.0


def test_wrappers_are_removed():
    from repro.core import artifacts
    from repro.exec import journal
    from repro.framework import compile as compile_mod, data, module, optim, tensor
    from repro.suite import image_classification, translation

    def snapshot():
        return [vars(owner)[attr] for owner, attr in (
            (module.Module, "__call__"), (compile_mod.StepExecutor, "step"),
            (tensor.Tensor, "backward"), (optim.Optimizer, "step"),
            (data.DataLoader, "__iter__"), (journal.CampaignJournal, "flush"),
            (artifacts, "save_run_result"), (journal, "save_run_result"),
            (translation, "corpus_bleu"), (image_classification._Session, "run_epoch"),
            (tensor, "_ALLOC_TRACKER"))]

    before = snapshot()
    recorder = tracer.Recorder()
    tracer.install(recorder)
    try:
        patched = snapshot()
        assert all(a is not b for a, b in zip(before, patched))
        module.Sequential()(tensor.Tensor([1.0]))
    finally:
        recorder.restore()
    assert all(a is b for a, b in zip(before, snapshot()))
    assert [s[tracer.NAME] for s in recorder.spans] == ["framework.fwd_other"]


@pytest.mark.parametrize("workload", list(catalog.WORKLOADS))
def test_smoke_traced_pass(workload):
    outcome = run.measure(workload, seed=0, seconds=0, trace=1, smoke=True)
    result = outcome["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert outcome["problems"] == [] and result["correct"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [m.name for m in catalog.PER_LAYER]
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())

    trace = json.loads((E2E / "out" / f"trace_{workload}.json").read_text())
    spans = trace["spans"]
    covered = [0.0] * len(spans)
    for index, (name, parent, run_id, start, end) in enumerate(spans):
        assert -1 <= parent < index and start <= end
        assert (parent == -1) == (index == 0)
        if parent >= 0:
            assert spans[parent][3] <= start and end <= spans[parent][4]
            covered[parent] += end - start
            assert run_id.startswith(workload + "/")
    for (name, parent, run_id, start, end), children in zip(spans, covered):
        assert children <= (end - start) * (1 + 1e-9) + 1e-9, name
    books = trace["reconciliation"]
    assert abs(books["sum_self_s"] - books["body_wall_s"]) <= 0.01 * books["body_wall_s"]
    assert not list((E2E / "out").glob(f"tmp-{workload}-*"))


def test_smoke_untraced_pass_reports_every_end_to_end_metric():
    result = run.measure(catalog.CAMPAIGN, seed=1, seconds=0, trace=0,
                         smoke=True)["result"]
    assert list(result["metrics"]) == [m.name for m in catalog.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())
