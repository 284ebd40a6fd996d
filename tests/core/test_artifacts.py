"""Submission artifacts: save/load roundtrip, directory review, the log checker."""

import json

import numpy as np
import pytest

from repro.core import (
    BenchmarkRunner,
    Category,
    Division,
    FakeClock,
    Keys,
    Submission,
    SystemDescription,
    SystemType,
)
from repro.core.artifacts import (
    load_run_result,
    load_submission,
    read_run_header,
    review_directory,
    save_run_result,
    save_submission,
)
from repro.core.mllog import LogEvent, parse_log_lines
from repro.core.review import _check_log_structure
from tests.core.fakes import FAKE_SPEC, FakeBenchmark


@pytest.fixture()
def submission():
    clock = FakeClock()
    bench = FakeBenchmark(clock=clock)
    runner = BenchmarkRunner(clock=clock)
    runs = [runner.run(bench, seed=s) for s in range(5)]
    system = SystemDescription(
        submitter="acme",
        system_name="acme-8x",
        system_type=SystemType.CLOUD,
        num_nodes=2,
        processors_per_node=2,
        processor_type="cpu-x",
        accelerators_per_node=8,
        accelerator_type="gpu-large",
        host_memory_gb=256.0,
        interconnect="100GbE",
        software_stack={"framework": "repro"},
    )
    sub = Submission(system, Division.CLOSED, Category.AVAILABLE,
                     code_url="https://example.com/acme")
    sub.add_runs(FAKE_SPEC.name, runs)
    return sub


class TestModelStateSidecar:
    """Trained parameters round-trip through the .params.npz sidecar."""

    def _run_with_state(self):
        clock = FakeClock()
        run = BenchmarkRunner(clock=clock).run(FakeBenchmark(clock=clock), seed=3)
        run.model_state = {
            "fc.weight": np.arange(6, dtype=np.float64).reshape(2, 3),
            "fc.bias": np.array([0.5, -0.5]),
        }
        return run

    def test_roundtrip_restores_parameters(self, tmp_path):
        from repro.core.artifacts import load_run_result, save_run_result

        run = self._run_with_state()
        path = save_run_result(tmp_path / "result_0.txt", run)
        assert (tmp_path / "result_0.params.npz").exists()
        back = load_run_result(path)  # benchmark name comes from the header
        assert back.benchmark == FAKE_SPEC.name
        assert set(back.model_state) == set(run.model_state)
        for name, arr in run.model_state.items():
            np.testing.assert_array_equal(back.model_state[name], arr)

    def test_no_state_writes_no_sidecar(self, tmp_path):
        from repro.core.artifacts import load_run_result, save_run_result

        run = self._run_with_state()
        run.model_state = None
        path = save_run_result(tmp_path / "result_0.txt", run)
        assert not (tmp_path / "result_0.params.npz").exists()
        assert load_run_result(FAKE_SPEC.name, path).model_state is None

    def test_missing_sidecar_still_loads(self, tmp_path):
        from repro.core.artifacts import load_run_result, save_run_result

        run = self._run_with_state()
        path = save_run_result(tmp_path / "result_0.txt", run)
        (tmp_path / "result_0.params.npz").unlink()
        assert load_run_result(path).model_state is None

    @pytest.mark.parametrize("damage", ["truncated", "not-a-zip"])
    def test_unreadable_sidecar_names_the_sidecar(self, tmp_path, damage):
        from repro.core.artifacts import load_run_result, save_run_result

        path = save_run_result(tmp_path / "result_0.txt", self._run_with_state())
        sidecar = tmp_path / "result_0.params.npz"
        blob = sidecar.read_bytes()
        sidecar.write_bytes(blob[: len(blob) // 2] if damage == "truncated" else b"garbage")
        with pytest.raises(ValueError, match=f"^{sidecar}: unreadable parameters: "):
            load_run_result(path)

    def test_headerless_benchmark_requires_explicit_name(self, tmp_path):
        from repro.core.artifacts import load_run_result, save_run_result

        run = self._run_with_state()
        path = save_run_result(tmp_path / "result_0.txt", run)
        first, _, rest = path.read_text().partition("\n")
        header = json.loads(first[len("# repro-run "):])
        del header["benchmark"]
        path.write_text(f"# repro-run {json.dumps(header, sort_keys=True)}\n" + rest)
        with pytest.raises(ValueError, match="no benchmark name"):
            load_run_result(path)
        assert load_run_result(FAKE_SPEC.name, path).benchmark == FAKE_SPEC.name


class TestSaveLoad:
    def test_directory_layout(self, submission, tmp_path):
        base = save_submission(submission, tmp_path)
        assert (base / "systems" / "acme-8x.json").exists()
        results = base / "results" / "acme-8x" / FAKE_SPEC.name
        assert len(list(results.glob("result_*.txt"))) == 5
        assert (base / "code" / "README.md").exists()

    def test_roundtrip_preserves_submission(self, submission, tmp_path):
        base = save_submission(submission, tmp_path)
        loaded = load_submission(base)
        assert loaded.system == submission.system
        assert loaded.division == submission.division
        assert loaded.category == submission.category
        assert loaded.code_url == submission.code_url
        orig = submission.runs[FAKE_SPEC.name]
        back = loaded.runs[FAKE_SPEC.name]
        assert len(back) == len(orig)
        for a, b in zip(orig, back):
            assert a.seed == b.seed
            assert a.epochs == b.epochs
            assert a.time_to_train_s == pytest.approx(b.time_to_train_s)
            assert a.quality == pytest.approx(b.quality)
            assert a.log_lines == b.log_lines
            np.testing.assert_allclose(a.quality_history, b.quality_history)

    def test_loaded_submission_passes_review(self, submission, tmp_path):
        base = save_submission(submission, tmp_path)
        report = review_directory(base, {FAKE_SPEC.name: FAKE_SPEC})
        assert report.compliant, str(report)

    def test_tampered_file_fails_review(self, submission, tmp_path):
        base = save_submission(submission, tmp_path)
        victim = next((base / "results" / "acme-8x" / FAKE_SPEC.name).glob("result_0.txt"))
        text = victim.read_text()
        victim.write_text("\n".join(
            line for line in text.splitlines() if "eval_accuracy" not in line
        ) + "\n")
        report = review_directory(base, {FAKE_SPEC.name: FAKE_SPEC})
        assert not report.compliant

    def test_missing_system_file_rejected(self, tmp_path):
        (tmp_path / "ghost" / "systems").mkdir(parents=True)
        with pytest.raises(FileNotFoundError):
            load_submission(tmp_path / "ghost")

    def test_result_file_human_readable_header(self, submission, tmp_path):
        base = save_submission(submission, tmp_path)
        text = next((base / "results" / "acme-8x" / FAKE_SPEC.name).glob("*.txt")).read_text()
        header = json.loads(text.splitlines()[0][len("# repro-run "):])
        assert {"seed", "hyperparameters", "time_to_train_s"} <= set(header)


class TestCheckLogText:
    """Review's one log checker, fed nothing but a run's log lines."""

    def good_log(self):
        clock = FakeClock()
        bench = FakeBenchmark(clock=clock)
        run = BenchmarkRunner(clock=clock).run(bench, seed=0)
        return run.log_lines

    def violations(self, lines, spec=FAKE_SPEC):
        clock = FakeClock()
        run = BenchmarkRunner(clock=clock).run(FakeBenchmark(clock=clock), seed=0)
        run.log_lines = list(lines)
        return _check_log_structure(spec, run)

    def rules(self, lines, spec=FAKE_SPEC):
        return {v.rule for v in self.violations(lines, spec)}

    def test_clean_log_passes(self):
        assert self.violations(self.good_log()) == []

    def test_empty_text(self):
        assert self.rules(["nothing here"]) == {"missing_log_event", "missing_evals"}

    def test_missing_run_stop_reported(self):
        lines = [l for l in self.good_log() if "run_stop" not in l]
        assert any("run_stop" in v.message for v in self.violations(lines))

    def test_wrong_benchmark_reported(self):
        from repro.suite import create_benchmark

        other = create_benchmark("recommendation").spec
        assert "benchmark_mismatch" in self.rules(self.good_log(), other)

    def test_low_quality_reported(self):
        import dataclasses

        strict = dataclasses.replace(FAKE_SPEC, quality_threshold=2.0)
        assert "quality_not_reached" in self.rules(self.good_log(), strict)

    def test_decreasing_timestamps_reported(self):
        # Swap the stamps of epoch 1's start and stop: run_start/run_stop
        # stay in order, but time runs backwards inside the run.
        events = parse_log_lines(self.good_log())
        i = next(k for k, e in enumerate(events) if e.key == Keys.EPOCH_START)
        assert events[i + 1].key == Keys.EPOCH_STOP
        early, late = events[i].time_ms, events[i + 1].time_ms
        assert early < late
        events[i] = LogEvent(events[i].key, events[i].value, late, events[i].metadata)
        events[i + 1] = LogEvent(events[i + 1].key, events[i + 1].value, early,
                                 events[i + 1].metadata)
        found = [v for v in self.violations([e.to_line() for e in events])
                 if v.rule == "timing_order"]
        assert [v.message for v in found] == ["event timestamps decrease"]


class TestRunResultMetricsRoundtrip:
    """The metrics snapshot rides in the result header for `repro stats`."""

    def _run_with_metrics(self):
        from repro.telemetry import Telemetry

        clock = FakeClock()
        bench = FakeBenchmark(clock=clock)
        runner = BenchmarkRunner(clock=clock)
        telemetry = Telemetry(clock=clock)
        with telemetry.activate():
            telemetry.metrics.counter("allreduce_elements").inc(1000)
            telemetry.metrics.counter("allreduce_bytes").inc(8000)
            return runner.run(bench, seed=0, telemetry=telemetry)

    def test_metrics_survive_save_load(self, tmp_path):
        from repro.core.artifacts import load_run_result, save_run_result

        run = self._run_with_metrics()
        path = save_run_result(tmp_path / "result_0.txt", run)
        loaded = load_run_result(run.benchmark, path)
        assert loaded.telemetry is not None
        assert loaded.telemetry.metrics["allreduce_elements"]["value"] == 1000
        assert loaded.telemetry.metrics["allreduce_bytes"]["value"] == 8000

    def test_runs_without_telemetry_load_as_none(self, tmp_path):
        from repro.core.artifacts import load_run_result, save_run_result

        clock = FakeClock()
        runner = BenchmarkRunner(clock=clock)
        run = runner.run(FakeBenchmark(clock=clock), seed=0)
        path = save_run_result(tmp_path / "result_0.txt", run)
        assert load_run_result(run.benchmark, path).telemetry is None

    def test_stats_table_totals_kernel_fallbacks(self, tmp_path):
        """Every ``kernel_fallbacks.<op>.<reason>`` counter lands in one column."""
        from repro.core import build_phase_table, render_phase_table
        from repro.core.artifacts import load_run_result, save_run_result
        from repro.framework import Tensor, linear_bias_act, use_kernel_mode
        from repro.telemetry import Telemetry

        clock = FakeClock()
        telemetry = Telemetry(clock=clock)
        with telemetry.activate(), use_kernel_mode("fused"):
            wide = Tensor(np.ones((2, 3), dtype=np.float64))
            narrow = Tensor(np.ones((4, 3), dtype=np.float32))
            linear_bias_act(wide, narrow)
            linear_bias_act(narrow[0], narrow)
            linear_bias_act(narrow[0], narrow)
            run = BenchmarkRunner(clock=clock).run(FakeBenchmark(clock=clock), seed=0,
                                                   telemetry=telemetry)
        loaded = load_run_result(run.benchmark,
                                 save_run_result(tmp_path / "result_0.txt", run))
        quiet = BenchmarkRunner(clock=clock).run(FakeBenchmark(clock=clock), seed=1)
        (row,) = build_phase_table({run.benchmark: [loaded, quiet]})
        assert row.kernel_fallbacks == 1.5  # 3 calls over 2 runs
        table = render_phase_table([row])
        assert "Fallbacks" in table.splitlines()[0]
        assert table.splitlines()[-1].split()[-1] == "2"  # rendered as a whole count

    def test_stats_table_shows_memo_hits_beside_nn_evals(self, tmp_path):
        """Self-play's three counters survive save/load and a snapshot merge."""
        from repro.core import build_phase_table, render_phase_table
        from repro.core.artifacts import load_run_result, save_run_result
        from repro.telemetry import Telemetry, merge_snapshots

        clock = FakeClock()
        runs = []
        for seed, (searches, evaluations, hits) in enumerate([(92, 1452, 459), (75, 1139, 470)]):
            telemetry = Telemetry(clock=clock)
            telemetry.metrics.counter("mcts_searches").inc(searches)
            telemetry.metrics.counter("mcts_evaluations").inc(evaluations)
            telemetry.metrics.counter("mcts_memo_hits").inc(hits)
            run = BenchmarkRunner(clock=clock).run(FakeBenchmark(clock=clock), seed=seed,
                                                   telemetry=telemetry)
            runs.append(load_run_result(
                run.benchmark, save_run_result(tmp_path / f"result_{seed}.txt", run)))
        merged = merge_snapshots(run.telemetry.metrics for run in runs)
        assert merged["mcts_memo_hits"]["value"] == 929
        (row,) = build_phase_table({runs[0].benchmark: runs})
        assert (row.mcts_evaluations, row.mcts_memo_hits) == (1295.5, 464.5)
        header, _, line = render_phase_table([row]).splitlines()
        columns = header.replace("TTT (s)", "TTT").replace("AllRed el", "AllRed_el") \
            .replace("AllRed B", "AllRed_B").replace("NN evals", "NN_evals") \
            .replace("Memo hits", "Memo_hits").split()
        cells = dict(zip(columns, line.split()))
        assert cells["NN_evals"] == "1.3K"
        assert cells["Memo_hits"] == "464"
        assert columns.index("Memo_hits") == columns.index("NN_evals") + 1


class TestRunResultSeriesRoundtrip:
    """The per-epoch series live in the log; the header no longer copies them."""

    def _run_with_telemetry(self):
        from repro.telemetry import Telemetry

        clock = FakeClock()
        bench = FakeBenchmark(clock=clock)
        runner = BenchmarkRunner(clock=clock)
        telemetry = Telemetry(clock=clock, events_clock=clock.now)
        return runner.run(bench, seed=0, telemetry=telemetry)

    def test_series_survive_save_load(self, tmp_path):
        from repro.telemetry import series_from_log_events

        run = self._run_with_telemetry()
        series = series_from_log_events(parse_log_lines(run.log_lines))
        assert {"eval_quality", "epoch_seconds", "examples_per_second"} <= set(series)
        path = save_run_result(tmp_path / "result_0.txt", run)
        assert "series" not in read_run_header(path)
        loaded = load_run_result(run.benchmark, path)
        assert series_from_log_events(parse_log_lines(loaded.log_lines)) == series

    def test_truncated_final_log_line_tolerated(self, tmp_path):
        run = self._run_with_telemetry()
        path = save_run_result(tmp_path / "result_0.txt", run)
        # Simulate the writer dying mid-line on the last record.
        text = path.read_text().rstrip("\n")
        path.write_text(text[: len(text) - 15])
        loaded = load_run_result(run.benchmark, path)
        assert loaded.quality == run.quality
        assert loaded.quality_history  # earlier evals still parsed


class TestDamagedResultFile:
    """One ValueError naming the file, whatever part of it is damaged."""

    def _saved(self, tmp_path):
        clock = FakeClock()
        run = BenchmarkRunner(clock=clock).run(FakeBenchmark(clock=clock), seed=0)
        return save_run_result(tmp_path / "result_0.txt", run)

    @pytest.mark.parametrize("first_line,reason", [
        ("# repro-run {\"seed\": 0", "corrupt run header"),
        ("# repro-run [1, 2]", "corrupt run header"),
        ("# some other header", "missing run header"),
    ])
    def test_damaged_header_names_the_file(self, tmp_path, first_line, reason):
        path = self._saved(tmp_path)
        rest = path.read_text().partition("\n")[2]
        path.write_text(first_line + "\n" + rest)
        for read in (read_run_header, load_run_result):
            with pytest.raises(ValueError, match=reason) as info:
                read(path)
            assert str(info.value).startswith(f"{path}: ")

    def test_header_missing_a_field_names_the_file(self, tmp_path):
        path = self._saved(tmp_path)
        first, _, rest = path.read_text().partition("\n")
        header = json.loads(first[len("# repro-run "):])
        del header["seed"]
        path.write_text("# repro-run " + json.dumps(header) + "\n" + rest)
        with pytest.raises(ValueError) as info:
            load_run_result(path)
        assert str(info.value).startswith(f"{path}: corrupt run header")

    def test_corrupt_record_before_the_tail_names_the_file(self, tmp_path):
        path = self._saved(tmp_path)
        lines = path.read_text().splitlines()
        lines[3] = lines[3][:20]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as info:
            load_run_result(path)
        assert str(info.value).startswith(f"{path}: corrupt log record")
