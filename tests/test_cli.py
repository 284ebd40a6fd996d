"""CLI: every command through main(), end to end where cheap."""

import io

import pytest

from repro.cli import _parse_overrides, build_parser, main


def run_cli(*argv) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_override_parsing(self):
        parsed = _parse_overrides(["batch_size=128", "optimizer=lars", "lr=0.5"])
        assert parsed == {"batch_size": 128, "optimizer": "lars", "lr": 0.5}

    def test_override_bad_format(self):
        with pytest.raises(SystemExit):
            _parse_overrides(["no-equals-sign"])


class TestCommands:
    def test_table1(self):
        code, text = run_cli("table1")
        assert code == 0
        assert "image_classification" in text
        assert "reinforcement" in text

    def test_simulate(self):
        code, text = run_cli("simulate")
        assert code == 0
        assert "Figure 4" in text and "Figure 5" in text

    def test_hp_table(self):
        code, text = run_cli("hp-table", "--chips", "1", "64")
        assert code == 0
        assert "lars" in text  # the 64-chip image-classification row

    def test_run_score_save_review_report(self, tmp_path):
        """The full CLI workflow on the fastest benchmark."""
        code, text = run_cli(
            "campaign", "recommendation", "--seeds", "3",
            "--save", str(tmp_path), "--submitter", "cli-test",
        )
        assert code == 0
        assert "scores (olympic mean):" in text
        assert "artifacts written" in text

        # Review: the saved submission has 3 runs but the rule demands 10 —
        # review must flag it (non-zero exit), proving review audits files.
        code, text = run_cli("review", str(tmp_path / "cli-test"))
        assert code == 1
        assert "run_count" in text

        # Report still renders (scoring needs only >= 3 runs).
        code, text = run_cli("report", str(tmp_path / "cli-test"))
        assert code == 0
        assert "recommendation" in text

    def test_run_with_override(self, tmp_path):
        code, text = run_cli(
            "campaign", "recommendation", "--seeds", "1",
            "--override", "base_lr=0.003", "--save", str(tmp_path),
        )
        assert code == 0
        assert "reached" in text
        from repro.core.artifacts import load_run_result

        run = load_run_result("recommendation",
                              tmp_path / "jobs" / "recommendation" / "seed_0.txt")
        assert run.hyperparameters["base_lr"] == 0.003


class TestUsageErrors:
    """Bad arguments and missing inputs: one line and a non-zero exit, no traceback."""

    def test_seeds_below_one_exits_2_before_any_work(self, tmp_path):
        code, text = run_cli("campaign", "recommendation", "--seeds", "0",
                             "--save", str(tmp_path / "out"))
        assert code == 2
        assert text == "--seeds must be >= 1\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["review", "report"])
    def test_missing_submission_is_one_line_and_exit_1(self, command, tmp_path):
        code, text = run_cli(command, str(tmp_path / "nope"))
        assert code == 1
        assert text.startswith(f"cannot load submission {tmp_path / 'nope'}: ")
        assert text.count("\n") == 1

    def test_report_names_the_benchmark_short_of_three_runs(self, tmp_path):
        code, _ = run_cli("campaign", "recommendation", "--seeds", "2",
                          "--save", str(tmp_path), "--submitter", "two-runs")
        assert code == 0
        code, text = run_cli("report", str(tmp_path / "two-runs"))
        assert code == 1
        assert text == ("cannot score recommendation of two-runs: "
                        "need at least 3 runs to drop min and max, got 2\n")


class TestCampaignCommand:
    def test_unknown_benchmark(self):
        code, text = run_cli("campaign", "frobnicate")
        assert code == 2
        assert "unknown benchmark" in text

    def test_jobs_must_be_positive(self):
        code, text = run_cli("campaign", "recommendation", "--jobs", "0")
        assert code == 2
        assert "--jobs" in text

    def test_resume_save_conflict(self, tmp_path):
        code, text = run_cli("campaign", "recommendation",
                             "--save", str(tmp_path / "a"),
                             "--resume", str(tmp_path / "b"))
        assert code == 2
        assert "implies" in text

    def test_campaign_save_then_resume(self, tmp_path):
        """A full campaign, then a resume that finds nothing left to run."""
        camp = tmp_path / "camp"
        bench_file = tmp_path / "BENCH_campaign.json"
        code, text = run_cli(
            "campaign", "recommendation", "--seeds", "3",
            "--save", str(camp), "--submitter", "cli-camp",
            "--bench", str(bench_file),
        )
        assert code == 0
        # Satellite: overriding seeds below the §3.2.2 requirement warns.
        assert "warning:" in text and "requires 10" in text
        assert "executed=3" in text and "resumed=0" in text
        assert "scores (olympic mean):" in text
        assert "artifacts written" in text
        assert (camp / "campaign_journal.json").is_file()

        import json
        payload = json.loads(bench_file.read_text())
        assert payload["schema"] == "repro-campaign-bench/1"
        assert payload["total_cells"] == 3

        code, text = run_cli("campaign", "recommendation", "--seeds", "3",
                             "--resume", str(camp), "--submitter", "cli-camp")
        assert code == 0
        assert "executed=0" in text and "resumed=3" in text
        # Scores are rebuilt from the journaled per-job result files.
        assert "scores (olympic mean):" in text

    def test_saved_runs_equal_the_library_runs(self, tmp_path):
        """`campaign B --seeds N` runs seeds 0..N-1 exactly as the library does."""
        from repro.core import BenchmarkRunner
        from repro.core.artifacts import load_run_result
        from repro.core.mllog import parse_log_lines
        from repro.suite import create_benchmark

        def records(run):
            # Time stamps, throughput and tracked_stats (epoch seconds) are
            # wall-clock measurements; every other value is an outcome.
            return [(e.key, e.metadata) if e.key in ("throughput", "tracked_stats")
                    else (e.key, e.value, e.metadata)
                    for e in parse_log_lines(run.log_lines)]

        code, _ = run_cli("campaign", "recommendation", "--seeds", "2",
                          "--save", str(tmp_path))
        assert code == 0
        for seed in (0, 1):
            library = BenchmarkRunner().run(create_benchmark("recommendation"), seed=seed)
            [saved] = tmp_path.rglob(f"result_{seed}.txt")
            for path in (saved, tmp_path / "jobs" / "recommendation" / f"seed_{seed}.txt"):
                cli = load_run_result("recommendation", path)
                assert (cli.seed, cli.epochs, cli.quality, cli.quality_history) == (
                    seed, library.epochs, library.quality, library.quality_history)
                assert records(cli) == records(library)

    def test_default_benchmarks_is_whole_suite(self):
        """No positional args plans the full Table 1 suite (parse only)."""
        args = build_parser().parse_args(["campaign"])
        assert args.benchmarks == []
        assert args.seeds is None and args.jobs == 1


def _partial_run(benchmark, seed, log_lines):
    """The partial record a session that raised ``ValueError`` leaves."""
    from repro.core import RunResult

    return RunResult(benchmark=benchmark.spec.name, seed=seed, hyperparameters={},
                     reached_target=False, quality=float("-inf"), epochs=0,
                     time_to_train_s=0.0, log_lines=log_lines, error_type="ValueError")


class TestRunFailureExit:
    def test_run_failure_exits_nonzero_with_summary(self, monkeypatch):
        """A crashed session never exits 0, and each failed cell names its error."""
        from repro.core import runner as runner_mod

        def explode(self, benchmark, *, seed=0, **kwargs):
            raise runner_mod.RunFailure(ValueError("injected crash"),
                                        _partial_run(benchmark, seed, []))

        monkeypatch.setattr(runner_mod.BenchmarkRunner, "run", explode)
        code, text = run_cli("campaign", "recommendation", "--seeds", "2",
                             "--retries", "0")
        assert code == 1
        assert "faults=2" in text
        assert "recommendation/0 fault: ValueError: injected crash\n" in text
        assert "recommendation/1 fault: ValueError: injected crash\n" in text

    def test_timed_out_cell_names_its_deadline(self):
        code, text = run_cli("campaign", "recommendation", "--seeds", "1",
                             "--timeout", "0")
        assert code == 1
        assert ("recommendation/0 timeout: RunTimeout: recommendation (seed 0) "
                "exceeded its per-job deadline after 0 epochs\n") in text


class TestObservabilityCommands:
    def test_run_trace_profile_trace_file(self, tmp_path):
        """campaign --trace emits a Chrome trace; profile and trace work on artifacts."""
        import json

        trace_path = tmp_path / "out.json"
        code, text = run_cli(
            "campaign", "recommendation", "--seeds", "1",
            "--trace", str(trace_path), "--save", str(tmp_path / "subs"),
            "--submitter", "obs-test",
        )
        assert code == 0
        assert "trace written" in text

        doc = json.loads(trace_path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        names = {e["name"] for e in doc["traceEvents"]}
        assert {"init", "model_creation", "run", "epoch 1", "eval 1"} <= names
        # Spans and instants, plus the cell's process name row.
        assert all(e["ph"] in ("X", "i") or (e["ph"], e["name"]) == ("M", "process_name")
                   for e in doc["traceEvents"])

        # profile: the per-phase decomposition table over the saved round.
        code, text = run_cli("profile", str(tmp_path / "subs" / "obs-test"))
        assert code == 0
        assert "recommendation" in text
        assert "Train" in text and "Eval" in text and "TTT" in text

        # trace: reconstruct a viewable trace from a published result file.
        result_file = next(
            (tmp_path / "subs" / "obs-test" / "results").rglob("result_0.txt"))
        out_file = tmp_path / "from-log.json"
        code, text = run_cli("trace", str(result_file), "-o", str(out_file))
        assert code == 0
        log_doc = json.loads(out_file.read_text())
        log_names = {e["name"] for e in log_doc["traceEvents"]}
        assert "run" in log_names and any(n.startswith("epoch") for n in log_names)

    def test_run_trace_into_the_save_directory(self, tmp_path):
        # The trace is written before --save creates its directory.
        save = tmp_path / "profiled-run"
        code, text = run_cli("campaign", "recommendation", "--seeds", "1",
                             "--save", str(save),
                             "--trace", str(save / "trace.json"))
        assert code == 0
        assert (save / "trace.json").is_file()
        assert "artifacts written" in text

    @staticmethod
    def _rows(doc):
        """``{pid: label}`` of a trace's process rows."""
        return {e["pid"]: e["args"]["name"] for e in doc["traceEvents"] if e["ph"] == "M"}

    def test_campaign_trace_rows_equal_repro_trace_of_each_result_file(self, tmp_path):
        import json

        code, _ = run_cli("campaign", "recommendation", "--seeds", "2",
                          "--save", str(tmp_path / "camp"),
                          "--trace", str(tmp_path / "campaign.json"))
        assert code == 0
        doc = json.loads((tmp_path / "campaign.json").read_text())
        assert self._rows(doc) == {0: "recommendation/0", 1: "recommendation/1"}
        for seed in (0, 1):
            result = tmp_path / "camp" / "jobs" / "recommendation" / f"seed_{seed}.txt"
            out = tmp_path / f"seed_{seed}.json"
            assert run_cli("trace", str(result), "-o", str(out))[0] == 0
            from_file = [{**e, "pid": None} for e in json.loads(out.read_text())["traceEvents"]
                         if e["ph"] == "X"]
            cell = [{**e, "pid": None} for e in doc["traceEvents"]
                    if e["ph"] == "X" and e["pid"] == seed]
            assert cell == from_file
            assert any(e["name"] == "epoch 1" for e in cell)

    def test_resumed_campaign_trace_has_a_row_per_cell(self, tmp_path):
        import json

        camp = tmp_path / "camp"
        assert run_cli("campaign", "recommendation", "--seeds", "2", "--save", str(camp),
                       "--trace", str(tmp_path / "fresh.json"))[0] == 0
        code, text = run_cli("campaign", "recommendation", "--seeds", "2",
                             "--resume", str(camp), "--trace", str(tmp_path / "resumed.json"))
        assert code == 0
        assert "(0 events)" not in text
        resumed = json.loads((tmp_path / "resumed.json").read_text())
        assert self._rows(resumed) == {0: "recommendation/0", 1: "recommendation/1"}
        assert resumed == json.loads((tmp_path / "fresh.json").read_text())

    def test_campaign_trace_creates_parent_directories(self, tmp_path):
        import json

        trace = tmp_path / "traces" / "campaign.json"
        code, text = run_cli("campaign", "recommendation", "--seeds", "1",
                             "--trace", str(trace))
        assert code == 0
        assert "trace written" in text
        assert json.loads(trace.read_text())["traceEvents"]

    def test_trace_on_non_log_file(self, tmp_path):
        bogus = tmp_path / "notes.txt"
        bogus.write_text("no structured events here\n")
        code, text = run_cli("trace", str(bogus))
        assert code == 1
        assert "no :::MLLOG events" in text

    def test_profile_empty_submission(self, tmp_path):
        code, _ = run_cli(
            "campaign", "recommendation", "--seeds", "1", "--save", str(tmp_path),
            "--submitter", "empty-check",
        )
        assert code == 0
        # Point profile at a directory whose results were removed.
        import shutil
        shutil.rmtree(tmp_path / "empty-check" / "results")
        code, text = run_cli("profile", str(tmp_path / "empty-check"))
        assert code == 1
        assert "no runs" in text


class TestMonitorCommand:
    def test_monitor_after_campaign(self, tmp_path):
        code, _ = run_cli("campaign", "recommendation", "--seeds", "2",
                          "--save", str(tmp_path))
        assert code == 0
        code, text = run_cli("monitor", str(tmp_path))
        assert code == 0
        assert "recommendation/0" in text and "recommendation/1" in text
        assert "reached=2" in text
        assert "recent events" in text

    def test_monitor_events_hidden(self, tmp_path):
        run_cli("campaign", "recommendation", "--seeds", "2",
                "--save", str(tmp_path))
        code, text = run_cli("monitor", str(tmp_path), "--events", "0")
        assert code == 0
        assert "recent events" not in text

    def test_monitor_missing_directory(self, tmp_path):
        code, text = run_cli("monitor", str(tmp_path / "nope"))
        assert code == 1
        assert "no such campaign directory" in text
        assert "Traceback" not in text

    def test_monitor_empty_directory(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        code, text = run_cli("monitor", str(empty))
        assert code == 1
        assert "not a campaign directory" in text

    def test_alerts_missing_directory(self, tmp_path):
        code, text = run_cli("alerts", str(tmp_path / "nope"))
        assert code == 1
        assert "no such campaign directory" in text

    def test_alerts_rewrite_is_byte_identical(self, tmp_path):
        # The alert log is a pure function of the event streams: running
        # `repro alerts` twice must reproduce alerts.jsonl byte for byte.
        code, _ = run_cli("campaign", "recommendation", "--seeds", "2",
                          "--save", str(tmp_path))
        assert code == 0
        code, text = run_cli("alerts", str(tmp_path))
        assert code == 0  # healthy finished campaign: nothing firing
        assert "alert transition(s)" in text
        log_path = tmp_path / "alerts.jsonl"
        first = log_path.read_bytes()
        code, _ = run_cli("alerts", str(tmp_path))
        assert code == 0
        assert log_path.read_bytes() == first

    def test_alerts_fire_on_silent_stream(self, tmp_path):
        # A run that starts and then goes silent: evaluated long after its
        # last event, the stall and heartbeat-loss rules must both fire.
        import json as _json

        events_dir = tmp_path / "events"
        events_dir.mkdir(parents=True)
        (events_dir / "b_seed0.jsonl").write_text(
            _json.dumps({"name": "run_start", "time_s": 100.0, "pid": 1,
                         "args": {"benchmark": "b", "seed": 0}},
                        sort_keys=True) + "\n")
        code, text = run_cli("alerts", str(tmp_path), "--now", "1000",
                             "--json", "--no-write")
        assert code == 1  # firing alerts exit nonzero (scriptable gate)
        doc = _json.loads(text)
        rules = {a["rule"] for a in doc["firing"]}
        assert {"job_stall", "heartbeat_loss"} <= rules
        assert not (tmp_path / "alerts.jsonl").exists()  # --no-write

    def test_alerts_now_before_the_last_event_is_rejected(self, tmp_path):
        # One stream silent after t=101, one running to t=300: evaluating
        # at t=50 would stamp transitions before the events that caused them.
        from repro.telemetry import Event, EventLog

        with EventLog(tmp_path / "events" / "a_seed0.jsonl") as log:
            log.write(Event("run_start", 100.0, 1,
                            {"benchmark": "a", "seed": 0}))
            log.write(Event("epoch", 101.0, 1, {"epoch": 1}))
        with EventLog(tmp_path / "events" / "b_seed0.jsonl") as log:
            log.write(Event("run_start", 100.0, 2,
                            {"benchmark": "b", "seed": 0}))
            for t in range(110, 301, 10):
                log.write(Event("epoch", float(t), 2, {"epoch": t}))
        code, text = run_cli("alerts", str(tmp_path), "--now", "50")
        assert code == 2
        [line] = text.strip().splitlines()
        assert "50.000" in line and "300.000" in line
        assert not (tmp_path / "alerts.jsonl").exists()

    @pytest.mark.parametrize("flag,value", [("--watch", "0"), ("--watch", "-1")])
    def test_monitor_rejects_non_positive_seconds(self, tmp_path, flag,
                                                  value):
        (tmp_path / "campaign_journal.json").write_text("{}")
        code, text = run_cli("monitor", str(tmp_path), flag, value)
        assert code == 2
        [line] = text.strip().splitlines()
        assert flag in line

    @pytest.mark.parametrize("flag,value", [("--refresh", "-1")])
    def test_serve_metrics_rejects_bad_seconds(self, tmp_path, monkeypatch,
                                               flag, value):
        from repro.telemetry.serve import ObservabilityServer

        def serve_forever(self):
            raise AssertionError("the server started")

        monkeypatch.setattr(ObservabilityServer, "serve_forever",
                            serve_forever)
        code, text = run_cli("serve-metrics", str(tmp_path), "--port", "0",
                             flag, value)
        assert code == 2
        [line] = text.strip().splitlines()
        assert flag in line

    def test_campaign_prints_the_shared_job_table(self, tmp_path):
        # Satellite: campaign completion output and `repro monitor` render
        # through the same path, so both carry the job-table header.
        code, campaign_text = run_cli("campaign", "recommendation",
                                      "--seeds", "2", "--save", str(tmp_path))
        assert code == 0
        _, monitor_text = run_cli("monitor", str(tmp_path))
        header = "Job"
        campaign_table = [l for l in campaign_text.splitlines()
                          if l.startswith(header) or l.startswith("recommendation/")]
        monitor_table = [l for l in monitor_text.splitlines()
                         if l.startswith(header) or l.startswith("recommendation/")]
        assert campaign_table and len(campaign_table) == len(monitor_table)
        # Identical rows up to the live heartbeat-age column.
        for c_row, m_row in zip(campaign_table[1:], monitor_table[1:]):
            assert c_row.split()[:7] == m_row.split()[:7]


class TestProfileSeries:
    def test_series_table_renders(self, tmp_path):
        run_cli("campaign", "recommendation", "--seeds", "1",
                "--save", str(tmp_path), "--submitter", "cli-test")
        code, text = run_cli("profile", str(tmp_path / "cli-test"), "--series")
        assert code == 0
        assert "eval_quality" in text
        assert "epoch_seconds" in text
        assert "Trend" in text

    @staticmethod
    def _fake_submission(tmp_path, telemetry=None):
        """A one-run submission of the fake benchmark, saved to disk."""
        from repro.core import (BenchmarkRunner, Category, Division, FakeClock,
                                Submission, SystemDescription, SystemType,
                                save_submission)
        from tests.core.fakes import FAKE_SPEC, FakeBenchmark

        clock = FakeClock()
        run = BenchmarkRunner(clock=clock).run(
            FakeBenchmark(clock=clock, epoch_cost_s=2.0), seed=0,
            telemetry=telemetry(clock) if telemetry else None)
        system = SystemDescription(
            submitter="fake-org", system_name="fake-sys",
            system_type=SystemType.ON_PREMISE, num_nodes=1, processors_per_node=1,
            processor_type="cpu", accelerators_per_node=0, accelerator_type="none",
            host_memory_gb=1.0, interconnect="none", software_stack={})
        sub = Submission(system, Division.CLOSED, Category.AVAILABLE)
        sub.add_runs(FAKE_SPEC.name, [run])
        return run, save_submission(sub, tmp_path)

    @staticmethod
    def _rows(text):
        """``{series: [N, First, ...]}`` from the ``--series`` table's rows."""
        series_table = text.partition("\n\n")[2]
        return {line.split()[2]: line.split()[3:]
                for line in series_table.splitlines() if line.startswith("fake_benchmark")}

    def test_run_without_telemetry_renders_rows_from_its_log(self, tmp_path):
        run, base = self._fake_submission(tmp_path)
        assert run.telemetry is None
        code, text = run_cli("profile", str(base), "--series")
        assert code == 0
        assert "no per-run series" not in text
        rows = self._rows(text)
        assert sorted(rows) == ["epoch_seconds", "eval_quality", "examples_per_second"]
        assert rows["epoch_seconds"][:2] == [str(run.epochs), "2"]

    def test_stale_header_series_is_ignored_for_the_log(self, tmp_path):
        # Result files written before the series left the header still
        # carry one; the rows come from the log all the same.
        import json

        from repro.telemetry import Telemetry

        _, base = self._fake_submission(tmp_path, lambda clock: Telemetry())
        code, fresh = run_cli("profile", str(base), "--series")
        [path] = base.rglob("result_*.txt")
        first, _, rest = path.read_text().partition("\n")
        header = json.loads(first[len("# repro-run "):])
        header["series"] = {"epoch_seconds": [[0.5, 1, 999.0]],
                            "kernel_arena_hit_rate": [[0.5, 0, 0.9]]}
        path.write_text("# repro-run " + json.dumps(header) + "\n" + rest)
        code, text = run_cli("profile", str(base), "--series")
        assert code == 0
        assert text == fresh
        assert "kernel_arena_hit_rate" not in text and "999" not in text
        assert sorted(self._rows(text)) == [
            "epoch_seconds", "eval_quality", "examples_per_second"]


class TestDamagedResultFiles:
    """A killed writer's tail parses away; any other damage is one line, exit 1."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("saved")
        code, _ = run_cli("campaign", "recommendation", "--seeds", "1",
                          "--save", str(base), "--submitter", "cli-test")
        assert code == 0
        return base / "cli-test"

    @staticmethod
    def _copy(saved, tmp_path, name, edit):
        import shutil

        submission = tmp_path / name / "cli-test"
        shutil.copytree(saved, submission)
        [path] = submission.rglob("result_0.txt")
        lines = path.read_text().splitlines()
        path.write_text(edit(lines))
        return submission, path

    def _answers(self, submission, path, tmp_path):
        import json

        from repro.core.artifacts import load_run_result

        out = tmp_path / f"{submission.parent.name}.trace.json"
        trace = run_cli("trace", str(path), "-o", str(out))
        run = load_run_result(path)
        return {
            "review": run_cli("review", str(submission)),
            "profile": run_cli("profile", str(submission), "--series"),
            "trace": (trace[0], json.loads(out.read_text())),
            "load": (run.quality, run.epochs, run.quality_history,
                     run.time_to_train_s),
        }

    def test_truncated_last_record_reads_as_the_file_without_it(self, saved, tmp_path):
        cut, cut_path = self._copy(
            saved, tmp_path, "cut",
            lambda lines: "\n".join(lines[:-1] + [lines[-1][:25]]))
        dropped, dropped_path = self._copy(
            saved, tmp_path, "dropped", lambda lines: "\n".join(lines[:-1]) + "\n")
        assert self._answers(cut, cut_path, tmp_path) \
            == self._answers(dropped, dropped_path, tmp_path)

    @pytest.mark.parametrize("command", ["review", "report", "profile"])
    @pytest.mark.parametrize("damage", ["corrupt header", "no header", "corrupt record"])
    def test_damaged_file_is_one_line_and_exit_1(self, saved, tmp_path, command, damage):
        edits = {
            "corrupt header": lambda lines: "\n".join(
                [lines[0][:40]] + lines[1:]) + "\n",
            "no header": lambda lines: "\n".join(lines[1:]) + "\n",
            "corrupt record": lambda lines: "\n".join(
                lines[:3] + [lines[3][:30]] + lines[4:]) + "\n",
        }
        submission, path = self._copy(saved, tmp_path, "damaged", edits[damage])
        code, text = run_cli(command, str(submission))
        assert code == 1
        assert text.startswith(f"cannot load submission {submission}: {path}: ")
        assert text.count("\n") == 1

    def test_trace_of_a_file_with_no_parseable_record(self, tmp_path):
        path = tmp_path / "result_0.txt"
        path.write_text('# repro-run {}\n:::MLLOG {"key": "run_st')
        code, text = run_cli("trace", str(path))
        assert code == 1
        assert text == f"no :::MLLOG events found in {path}\n"

    def test_trace_of_a_corrupt_record_is_one_line(self, saved, tmp_path):
        _, path = self._copy(saved, tmp_path, "damaged", lambda lines: "\n".join(
            lines[:3] + [lines[3][:30]] + lines[4:]) + "\n")
        code, text = run_cli("trace", str(path))
        assert code == 1
        assert text.startswith(f"cannot parse {path}: corrupt log record: ")
        assert text.count("\n") == 1


class TestBenchDiffCommand:
    BASELINE = "benchmarks/reports/BENCH_kernels.json"

    def test_self_compare_passes(self):
        code, text = run_cli("bench-diff", self.BASELINE, self.BASELINE)
        assert code == 0
        assert "0 regression(s)" in text

    def test_injected_regression_fails(self, tmp_path):
        import json as _json

        payload = _json.loads(open(self.BASELINE).read())
        payload["checks"]["bit_identical"] = False
        report = tmp_path / "fresh.json"
        report.write_text(_json.dumps(payload))
        code, text = run_cli("bench-diff", str(report), self.BASELINE)
        assert code == 1
        assert "REGRESSED" in text

    def test_schema_mismatch_is_usage_error(self):
        code, text = run_cli("bench-diff", self.BASELINE,
                             "benchmarks/reports/BENCH_loadgen.json")
        assert code == 2
        assert "schema mismatch" in text

    @pytest.mark.parametrize("name,flag", [
        ("kernels", "bit_identical"),
        ("loadgen", "all_valid"),
        ("loadgen", "deterministic"),
    ])
    def test_flipped_check_fails(self, tmp_path, name, flag):
        import json as _json

        baseline = f"benchmarks/reports/BENCH_{name}.json"
        payload = _json.loads(open(baseline).read())
        payload["checks"][flag] = False
        report = tmp_path / "fresh.json"
        report.write_text(_json.dumps(payload))
        code, text = run_cli("bench-diff", str(report), baseline)
        assert code == 1
        [row] = [l for l in text.splitlines() if l.startswith(f"checks.{flag} ")]
        assert row.endswith("REGRESSED")


class TestBenchProvenance:
    """Every written bench report is stamped; bench-diff only reports a host change."""

    def test_campaign_bench_is_stamped_and_diffs_against_an_unstamped_baseline(self, tmp_path):
        import json

        fresh = tmp_path / "BENCH_campaign.json"
        code, _ = run_cli("campaign", "recommendation", "--seeds", "2", "--bench", str(fresh))
        assert code == 0
        payload = json.loads(fresh.read_text())
        stamp = payload.pop("provenance")
        assert {"git", "cpu_count", "python", "numpy", "blas", "kernel_mode",
                "malloc"} <= set(stamp)
        old = tmp_path / "old.json"
        old.write_text(json.dumps(payload))
        code, text = run_cli("bench-diff", str(fresh), str(old))
        assert code == 0 and "0 regression(s)" in text
        assert [line for line in text.splitlines() if line.startswith("host:")] == [
            "host: the baseline carries no provenance stamp; hosts may differ"]
        code, text = run_cli("bench-diff", str(fresh), str(fresh))
        assert code == 0 and "host:" not in text

    def test_bench_kernels_report_is_stamped(self, tmp_path):
        import json

        from repro.framework import kernel_mode

        out = tmp_path / "BENCH_kernels.json"
        code, _ = run_cli("bench-kernels", "--smoke", "--repeats", "1", "-o", str(out))
        assert code == 0
        assert json.loads(out.read_text())["provenance"]["kernel_mode"] == kernel_mode()


class TestBenchDiffJson:
    BASELINE = "benchmarks/reports/BENCH_kernels.json"

    def test_json_self_compare(self):
        import json

        code, text = run_cli("bench-diff", "--json", self.BASELINE, self.BASELINE)
        assert code == 0
        payload = json.loads(text)
        assert payload["ok"] is True
        assert payload["regressions"] == []
        assert payload["schema_gated"] == "repro.bench_kernels.v1"
        assert all({"path", "direction", "baseline", "current", "ok"}
                   <= set(row) for row in payload["rows"])

    def test_json_regression_carries_attribution(self, tmp_path):
        import json

        baseline = json.loads(open(self.BASELINE).read())
        current = json.loads(open(self.BASELINE).read())
        current["checks"]["bit_identical"] = False
        # Inject a 10x conv slowdown so attribution has something to rank.
        current["kernels"]["conv2d_fwd_bwd"]["ns_per_op"] *= 10
        fresh = tmp_path / "fresh.json"
        fresh.write_text(json.dumps(current))
        code, text = run_cli("bench-diff", "--json", str(fresh), self.BASELINE)
        assert code == 1
        payload = json.loads(text)
        assert payload["ok"] is False
        assert "checks.bit_identical" in payload["regressions"]
        assert payload["attribution"][0]["op"] == "conv2d_fwd_bwd"


class TestProfileCommand:
    def test_profile_of_instrumented_run(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "full")
        code, _ = run_cli("campaign", "recommendation", "--seeds", "2",
                          "--save", str(tmp_path), "--submitter", "prof-test")
        assert code == 0
        code, text = run_cli("profile", str(tmp_path / "prof-test"))
        assert code == 0
        assert "2 profiled run(s)" in text
        assert "forward" in text and "Share" in text
        # The campaign directory holds each run twice (jobs/ and the
        # submission); the profile counts it once.
        code, text = run_cli("profile", str(tmp_path))
        assert code == 0
        assert "2 profiled run(s)" in text

    def test_profile_of_a_campaign_that_missed_its_target(self, tmp_path, monkeypatch):
        # A missed run has no submission copy; its profile is in jobs/.
        monkeypatch.setenv("REPRO_PROFILE", "full")
        code, text = run_cli("campaign", "recommendation", "--seeds", "1",
                             "--save", str(tmp_path), "--override", "base_lr=0.0")
        assert code == 1
        assert "quality_miss=1" in text
        code, text = run_cli("profile", str(tmp_path))
        assert code == 0
        assert "1 profiled run(s)" in text
        assert any(line.split()[:1] == ["backward"] for line in text.splitlines())

    def test_profile_lists_kernel_fallbacks(self, tmp_path, monkeypatch):
        import json

        monkeypatch.setenv("REPRO_PROFILE", "full")
        run_cli("campaign", "recommendation", "--seeds", "2",
                "--save", str(tmp_path), "--submitter", "prof-test")
        code, text = run_cli("profile", str(tmp_path / "prof-test"))
        assert code == 0
        assert "kernel fallbacks: none" in text  # float32 end to end
        # The same counters a mixed-dtype call would have left in each header.
        for path in (tmp_path / "prof-test").rglob("result_*.txt"):
            first, _, rest = path.read_text().partition("\n")
            header = json.loads(first[len("# repro-run "):])
            header["metrics"]["kernel_fallbacks.linear.mixed_dtype"] = {
                "type": "counter", "value": 27.0}
            header["metrics"]["kernel_fallbacks.normalize.mixed_dtype"] = {
                "type": "counter", "value": 8.0}
            path.write_text("# repro-run " + json.dumps(header) + "\n" + rest)
        code, text = run_cli("profile", str(tmp_path / "prof-test"))
        assert code == 0
        assert "kernel fallbacks: linear/mixed_dtype=54  normalize/mixed_dtype=16" in text

    def test_profile_json_merges_runs(self, tmp_path, monkeypatch):
        import json

        monkeypatch.setenv("REPRO_PROFILE", "full")
        run_cli("campaign", "recommendation", "--seeds", "1",
                "--save", str(tmp_path), "--submitter", "prof-test")
        code, text = run_cli("profile", str(tmp_path / "prof-test"), "--json")
        assert code == 0
        payload = json.loads(text)
        assert payload["schema"] == "repro.op_profile.v1"
        assert payload["mode"] == "full"
        assert payload["ops"]["backward"]

    def test_unprofiled_run_prints_the_phase_table_and_a_hint(self, tmp_path):
        run_cli("campaign", "recommendation", "--seeds", "1",
                "--save", str(tmp_path), "--submitter", "plain")
        code, text = run_cli("profile", str(tmp_path / "plain"))
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == "1 run(s), 1 reached the target"
        assert lines[1].split()[:3] == ["Benchmark", "Runs", "Init"]
        assert lines[3].split()[:2] == ["recommendation", "1"]
        assert lines[-1] == ("no op profile recorded: run with REPRO_PROFILE=full "
                             "to record one")
        # --json has no payload to emit.
        code, text = run_cli("profile", str(tmp_path / "plain"), "--json")
        assert code == 1
        assert text.splitlines() == lines[-1:]

    def test_campaign_dir_adds_its_missed_runs_to_the_submission_rows(self, tmp_path):
        from repro.core import build_phase_table, load_run_result, render_phase_table

        # Seed 0 misses its target; the resumed campaign's seed 1 reaches it,
        # so only seed 1 has a submission copy.
        code, _ = run_cli("campaign", "recommendation", "--seeds", "1",
                          "--save", str(tmp_path), "--override", "base_lr=0.0")
        assert code == 1
        code, _ = run_cli("campaign", "recommendation", "--seeds", "2",
                          "--resume", str(tmp_path))
        assert code == 1  # the campaign still holds its missed run
        jobs = tmp_path / "jobs" / "recommendation"
        missed, reached = (load_run_result(jobs / f"seed_{k}.txt") for k in (0, 1))
        assert (missed.reached_target, reached.reached_target) == (False, True)

        def table(runs):
            return render_phase_table(build_phase_table({"recommendation": runs}))

        code, submission = run_cli("profile", str(tmp_path / "cli-user"))
        assert code == 0
        assert submission.startswith("1 run(s), 1 reached the target\n"
                                     + table([reached]) + "\n")
        code, campaign = run_cli("profile", str(tmp_path))
        assert code == 0
        assert campaign.startswith("2 run(s), 1 reached the target\n"
                                   + table([missed, reached]) + "\n")

    def test_profile_of_a_timed_out_campaign_shows_its_row(self, tmp_path):
        # The cell times out before its first epoch; its attempt's file is
        # the one run the campaign directory holds.
        code, _ = run_cli("campaign", "recommendation", "--seeds", "1", "--timeout",
                          "1e-9", "--retries", "0", "--save", str(tmp_path))
        assert code == 1
        code, text = run_cli("profile", str(tmp_path))
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == "1 run(s), 0 reached the target"
        assert lines[3].split()[:2] == ["recommendation", "1"]

    def test_saved_profile_of_a_crashed_cell_is_read_back(self, tmp_path, monkeypatch):
        from repro.suite import recommendation

        def explode(self):
            raise ArithmeticError("injected crash")

        monkeypatch.setattr(recommendation._Session, "evaluate", explode)
        monkeypatch.setenv("REPRO_PROFILE", "full")
        code, text = run_cli("campaign", "recommendation", "--seeds", "1",
                             "--retries", "0", "--save", str(tmp_path))
        assert code == 1
        code, saved = run_cli("profile", str(tmp_path))
        assert code == 0
        assert saved.startswith("1 run(s), 0 reached the target\n")
        # The op table the campaign printed is the one its record holds.
        assert text[text.index("op profile: mode=full"):] == \
            saved[saved.index("op profile: mode=full"):]

    def test_profile_reads_a_parent_layout_campaign(self):
        from tests.exec.test_engine import PARENT_LAYOUT

        code, text = run_cli("profile", str(PARENT_LAYOUT))
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == "2 run(s), 2 reached the target"
        assert lines[3].split()[:2] == ["fake_benchmark", "2"]

    def test_missing_path_is_usage_error(self, tmp_path):
        code, text = run_cli("profile", str(tmp_path / "nope"))
        assert code == 2
        assert "no such file or directory" in text

    def test_profiled_run_without_save_prints_the_profile(self, monkeypatch):
        # A requested profile is never silently dropped: with nothing to
        # save it to, `campaign` prints it.
        monkeypatch.setenv("REPRO_PROFILE", "full")
        code, text = run_cli("campaign", "recommendation", "--seeds", "1")
        assert code == 0
        assert "op profile: mode=full" in text
        assert any(line.split()[:1] == ["backward"] for line in text.splitlines())

    def test_failed_profiled_run_prints_the_partial_profile(self, monkeypatch):
        from repro.suite import recommendation

        def explode(self):
            raise ArithmeticError("injected crash")

        # Epoch 1 trains under the profiler, then the first eval raises.
        monkeypatch.setattr(recommendation._Session, "evaluate", explode)
        monkeypatch.setenv("REPRO_PROFILE", "full")
        code, text = run_cli("campaign", "recommendation", "--seeds", "1",
                             "--retries", "0")
        assert code == 1
        assert "recommendation/0 fault: ArithmeticError: injected crash\n" in text
        assert "op profile: mode=full" in text
        assert any(line.split()[:1] == ["backward"] for line in text.splitlines())


class TestFailedRunTraceFlush:
    def test_failed_run_writes_partial_trace(self, tmp_path, monkeypatch):
        """A crashed run still leaves a loadable trace: every phase it entered,
        the in-flight epoch tagged with the error."""
        import json

        from repro.core import FakeClock, MLLogger
        from repro.core import runner as runner_mod
        from repro.core.mllog import Keys

        clock = FakeClock()
        log = MLLogger(clock)
        for key in (Keys.INIT_START, Keys.INIT_STOP, Keys.MODEL_CREATION_START,
                    Keys.MODEL_CREATION_STOP, Keys.RUN_START):
            log.event(key)
        log.event(Keys.EPOCH_START, 1, epoch_num=1)
        clock.advance(5.0)
        log.event(Keys.RUN_STOP, status="error", error="ValueError")

        def explode(self, benchmark, *, seed=0, **kwargs):
            raise runner_mod.RunFailure(ValueError("injected crash"),
                                        _partial_run(benchmark, seed, log.to_lines()))

        monkeypatch.setattr(runner_mod.BenchmarkRunner, "run", explode)
        trace = tmp_path / "trace.json"
        code, text = run_cli("campaign", "recommendation", "--seeds", "1",
                             "--retries", "0", "--trace", str(trace))
        assert code == 1
        assert "recommendation/0 fault: ValueError: injected crash\n" in text
        assert "trace written" in text
        doc = json.loads(trace.read_text())
        spans = {e["name"]: e for e in doc["traceEvents"] if e["ph"] == "X"}
        assert set(spans) == {"init", "model_creation", "run", "epoch 1"}
        assert spans["epoch 1"]["args"] == {
            "epoch_num": 1, "aborted": True, "error": "ValueError"}
        assert spans["epoch 1"]["dur"] == 5e6


class TestTable1Json:
    def test_machine_readable_listing(self):
        import json

        code, text = run_cli("table1", "--json")
        assert code == 0
        doc = json.loads(text)
        assert doc["schema"] == "repro.table1.v1"
        names = {row["name"] for row in doc["benchmarks"]}
        assert {"image_classification", "recommendation"} <= names
        for row in doc["benchmarks"]:
            assert {"name", "quality_threshold"} <= set(row)


class TestLoadgenCommand:
    def test_requires_benchmark_or_smoke(self):
        code, text = run_cli("loadgen")
        assert code == 2
        assert "--benchmark" in text

    def test_unknown_benchmark(self):
        code, text = run_cli("loadgen", "--benchmark", "frobnication")
        assert code == 2
        assert "unknown benchmark" in text

    @pytest.mark.parametrize("flag, value, message", [
        ("--queries", "0", "--queries must be >= 1, got 0"),
        ("--queries", "1", "--warmup 1 leaves none of --queries 1 to measure"),
        ("--target-qps", "0", "--target-qps must be > 0, got 0"),
        ("--latency-bound", "0", "--latency-bound must be > 0 seconds, got 0"),
    ], ids=["queries-0", "queries-1", "target-qps-0", "latency-bound-0"])
    def test_bad_numeric_flag_exits_before_training(self, flag, value,
                                                    message):
        code, text = run_cli("loadgen", "--benchmark", "recommendation",
                             flag, value, "-o", "-")
        assert code == 2
        assert text == f"loadgen: {message}\n"

    @pytest.fixture(scope="class")
    def rec_artifact(self, tmp_path_factory):
        from repro.loadgen import train_and_save

        path = tmp_path_factory.mktemp("artifact") / "result_0.txt"
        return train_and_save("recommendation", path, seed=0, max_epochs=1)

    @pytest.mark.parametrize("damage, message", [
        ("no-result", "No such file or directory"),
        ("no-sidecar", "no trained parameters"),
        ("truncated-sidecar", "unreadable parameters"),
    ])
    def test_unloadable_artifact_is_one_line_and_exit_1(self, rec_artifact, tmp_path,
                                                         damage, message):
        import shutil

        copy = tmp_path / "result_0.txt"
        sidecar = tmp_path / "result_0.params.npz"
        shutil.copy(rec_artifact, copy)
        shutil.copy(rec_artifact.with_name(sidecar.name), sidecar)
        if damage == "no-result":
            copy.unlink()
        elif damage == "no-sidecar":
            sidecar.unlink()
        else:
            sidecar.write_bytes(sidecar.read_bytes()[:100])
        code, text = run_cli("loadgen", "--benchmark", "recommendation",
                             "--artifact", str(copy), "--smoke", "-o", "-")
        assert code == 1
        assert text.startswith("loadgen: ") and text.count("\n") == 1
        assert message in text

    def test_serves_all_scenarios_from_fresh_training(self, tmp_path):
        import json

        report = tmp_path / "BENCH_loadgen.json"
        code, text = run_cli(
            "loadgen", "--benchmark", "recommendation", "--queries", "16",
            "--timing", "virtual", "--train-epochs", "1", "--no-rerun",
            "-o", str(report))
        assert code == 0
        for scenario in ("single_stream", "server", "offline"):
            assert scenario in text
        assert "VALID" in text
        doc = json.loads(report.read_text())
        assert doc["schema"] == "repro.bench_loadgen.v1"
        server = doc["benchmarks"]["recommendation"]["server"]
        assert server["max_qps"] > 0
        # No rerun pass -> determinism deliberately unproven.
        assert doc["checks"]["deterministic"] is None


def _repro_process(env_overrides, *argv, module="repro", **popen_kwargs):
    """``python -m MODULE ARGV`` in a fresh interpreter with extra env vars."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = {**os.environ, **env_overrides,
           "PYTHONPATH": os.pathsep.join(
               p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.Popen([sys.executable, "-m", module, *argv], env=env,
                            text=True, **popen_kwargs)


def _repro_run(env_overrides, *argv, module="repro"):
    import subprocess

    with _repro_process(env_overrides, *argv, module=module,
                        stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        stdout, stderr = proc.communicate(timeout=120)
    return proc.returncode, stdout, stderr


class TestProfileEnvironment:
    @pytest.mark.parametrize("value", ["turbo", "sampled"])
    def test_unknown_mode_is_one_line_and_exit_2(self, value):
        code, stdout, stderr = _repro_run({"REPRO_PROFILE": value}, "table1")
        assert code == 2
        assert stdout == ""
        assert stderr == ("repro: error: REPRO_PROFILE must be one of "
                          f"('off', 'full'), got {value!r}\n")


class TestClosedPipe:
    # Buffered stdout (the default for a pipe) holds table1's output until
    # the final flush; unbuffered stdout fails on the first write.
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_reader_closing_early_is_not_an_error(self, unbuffered):
        import subprocess

        with _repro_process({"PYTHONUNBUFFERED": unbuffered}, "table1",
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            proc.stdout.close()  # the reader goes away before any output
            stderr = proc.stderr.read()
            proc.wait(timeout=120)
        assert stderr == ""
        assert proc.returncode == 0


class TestRetiredEntryPoint:
    def test_cli_module_fails_loudly(self):
        code, stdout, stderr = _repro_run({}, "table1", module="repro.cli")
        assert code == 2
        assert stdout == ""
        assert stderr == "repro: error: run the CLI as `python -m repro`\n"

    @pytest.mark.parametrize("argv, message", [
        (["stats", "."], "invalid choice: 'stats'"),
        (["analyze", "."], "invalid choice: 'analyze'"),
        (["loadgen", "--save", "X"], "unrecognized arguments: --save X"),
    ], ids=["stats", "analyze", "loadgen-save"])
    def test_retired_view_is_a_usage_error(self, argv, message):
        # `profile` is the one view of where a run's time went; a served
        # artifact is one `campaign --save` wrote (`loadgen --artifact`).
        code, stdout, stderr = _repro_run({}, *argv)
        assert code == 2
        assert stdout == ""
        assert message in stderr

    def test_run_verb_is_unknown(self):
        # `campaign` is the one verb that runs a benchmark's seeds.
        code, stdout, stderr = _repro_run({}, "run", "recommendation")
        assert code == 2
        assert stdout == ""
        assert "invalid choice: 'run'" in stderr
