"""The bench regression gate: tolerance bands, directions, schema safety."""

import copy
from pathlib import Path

import pytest

from repro.telemetry import (
    MetricSpec,
    attribute_regression,
    compare_reports,
    load_report,
)

REPORTS_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "reports"

BASELINES = sorted(REPORTS_DIR.glob("BENCH_*.json"))


class TestMetricSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            MetricSpec("x", "sideways")
        with pytest.raises(ValueError):
            MetricSpec("x", "higher", rel_tol=-0.1)

    def test_bounds(self):
        assert MetricSpec("x", "higher", rel_tol=0.5).bound(2.0) == 1.0
        assert MetricSpec("x", "lower", abs_tol=2).bound(1.0) == 3.0
        assert MetricSpec("x", "exact").bound(7.0) == 7.0


class TestCompareReports:
    def test_committed_baselines_self_compare_clean(self):
        # The exact check CI runs: every committed report must gate green
        # against itself, or the gate is wrong before any PR touches it.
        assert BASELINES, "no committed BENCH_*.json baselines found"
        for path in BASELINES:
            payload = load_report(path)
            report = compare_reports(payload, payload)
            assert report.ok, f"{path.name}: {report.render()}"
            assert report.rows  # something actually gated

    def test_committed_baselines_hold_the_oracle(self):
        # Exact rows compare against the baseline, so a committed
        # `bit_identical: false` would wave every divergence through.
        for path in BASELINES:
            checks = load_report(path).get("checks", {})
            flags = {k: v for k, v in checks.items() if isinstance(v, bool)}
            assert all(flags.values()), f"{path.name}: {flags}"
            if "min_server_max_qps" in checks:
                assert checks["min_server_max_qps"] > 0, path.name

    def test_injected_kernel_regression_fails(self):
        baseline = load_report(REPORTS_DIR / "BENCH_kernels.json")
        current = copy.deepcopy(baseline)
        current["checks"]["bit_identical"] = False
        current["kernels"]["conv2d_fwd_bwd"]["speedup"] *= 0.1
        report = compare_reports(current, baseline)
        assert not report.ok
        regressed = {row.path for row in report.regressions}
        assert regressed == {"checks.bit_identical", "kernels.conv2d_fwd_bwd.speedup"}
        rendered = report.render()
        assert "REGRESSED" in rendered and "2 regression(s)" in rendered

    def test_within_band_drift_passes(self):
        baseline = load_report(REPORTS_DIR / "BENCH_campaign.json")
        current = dict(baseline)
        current["speedup"] = baseline["speedup"] * 0.6  # inside rel_tol=0.5
        current["retries"] = baseline["retries"] + 2  # inside abs_tol=2
        assert compare_reports(current, baseline).ok

    def test_schema_mismatch_raises(self):
        kernels = load_report(REPORTS_DIR / "BENCH_kernels.json")
        loadgen = load_report(REPORTS_DIR / "BENCH_loadgen.json")
        with pytest.raises(ValueError, match="schema mismatch"):
            compare_reports(kernels, loadgen)

    def test_unknown_schema_raises(self):
        payload = {"schema": "nobody/0"}
        with pytest.raises(ValueError, match="no regression gates"):
            compare_reports(payload, payload)

    def test_report_without_schema_field_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"speedup": 2.0}')
        with pytest.raises(ValueError, match="no 'schema' field"):
            load_report(bad)

    def test_missing_values(self):
        baseline = load_report(REPORTS_DIR / "BENCH_campaign.json")
        # Metric absent from the baseline: informational, not a failure.
        older = {k: v for k, v in baseline.items() if k != "speedup"}
        report = compare_reports(baseline, older)
        row = next(r for r in report.rows if r.path == "speedup")
        assert row.ok and row.note == "no baseline value"
        # Metric absent from the fresh report: that IS a regression.
        report = compare_reports(older, baseline)
        row = next(r for r in report.rows if r.path == "speedup")
        assert not row.ok and row.note == "missing from report"


class TestAttribution:
    def _kernels_payload(self, conv_ns):
        return {
            "schema": "repro.bench_kernels.v1",
            "checks": {"bit_identical": True},
            "kernels": {
                "conv2d_fwd_bwd": {"ns_per_op": conv_ns, "speedup": 2.0},
                "linear_fwd_bwd": {"ns_per_op": 2_000_000},
                "sgd_momentum_step": {"ns_per_op": 1_000_000},
            },
        }

    def test_injected_slowdown_attributed_to_the_right_op(self):
        baseline = self._kernels_payload(conv_ns=2_000_000)
        current = self._kernels_payload(conv_ns=8_000_000)  # 4x slower conv
        current["kernels"]["conv2d_fwd_bwd"]["speedup"] = 0.5  # trips the gate
        report = compare_reports(current, baseline)
        assert not report.ok
        assert report.attribution, "regression produced no attribution"
        top = report.attribution[0]
        assert top.op == "conv2d_fwd_bwd"
        assert top.delta_share > 0.3  # 40% -> 72.7% of recorded time
        # Only the regressed op crosses the noise floor.
        assert [row.op for row in report.attribution] == ["conv2d_fwd_bwd"]

    def test_uniform_slowdown_attributes_nothing(self):
        # A 3x-slower machine keeps every op's share constant; attribution
        # must stay silent rather than blame the largest kernel.
        baseline = self._kernels_payload(conv_ns=2_000_000)
        current = self._kernels_payload(conv_ns=6_000_000)
        current["kernels"]["linear_fwd_bwd"]["ns_per_op"] *= 3
        current["kernels"]["sgd_momentum_step"]["ns_per_op"] *= 3
        assert attribute_regression(current, baseline) == []

    def test_passing_report_carries_no_attribution(self):
        baseline = self._kernels_payload(conv_ns=2_000_000)
        report = compare_reports(baseline, baseline)
        assert report.ok and report.attribution == []

    def test_payload_shape_round_trips_to_json(self):
        import json

        baseline = self._kernels_payload(conv_ns=2_000_000)
        current = self._kernels_payload(conv_ns=8_000_000)
        current["checks"]["bit_identical"] = False
        report = compare_reports(current, baseline)
        payload = json.loads(json.dumps(report.to_payload()))
        assert payload["ok"] is False
        assert payload["regressions"] == ["checks.bit_identical"]
        assert payload["attribution"][0]["op"] == "conv2d_fwd_bwd"
        assert {"baseline_share", "current_share", "delta_share"} <= \
            set(payload["attribution"][0])

    def test_attribution_unavailable_without_op_tables(self):
        assert attribute_regression({"schema": "x"}, {"schema": "x"}) == []


class TestProvenance:
    FIELDS = {"git", "cpu_count", "platform", "python", "numpy", "blas", "kernel_mode",
              "blas_threads", "malloc"}

    def test_stamp_names_the_host_and_the_malloc_settings(self, monkeypatch):
        import os

        from repro.telemetry.regress import provenance

        monkeypatch.setenv("MALLOC_ARENA_MAX", "2")
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        stamp = provenance()
        assert set(stamp) == self.FIELDS
        assert stamp["blas_threads"] == 1
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        assert provenance()["blas_threads"] is None
        assert stamp["cpu_count"] == os.cpu_count()
        assert stamp["malloc"]["MALLOC_ARENA_MAX"] == "2"
        assert all(key.startswith("MALLOC_") for key in stamp["malloc"])

    def test_a_changed_tracked_file_marks_the_commit_dirty(self, tmp_path):
        import subprocess

        from repro.telemetry.regress import _git_commit

        def git(*argv):
            return subprocess.run(
                ["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t",
                 "-c", "commit.gpgsign=false", *argv],
                check=True, capture_output=True, text=True).stdout.strip()

        assert _git_commit(tmp_path) == "unknown"
        git("init", "-q")
        (tmp_path / "tracked.txt").write_text("a\n")
        git("add", "tracked.txt")
        git("commit", "-q", "-m", "one file")
        sha = git("rev-parse", "HEAD")
        (tmp_path / "untracked.txt").write_text("not in HEAD\n")
        assert _git_commit(tmp_path) == sha
        (tmp_path / "tracked.txt").write_text("b\n")
        assert _git_commit(tmp_path) == f"{sha}-dirty"

    def _stamped(self, **host):
        from repro.telemetry.regress import provenance

        payload = load_report(REPORTS_DIR / "BENCH_campaign.json")
        return {**payload, "provenance": {**provenance(), **host}}

    def test_same_host_says_nothing(self):
        current = self._stamped()
        baseline = self._stamped(git="0" * 40)  # another commit is not another host
        report = compare_reports(current, baseline)
        assert report.host == "" and "host:" not in report.render()

    def test_other_host_is_one_line_and_gates_nothing(self):
        current = self._stamped(cpu_count=2)
        report = compare_reports(current, self._stamped(cpu_count=64))
        assert report.ok
        assert report.host == "host: the baseline was recorded elsewhere: cpu_count 64 -> 2"
        assert report.render().splitlines()[1] == report.host
        assert report.to_payload()["host"] == report.host

    def test_unstamped_side_is_named(self):
        stamped = self._stamped()
        unstamped = load_report(REPORTS_DIR / "BENCH_campaign.json")
        assert compare_reports(stamped, unstamped).host == (
            "host: the baseline carries no provenance stamp; hosts may differ")
        assert compare_reports(unstamped, stamped).host == (
            "host: the report carries no provenance stamp; hosts may differ")
        assert compare_reports(stamped, unstamped).ok
