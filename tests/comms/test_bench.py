"""bench-comms payload structure, and bench-diff as its only verdict."""

import io
from types import SimpleNamespace

import pytest

from repro.cli import main
from repro.comms import bench
from repro.comms.bench import BENCH_SCHEMA, bench_comms
from repro.telemetry import compare_reports


@pytest.fixture(scope="module")
def smoke_payload():
    # Inline backend keeps module-scope benching cheap and process-free.
    return bench_comms(smoke=True, workers=[2], algorithms=["flat", "ring"],
                       steps=2, warmup=1, backend="inline")


class TestPayload:
    def test_schema_and_environment(self, smoke_payload):
        assert smoke_payload["schema"] == BENCH_SCHEMA
        assert smoke_payload["smoke"] is True
        assert smoke_payload["backend"] == "inline"
        assert smoke_payload["cpu_count"] >= 1
        assert smoke_payload["workload"]["steps"] == 2

    def test_rows_cover_the_sweep(self, smoke_payload):
        rows = smoke_payload["results"]
        assert {(r["workers"], r["algorithm"]) for r in rows} == \
            {(2, "flat"), (2, "ring")}
        for row in rows:
            assert row["step_seconds"] > 0
            assert row["baseline_step_seconds"] > 0
            assert row["speedup"] == pytest.approx(
                row["baseline_step_seconds"] / row["step_seconds"])
            assert row["bit_identical_vs_sync"] is True

    def test_checks_summarize_rows(self, smoke_payload):
        checks = smoke_payload["checks"]
        assert checks["bit_identical"] is True
        assert set(checks["best_speedup_by_workers"]) == {"2"}


class TestGates:
    """``bench-diff`` against a baseline is the verdict; the bench returns none."""

    def _payload(self, *, cpu_count, bit_identical=True, speedup=2.0):
        return {
            "schema": BENCH_SCHEMA,
            "cpu_count": cpu_count,
            "results": [{
                "workers": 2, "algorithm": "flat",
                "bucket_bytes": 256 * 1024, "backend": "process",
                "step_seconds": 1.0, "baseline_step_seconds": speedup,
                "speedup": speedup, "bit_identical_vs_sync": bit_identical,
            }],
            "checks": {
                "bit_identical": bit_identical,
                "best_speedup_by_workers": {"2": speedup},
            },
        }

    def test_clean_payload_passes(self):
        payload = self._payload(cpu_count=4)
        assert compare_reports(payload, payload).ok

    def test_divergence_is_always_fatal(self):
        baseline = self._payload(cpu_count=4)
        for cpu_count in (1, 4):
            report = compare_reports(
                self._payload(cpu_count=cpu_count, bit_identical=False), baseline)
            assert [row.path for row in report.regressions] == ["checks.bit_identical"]

    def test_smoke_exit_ignores_speedup(self, monkeypatch):
        # A multi-core host and every sharded step twice as slow as the
        # in-process one: the report records 0.50x and the verb exits 0.
        clock = SimpleNamespace(now=0.0)
        monkeypatch.setattr(bench, "time", SimpleNamespace(perf_counter=lambda: clock.now))
        monkeypatch.setattr(bench, "cpu_count", lambda: 4)

        def timed(cls, seconds):
            class Timed(cls):
                def step(self, batch):
                    clock.now += seconds
                    return super().step(batch)
            return Timed

        monkeypatch.setattr(bench, "SynchronousDataParallel",
                            timed(bench.SynchronousDataParallel, 0.5))
        monkeypatch.setattr(bench, "ShardedDataParallel",
                            timed(bench.ShardedDataParallel, 1.0))
        out = io.StringIO()
        code = main(["bench-comms", "--smoke", "--backend", "inline", "-o", "-"], out=out)
        text = out.getvalue()
        assert code == 0, text
        assert "W=2: 0.50x" in text
        assert "GATE FAILED" not in text
