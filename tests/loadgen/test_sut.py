"""SUT rehydration from artifacts and end-to-end serving."""

import numpy as np
import pytest

from repro.core import BenchmarkRunner, FakeClock
from repro.core.artifacts import save_run_result
from repro.loadgen import (
    ScenarioSpec,
    load_sut,
    run_scenario,
    train_and_save,
    virtual_service_times,
)
from tests.core.fakes import FakeBenchmark


@pytest.fixture(scope="module")
def rec_artifact(tmp_path_factory):
    """One short trained recommendation run, shared across this module."""
    path = tmp_path_factory.mktemp("serve") / "result_0.txt"
    return train_and_save("recommendation", path, seed=0, max_epochs=1)


class TestVirtualServiceTimes:
    def test_same_seed_bit_identical(self):
        np.testing.assert_array_equal(virtual_service_times(64, 3),
                                      virtual_service_times(64, 3))

    def test_streams_and_salts_decorrelate(self):
        base = virtual_service_times(64, 3)
        assert not np.array_equal(base, virtual_service_times(64, 4))
        assert not np.array_equal(base, virtual_service_times(64, 3, stream=1))
        assert not np.array_equal(base, virtual_service_times(64, 3, salt=9))

    def test_positive_and_scaled(self):
        times = virtual_service_times(4096, 0, base_s=1e-3, sigma=0.1)
        assert (times > 0).all()
        assert 0.5e-3 < float(np.median(times)) < 2e-3


class TestLoadSut:
    def test_rehydrated_model_serves(self, rec_artifact):
        sut = load_sut(rec_artifact)
        assert sut.info.benchmark == "recommendation"
        assert sut.pool_size > 0
        out = sut.predict(np.arange(8))
        assert out.shape == (8,)
        assert out.dtype == np.float64

    def test_predictions_reproduce_across_loads(self, rec_artifact):
        a, b = load_sut(rec_artifact), load_sut(rec_artifact)
        idx = np.arange(16)
        np.testing.assert_array_equal(a.predict(idx), b.predict(idx))

    def test_serving_params_carry_no_grad(self, rec_artifact):
        model = load_sut(rec_artifact).adapter.model
        assert all(not p.requires_grad for p in model.parameters())

    def test_artifact_without_params_rejected(self, rec_artifact, tmp_path):
        from repro.core.artifacts import load_run_result

        result = load_run_result(rec_artifact)
        result.model_state = None
        bare = save_run_result(tmp_path / "result_bare.txt", result)
        with pytest.raises(ValueError, match="no trained parameters"):
            load_sut(bare)

    def test_benchmark_without_adapter_rejected(self, tmp_path):
        clock = FakeClock()
        run = BenchmarkRunner(clock=clock).run(FakeBenchmark(clock=clock),
                                               seed=0)
        run.model_state = {"w": np.ones(3)}
        path = save_run_result(tmp_path / "result_fake.txt", run)
        with pytest.raises(ValueError, match="no serving adapter"):
            load_sut(path)


class TestEndToEndServing:
    def test_same_seed_serving_runs_bit_identical(self, rec_artifact):
        spec = ScenarioSpec(scenario="server", query_count=32,
                            warmup_queries=4, target_qps=100.0)
        payloads = []
        for _ in range(2):  # fresh SUT each pass: covers load+serve
            payloads.append(
                run_scenario(load_sut(rec_artifact), spec, seed=0,
                             timing="virtual").to_payload())
        assert payloads[0] == payloads[1]

    def test_all_scenarios_produce_percentiles(self, rec_artifact):
        sut = load_sut(rec_artifact)
        for scenario in ("single_stream", "server", "offline"):
            spec = ScenarioSpec(
                scenario=scenario, query_count=16,
                target_qps=100.0 if scenario == "server" else None)
            result = run_scenario(sut, spec, timing="virtual")
            assert {"p50", "p90", "p99"} <= set(result.percentiles)
            assert result.prediction_checksum != 0
