"""SUT rehydration from artifacts and end-to-end serving."""

import numpy as np
import pytest

from repro.core import BenchmarkRunner, FakeClock
from repro.core.artifacts import save_run_result
from repro.loadgen import (
    SUT,
    ScenarioSpec,
    load_sut,
    run_scenario,
    train_and_save,
    virtual_service_times,
)
from repro.loadgen.sut import ADAPTERS, SUTInfo
from repro.suite import create_benchmark
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


class TestPredictValidatesIndices:
    @pytest.mark.parametrize("bad", [
        [-1],                  # would wrap to the pool's last item
        "pool_size",           # one past the end
        [1.7],                 # would truncate to 1
        [[0, 1]],
        np.zeros((2, 0), dtype=np.int64),
        [True, False],
        ["0"],
        3,
    ], ids=["negative", "pool_size", "float", "2-D", "2-D empty", "bool", "str", "0-D"])
    def test_bad_indices_raise_before_any_forward(self, rec_artifact, bad):
        sut = load_sut(rec_artifact)
        if isinstance(bad, str):
            bad = [sut.pool_size]
        sut.adapter.predict = None  # a forward would fail with a TypeError
        with pytest.raises(ValueError, match="1-D integers"):
            sut.predict(bad)

    def test_empty_and_unsigned_indices_are_legal(self, rec_artifact):
        sut = load_sut(rec_artifact)
        assert sut.predict([]).shape == (0,)
        assert sut.predict(np.array([], dtype=np.int64)).shape == (0,)
        np.testing.assert_array_equal(
            sut.predict(np.array([0, sut.pool_size - 1], dtype=np.uint32)),
            sut.predict(np.array([0, sut.pool_size - 1])))


class TestImageClassificationServing:
    def test_predict_forwards_at_most_one_training_batch(self, monkeypatch):
        # An untrained session: the bound does not depend on the weights.
        bench = create_benchmark("image_classification")
        bench.prepare_data()
        session = bench.create_session(0, bench.spec.default_hyperparameters)
        session.model.eval()
        sut = SUT(SUTInfo("image_classification", 0, 0.0, 0, "untrained"),
                  ADAPTERS["image_classification"](session, bench))
        model = session.model
        rows, forward = [], model.forward
        monkeypatch.setattr(model, "forward",
                            lambda x: rows.append(len(x.data)) or forward(x))
        idx = np.random.default_rng(0).integers(0, sut.pool_size, size=300)
        ids = sut.predict(idx)
        assert sum(rows) == 300
        assert max(rows) <= session.hp["batch_size"] < 300
        images, _ = bench.data.val.arrays
        np.testing.assert_array_equal(ids, np.argmax(session.logits(images[idx]), axis=1))
        assert sut.predict([]).shape == (0,)


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
