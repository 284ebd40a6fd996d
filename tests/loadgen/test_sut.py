"""SUT rehydration from artifacts and end-to-end serving."""

from pathlib import Path

import numpy as np
import pytest

from repro.core import BenchmarkRunner, FakeClock
from repro.core.artifacts import save_run_result
from repro.framework import no_grad
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


@pytest.fixture(scope="module")
def resnet_artifact(tmp_path_factory):
    """Two epochs of image classification: well above chance, short of target."""
    path = tmp_path_factory.mktemp("serve") / "result_1.txt"
    return train_and_save("image_classification", path, seed=1, max_epochs=2)


def _without_buffers(artifact, directory):
    """A copy of ``artifact`` whose sidecar keeps the parameters only."""
    import shutil

    copy = shutil.copy(artifact, directory / artifact.name)
    sidecar = artifact.with_name(artifact.stem + ".params.npz")
    with np.load(sidecar) as npz:
        kept = {k: npz[k] for k in npz.files if not k.endswith(("running_mean", "running_var"))}
        assert len(kept) < len(npz.files)
    np.savez(directory / sidecar.name, **kept)
    return Path(copy), directory / sidecar.name


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

    def test_inference_entry_points_build_no_tensor(self, rec_artifact, monkeypatch):
        """One served NCF query built 11 ``Tensor``s and one MiniGo
        ``evaluate`` 16 while both ran the Tensor forward; on the array
        functions they build none."""
        from repro.framework import Tensor
        from repro.go import GoBoard
        from repro.models import MiniGoNet

        sut = load_sut(rec_artifact)
        net = MiniGoNet(5, np.random.default_rng(0))
        built = []
        init = Tensor.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counting_init)
        sut.predict(np.array([3]))
        net.evaluate(GoBoard(5).play(4))
        assert built == []
        with no_grad():  # the oracle still builds them: the counter counts
            sut.adapter.model.forward(np.array([3]), np.array([4]))
        assert len(built) == 11

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

    @pytest.mark.parametrize("bad, dtype, shape", [
        ([-1], np.int32, "(1,)"),
        ([3, -128], np.int8, "(2,)"),  # 128 as a same-width unsigned
        ("pool_size", np.uint8, "(1,)"),
        ("pool_size", np.int64, "(1,)"),
        ([[0, 1]], np.int64, "(1, 2)"),
        ([1.0], np.float64, "(1,)"),
    ], ids=["neg-int32", "neg-int8", "n-uint8", "n-int64", "2-D", "float"])
    def test_rejection_names_dtype_and_shape(self, rec_artifact, bad, dtype, shape):
        sut = load_sut(rec_artifact)
        if isinstance(bad, str):
            bad = [sut.pool_size]
        with pytest.raises(ValueError) as info:
            sut.predict(np.array(bad, dtype=dtype))
        assert str(info.value) == (f"indices must be 1-D integers in [0, {sut.pool_size}), "
                                   f"got {np.dtype(dtype)} {shape}")

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8, np.int64])
    def test_every_integer_width_serves_and_empties(self, rec_artifact, dtype):
        sut = load_sut(rec_artifact)
        idx = np.arange(min(sut.pool_size, np.iinfo(dtype).max + 1))
        np.testing.assert_array_equal(sut.predict(idx.astype(dtype)), sut.predict(idx))
        assert sut.predict(np.array([], dtype=dtype)).shape == (0,)

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


class TestServedQuality:
    """A served model answers at the quality its training run logged."""

    def test_top1_over_the_pool_equals_the_logged_quality(self, resnet_artifact):
        sut = load_sut(resnet_artifact)
        bench = create_benchmark("image_classification")
        bench.prepare_data()
        _, labels = bench.data.val.arrays
        ids = sut.predict(np.arange(sut.pool_size))
        assert sut.info.quality > 0.2  # chance is 0.1: the statistics matter
        assert float(np.mean(ids == labels)) == sut.info.quality

    def test_sidecar_without_buffers_is_refused(self, resnet_artifact, tmp_path):
        artifact, sidecar = _without_buffers(resnet_artifact, tmp_path)
        with pytest.raises(ValueError) as info:
            load_sut(artifact)
        message = str(info.value)
        assert message.startswith(f"{sidecar}: ")
        assert "stem_bn.running_mean" in message and "unexpected=[]" in message

    def test_loadgen_on_a_sidecar_without_buffers_is_one_line_and_exit_1(
            self, resnet_artifact, tmp_path):
        import io

        from repro.cli import main

        artifact, sidecar = _without_buffers(resnet_artifact, tmp_path)
        out = io.StringIO()
        code = main(["loadgen", "--benchmark", "image_classification",
                     "--artifact", str(artifact), "--smoke", "-o", "-"], out=out)
        assert code == 1
        [line] = out.getvalue().splitlines()
        assert line.startswith(f"loadgen: {sidecar}: state mismatch: missing=[")


def _spy_on_training(monkeypatch, train_array):
    """Weak references to what ``load_sut`` builds for training: the
    benchmark, its session and ``train_array(benchmark.data)``."""
    import weakref

    import repro.suite as suite

    refs = {}
    create_benchmark_ = suite.create_benchmark

    def create(name):
        bench = create_benchmark_(name)
        create_session = bench.create_session

        def spied(seed, hp):
            session = create_session(seed, hp)
            refs.update(benchmark=weakref.ref(bench), session=weakref.ref(session),
                        train=weakref.ref(train_array(bench.data)))
            return session

        bench.create_session = spied
        return bench

    monkeypatch.setattr(suite, "create_benchmark", create)
    return refs


class TestSutKeepsModelAndPool:
    """After load, a SUT holds its model and its query pool, nothing of training."""

    CASES = {
        "image_classification": ("resnet_artifact", lambda data: data.train.arrays[0]),
        "recommendation": ("rec_artifact", lambda data: data.train_users),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_session_and_training_split_are_garbage(self, name, request, monkeypatch):
        import gc

        fixture, train_array = self.CASES[name]
        artifact = request.getfixturevalue(fixture)
        refs = _spy_on_training(monkeypatch, train_array)
        sut = load_sut(artifact)
        gc.collect()
        assert sorted(refs) == ["benchmark", "session", "train"]
        assert {key: ref() is None for key, ref in refs.items()} == dict.fromkeys(refs, True)
        assert sut.predict(np.arange(4)).shape == (4,)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_no_adapter_attribute_is_a_session_or_a_benchmark(self, name, request):
        from repro.suite import Benchmark, TrainingSession

        sut = load_sut(request.getfixturevalue(self.CASES[name][0]))
        kept = vars(sut.adapter).values()
        assert not [v for v in kept if isinstance(v, (TrainingSession, Benchmark))]

    def test_every_pool_id_is_the_argmax_of_the_session_logits(self, resnet_artifact):
        from repro.core.artifacts import load_run_result

        sut = load_sut(resnet_artifact)
        result = load_run_result(resnet_artifact)
        bench = create_benchmark("image_classification")
        bench.prepare_data()
        session = bench.create_session(result.seed, result.hyperparameters)
        session.model.load_state_dict(result.model_state)
        session.model.eval()
        images, _ = bench.data.val.arrays
        assert sut.pool_size == len(images) == 400
        np.testing.assert_array_equal(sut.predict(np.arange(400)),
                                      np.argmax(session.logits(images), axis=1))


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
