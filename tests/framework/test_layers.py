"""Layer behaviour: shapes, train/eval semantics, state dicts, gradients."""

import numpy as np
import pytest

from repro.framework import (
    BatchNorm1d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Embedding,
    Flatten,
    LayerNorm,
    Linear,
    Module,
    Parameter,
    ReLU,
    Sequential,
    Tensor,
)
from repro.framework.fused import normalize
from repro.framework.layers import recorded_moments
from tests.helpers import check_gradient

RNG = np.random.default_rng(11)


class TestLinear:
    def test_shapes(self):
        layer = Linear(8, 3, RNG)
        out = layer(Tensor(RNG.normal(size=(5, 8)).astype(np.float32)))
        assert out.shape == (5, 3)

    def test_no_bias(self):
        layer = Linear(4, 2, RNG, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_batched_3d_input(self):
        layer = Linear(6, 4, RNG)
        out = layer(Tensor(RNG.normal(size=(2, 5, 6)).astype(np.float32)))
        assert out.shape == (2, 5, 4)

    def test_gradient_through_layer(self):
        layer = Linear(4, 3, RNG)
        layer.weight.data = layer.weight.data.astype(np.float64)
        layer.bias.data = layer.bias.data.astype(np.float64)
        check_gradient(lambda x: layer(x), RNG.normal(size=(2, 4)))


class TestBatchNorm:
    def test_normalizes_batch(self):
        bn = BatchNorm2d(3)
        x = Tensor(RNG.normal(loc=5.0, scale=3.0, size=(16, 3, 4, 4)))
        out = bn(x)
        np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)), 0.0, atol=1e-5)
        np.testing.assert_allclose(out.data.std(axis=(0, 2, 3)), 1.0, atol=1e-2)

    def test_running_stats_updated_in_train(self):
        bn = BatchNorm2d(2, momentum=0.5)
        x = Tensor(np.ones((4, 2, 3, 3)) * 10.0)
        bn(x)
        assert np.all(bn.running_mean > 0)

    def test_eval_uses_running_stats(self):
        bn = BatchNorm2d(2)
        for _ in range(50):
            bn(Tensor(RNG.normal(loc=2.0, size=(32, 2, 2, 2))))
        bn.eval()
        x = Tensor(np.full((1, 2, 2, 2), 2.0))
        out = bn(x)
        np.testing.assert_allclose(out.data, 0.0, atol=0.3)

    def test_eval_no_stat_update(self):
        bn = BatchNorm2d(2).eval()
        before = bn.running_mean.copy()
        bn(Tensor(RNG.normal(loc=9.0, size=(8, 2, 2, 2))))
        np.testing.assert_allclose(bn.running_mean, before)

    def test_bn1d(self):
        bn = BatchNorm1d(4)
        out = bn(Tensor(RNG.normal(loc=3.0, size=(32, 4))))
        np.testing.assert_allclose(out.data.mean(axis=0), 0.0, atol=1e-6)

    def test_gamma_beta_trainable(self):
        bn = BatchNorm2d(2)
        x = Tensor(RNG.normal(size=(4, 2, 3, 3)), requires_grad=True)
        bn(x).sum().backward()
        assert bn.gamma.grad is not None
        assert bn.beta.grad is not None


class TestNormalizationInputChecks:
    """A misfit input raises one ``ValueError`` naming the expected and the
    actual shape before any statistic, running average or
    ``recorded_moments`` entry is touched, on the kernel and on its reference."""

    @pytest.mark.parametrize("mode", ("naive", "fused"))
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("layer,shape,match", [
        (lambda: BatchNorm2d(16), (2, 32, 3, 3), r"16 features, got shape \(2, 32, 3, 3\)"),
        (lambda: BatchNorm2d(4), (2, 4, 3), r"4-D input with 4 features, got shape \(2, 4, 3\)"),
        (lambda: BatchNorm2d(4), (4,), r"4-D input"),
        (lambda: BatchNorm1d(4), (8, 5), r"4 features, got shape \(8, 5\)"),
        (lambda: BatchNorm1d(4), (8, 4, 2), r"2-D input with 4 features"),
        (lambda: LayerNorm(6), (3, 5), r"6 features, got shape \(3, 5\)"),
        (lambda: LayerNorm(6), (), r"6 features, got shape \(\)"),
    ])
    def test_feature_mismatch(self, reference_kernels, mode, training, layer, shape, match):
        norm = layer().train(training)
        state = {name: getattr(norm, name).copy()
                 for name in ("running_mean", "running_var") if hasattr(norm, name)}
        with reference_kernels(mode == "naive"), recorded_moments() as log:
            with pytest.raises(ValueError, match=match):
                norm(Tensor(np.ones(shape, dtype=np.float32)))
        assert log == []
        for name, before in state.items():
            assert np.array_equal(getattr(norm, name), before)

    @pytest.mark.parametrize("mode", ("naive", "fused"))
    def test_residual_of_another_shape(self, reference_kernels, mode):
        bn = BatchNorm2d(3, activation="relu")
        x = Tensor(np.ones((2, 3, 4, 4), dtype=np.float32))
        with reference_kernels(mode == "naive"), recorded_moments() as log:
            with pytest.raises(ValueError, match=r"residual shape \(2, 3, 4, 1\)"):
                bn(x, residual=Tensor(np.ones((2, 3, 4, 1), dtype=np.float32)))
        assert log == [] and not bn.running_mean.any()

    def test_unknown_activation(self):
        with pytest.raises(ValueError, match="gelu"):
            BatchNorm2d(3, activation="gelu")
        x = Tensor(np.ones((2, 3), dtype=np.float32))
        bn = BatchNorm1d(3)
        with pytest.raises(ValueError, match="gelu"):
            normalize(x, (0,), bn.gamma, bn.beta, 1e-5, (1, 3), act="gelu")


class TestLayerNorm:
    def test_normalizes_features(self):
        ln = LayerNorm(8)
        x = Tensor(RNG.normal(loc=4.0, scale=2.0, size=(5, 8)))
        out = ln(x)
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-6)

    def test_gradient(self):
        ln = LayerNorm(6)
        ln.gamma.data = ln.gamma.data.astype(np.float64)
        ln.beta.data = ln.beta.data.astype(np.float64)
        check_gradient(lambda x: ln(x), RNG.normal(size=(3, 6)))

    def test_independent_of_batch(self):
        # LayerNorm of a row must not depend on the other rows.
        ln = LayerNorm(5)
        x = RNG.normal(size=(4, 5))
        full = ln(Tensor(x)).data
        solo = ln(Tensor(x[1:2])).data
        np.testing.assert_allclose(full[1:2], solo, atol=1e-7)


class TestEmbedding:
    def test_lookup(self):
        emb = Embedding(10, 4, RNG)
        out = emb(np.array([1, 5, 1]))
        assert out.shape == (3, 4)
        np.testing.assert_allclose(out.data[0], out.data[2])

    def test_2d_ids(self):
        emb = Embedding(10, 4, RNG)
        out = emb(np.array([[1, 2], [3, 4]]))
        assert out.shape == (2, 2, 4)

    def test_gradient_scatters(self):
        emb = Embedding(5, 3, RNG)
        out = emb(np.array([2, 2, 4]))
        out.sum().backward()
        np.testing.assert_allclose(emb.weight.grad[2], 2.0)
        np.testing.assert_allclose(emb.weight.grad[4], 1.0)
        np.testing.assert_allclose(emb.weight.grad[0], 0.0)

    def test_out_of_range_raises(self):
        emb = Embedding(5, 3, RNG)
        with pytest.raises(IndexError):
            emb(np.array([5]))

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8, np.int64])
    def test_every_row_and_no_row_at_any_integer_width(self, dtype):
        emb = Embedding(5, 3, RNG)
        np.testing.assert_array_equal(emb(np.arange(5, dtype=dtype)).data, emb.weight.data)
        assert emb(np.array([], dtype=dtype)).shape == (0, 3)

    @pytest.mark.parametrize("rows, ids", [
        (5, np.array([0, -1], dtype=np.int32)),
        (5, np.array([-1], dtype=np.int64)),
        (5, np.array([5], dtype=np.uint8)),
        (5, np.array([2, 5], dtype=np.int32)),
        (5, np.array([[5]], dtype=np.int64)),
        (200, np.array([-128], dtype=np.int8)),  # 128 as a same-width unsigned
    ], ids=["neg-int32", "neg-int64", "n-uint8", "n-int32", "n-2d", "neg-int8"])
    def test_negative_or_n_raises_naming_the_range(self, rows, ids):
        emb = Embedding(rows, 3, RNG)
        with pytest.raises(IndexError) as info:
            emb(ids)
        assert str(info.value) == f"embedding ids out of range [0, {rows})"


class TestDropoutLayer:
    def test_train_vs_eval(self):
        drop = Dropout(0.5, np.random.default_rng(0))
        x = Tensor(np.ones((100, 100)))
        train_out = drop(x)
        assert (train_out.data == 0).sum() > 1000
        drop.eval()
        eval_out = drop(x)
        np.testing.assert_allclose(eval_out.data, 1.0)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            Dropout(1.0, RNG)


class TestModuleSystem:
    def _net(self):
        rng = np.random.default_rng(0)
        return Sequential(Linear(4, 8, rng), ReLU(), Linear(8, 2, rng))

    def test_parameters_discovered(self):
        net = self._net()
        assert len(net.parameters()) == 4  # 2 weights + 2 biases

    def test_named_parameters_stable_names(self):
        names = [n for n, _ in self._net().named_parameters()]
        assert names == ["layers.0.weight", "layers.0.bias", "layers.2.weight", "layers.2.bias"]

    def test_state_dict_roundtrip(self):
        net1, net2 = self._net(), self._net()
        net2.layers[0].weight.data += 1.0
        net2.load_state_dict(net1.state_dict())
        x = Tensor(RNG.normal(size=(3, 4)).astype(np.float32))
        np.testing.assert_allclose(net1(x).data, net2(x).data)

    def test_state_dict_missing_key_raises(self):
        net = self._net()
        state = net.state_dict()
        del state["layers.0.weight"]
        with pytest.raises(KeyError):
            net.load_state_dict(state)

    def test_state_dict_shape_mismatch_raises(self):
        net = self._net()
        state = net.state_dict()
        state["layers.0.weight"] = np.zeros((1, 1), dtype=np.float32)
        with pytest.raises(ValueError):
            net.load_state_dict(state)

    def _bn_net(self):
        rng = np.random.default_rng(0)
        return Sequential(Linear(4, 3, rng), BatchNorm1d(3), ReLU(), Linear(3, 2, rng))

    def test_state_dict_carries_batch_norm_buffers(self):
        net = self._bn_net()
        net(Tensor(RNG.normal(loc=4.0, size=(16, 4)).astype(np.float32)))
        bn = net.layers[1]
        state = net.state_dict()
        assert list(state)[-2:] == ["layers.1.running_mean", "layers.1.running_var"]
        # Read at call time: the training forward rebound both arrays.
        assert state["layers.1.running_mean"].tobytes() == bn.running_mean.tobytes()
        assert state["layers.1.running_var"].tobytes() == bn.running_var.tobytes()
        assert state["layers.1.running_mean"] is not bn.running_mean

    def test_buffers_round_trip_into_the_eval_forward(self):
        trained, fresh = self._bn_net(), self._bn_net()
        for _ in range(3):
            trained(Tensor(RNG.normal(loc=4.0, size=(16, 4)).astype(np.float32)))
        fresh.load_state_dict(trained.state_dict())
        assert fresh.layers[1].running_mean.tobytes() == trained.layers[1].running_mean.tobytes()
        assert fresh.layers[1].running_var.dtype == np.float32
        x = Tensor(RNG.normal(size=(5, 4)).astype(np.float32))
        assert fresh.eval()(x).data.tobytes() == trained.eval()(x).data.tobytes()

    @pytest.mark.parametrize("buffer", ["layers.1.running_mean", "layers.1.running_var"])
    def test_missing_buffer_raises_naming_it(self, buffer):
        net = self._bn_net()
        state = net.state_dict()
        del state[buffer]
        before = net.layers[1].running_var
        with pytest.raises(KeyError, match=buffer):
            net.load_state_dict(state)
        assert net.layers[1].running_var is before

    def test_buffer_shape_mismatch_raises(self):
        net = self._bn_net()
        state = net.state_dict()
        state["layers.1.running_var"] = np.ones(4, dtype=np.float32)
        with pytest.raises(ValueError, match="layers.1.running_var"):
            net.load_state_dict(state)

    def test_train_eval_propagates(self):
        rng = np.random.default_rng(0)
        net = Sequential(Linear(2, 2, rng), Dropout(0.5, rng))
        net.eval()
        assert not net.layers[1].training
        net.train()
        assert net.layers[1].training

    def test_zero_grad(self):
        net = self._net()
        x = Tensor(RNG.normal(size=(3, 4)).astype(np.float32))
        net(x).sum().backward()
        assert net.parameters()[0].grad is not None
        net.zero_grad()
        assert all(p.grad is None for p in net.parameters())

    def test_num_parameters(self):
        net = self._net()
        assert net.num_parameters() == 4 * 8 + 8 + 8 * 2 + 2

    def test_nested_module_discovery(self):
        class Outer(Module):
            def __init__(self):
                super().__init__()
                rng = np.random.default_rng(0)
                self.block = Sequential(Linear(2, 2, rng))
                self.head = Linear(2, 1, rng)
                self.scale = Parameter(np.ones(1, dtype=np.float32))

        names = {n for n, _ in Outer().named_parameters()}
        assert "block.layers.0.weight" in names
        assert "head.weight" in names
        assert "scale" in names

    def test_flatten(self):
        out = Flatten()(Tensor(RNG.normal(size=(2, 3, 4))))
        assert out.shape == (2, 12)

    def test_conv2d_layer(self):
        conv = Conv2d(3, 5, 3, RNG, stride=1, padding=1)
        out = conv(Tensor(RNG.normal(size=(2, 3, 8, 8)).astype(np.float32)))
        assert out.shape == (2, 5, 8, 8)
