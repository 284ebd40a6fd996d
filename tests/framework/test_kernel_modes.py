"""Bit-identity of the ``reuse``/``fused`` kernel modes vs the naive path.

The kernel modes are the framework's executable version of §2.2.4: the
arena/fused implementations must be *mathematically identical* to the
reference, not merely close — so every assertion here is ``array_equal``
(bitwise), never ``allclose``.  Shapes are chosen to be awkward on
purpose: stride 2, asymmetric SAME padding, batches that don't divide the
dataset, inputs that aren't square.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.framework import (
    ArrayDataset,
    BatchNorm1d,
    BatchNorm2d,
    DataLoader,
    LayerNorm,
    Parameter,
    SGD,
    Tensor,
    avg_pool2d,
    conv2d,
    conv2d_bias_relu,
    conv2d_same,
    inference_mode,
    kernel_mode,
    linear_bias_act,
    max_pool2d,
    no_grad,
    set_kernel_mode,
    use_kernel_mode,
)
from repro.framework.workspace import arena

RNG = np.random.default_rng(0)

MODES = ("reuse", "fused", "compiled")


def _conv_case(n=5, c=3, f=4, h=9, w=7, k=3, dtype=np.float32):
    x = RNG.normal(size=(n, c, h, w)).astype(dtype)
    wt = (RNG.normal(size=(f, c, k, k)) * 0.2).astype(dtype)
    b = RNG.normal(size=f).astype(dtype)
    return x, wt, b


def _run_conv(mode, fn, x, wt, b, **kwargs):
    with use_kernel_mode(mode):
        xt = Tensor(x.copy(), requires_grad=True)
        wp = Parameter(wt.copy())
        bp = Parameter(b.copy()) if b is not None else None
        out = fn(xt, wp, bp, **kwargs)
        out.backward(np.ones_like(out.data))
        return out.data, xt.grad, wp.grad, None if bp is None else bp.grad


def _assert_identical(ref, got, context):
    for name, a, c in zip(("out", "x.grad", "w.grad", "b.grad"), ref, got):
        if a is None:
            assert c is None
            continue
        assert np.array_equal(a, c), f"{context}: {name} diverged"


class TestConvBitIdentity:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1), (2, 0), (3, 2)])
    def test_conv2d_matches_naive(self, mode, stride, pad):
        x, wt, b = _conv_case()
        ref = _run_conv("naive", conv2d, x, wt, b, stride=stride, pad=pad)
        got = _run_conv(mode, conv2d, x, wt, b, stride=stride, pad=pad)
        _assert_identical(ref, got, f"conv2d[{mode},s{stride},p{pad}]")

    @pytest.mark.parametrize("mode", MODES)
    def test_conv2d_no_bias(self, mode):
        x, wt, _ = _conv_case()
        ref = _run_conv("naive", conv2d, x, wt, None, stride=1, pad=1)
        got = _run_conv(mode, conv2d, x, wt, None, stride=1, pad=1)
        _assert_identical(ref, got, f"conv2d-nobias[{mode}]")

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("convention", ["tf", "torch_port"])
    def test_conv2d_same_asymmetric_pad(self, mode, convention):
        # Stride 2 over even extents forces odd total padding — the
        # asymmetric case that exercises offset bookkeeping hardest.
        x, wt, b = _conv_case(n=3, h=8, w=8)
        ref = _run_conv("naive", conv2d_same, x, wt, b, stride=2,
                        convention=convention)
        got = _run_conv(mode, conv2d_same, x, wt, b, stride=2,
                        convention=convention)
        _assert_identical(ref, got, f"conv2d_same[{mode},{convention}]")

    @pytest.mark.parametrize("mode", MODES)
    def test_conv2d_float64(self, mode):
        x, wt, b = _conv_case(dtype=np.float64)
        ref = _run_conv("naive", conv2d, x, wt, b, stride=1, pad=1)
        got = _run_conv(mode, conv2d, x, wt, b, stride=1, pad=1)
        _assert_identical(ref, got, f"conv2d-f64[{mode}]")

    def test_mixed_dtype_falls_back(self):
        # float32 input with float64 weights: no uniform dtype, so the
        # arena path must defer to the reference (values still agree).
        x, wt, b = _conv_case()
        ref = _run_conv("naive", conv2d, x, wt.astype(np.float64), b, stride=1, pad=1)
        got = _run_conv("fused", conv2d, x, wt.astype(np.float64), b, stride=1, pad=1)
        _assert_identical(ref, got, "conv2d-mixed-dtype")

    @pytest.mark.parametrize("mode", MODES)
    def test_conv2d_bias_relu_matches_composition(self, mode):
        x, wt, b = _conv_case()
        with use_kernel_mode("naive"):
            xt = Tensor(x.copy(), requires_grad=True)
            wp, bp = Parameter(wt.copy()), Parameter(b.copy())
            out = conv2d(xt, wp, bp, stride=1, pad=1).relu()
            out.backward(np.ones_like(out.data))
            ref = (out.data, xt.grad, wp.grad, bp.grad)
        got = _run_conv(mode, conv2d_bias_relu, x, wt, b, stride=1, pad=1)
        _assert_identical(ref, got, f"conv2d_bias_relu[{mode}]")

    def test_eval_mode_releases_all_scratch(self):
        x, wt, b = _conv_case()
        ws = arena()
        with use_kernel_mode("fused"), no_grad():
            before = ws.live_count
            conv2d_bias_relu(Tensor(x), Parameter(wt), Parameter(b), stride=1, pad=1)
            assert ws.live_count == before


class TestPoolBitIdentity:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("kernel,stride", [(2, None), (3, 1), (2, 2)])
    @pytest.mark.parametrize("pool", [max_pool2d, avg_pool2d])
    def test_pool_matches_naive(self, mode, kernel, stride, pool):
        x = RNG.normal(size=(4, 3, 8, 6)).astype(np.float32)
        results = {}
        for m in ("naive", mode):
            with use_kernel_mode(m):
                xt = Tensor(x.copy(), requires_grad=True)
                out = pool(xt, kernel, stride)
                out.backward(np.ones_like(out.data))
                results[m] = (out.data, xt.grad)
        for a, c in zip(results["naive"], results[mode]):
            assert np.array_equal(a, c)


class TestLinearBitIdentity:
    @pytest.mark.parametrize("shape", [(6, 5), (2, 3, 5)])
    @pytest.mark.parametrize("act", ["none", "relu"])
    @pytest.mark.parametrize("use_bias", [True, False])
    def test_linear_bias_act_matches_naive(self, shape, act, use_bias):
        x = RNG.normal(size=shape).astype(np.float64)
        wt = RNG.normal(size=(4, shape[-1])).astype(np.float64)
        b = RNG.normal(size=4).astype(np.float64) if use_bias else None
        g = RNG.normal(size=shape[:-1] + (4,)).astype(np.float64)
        results = {}
        for mode in ("naive", "fused"):
            with use_kernel_mode(mode):
                xt = Tensor(x.copy(), requires_grad=True)
                wp = Parameter(wt.copy())
                bp = Parameter(b.copy()) if use_bias else None
                out = linear_bias_act(xt, wp, bp, act=act)
                out.backward(g.copy())
                results[mode] = (out.data, xt.grad, wp.grad,
                                 None if bp is None else bp.grad)
        _assert_identical(results["naive"], results["fused"],
                          f"linear[{shape},{act},bias={use_bias}]")

    def test_invalid_act_raises(self):
        with pytest.raises(ValueError):
            linear_bias_act(Tensor(np.zeros((2, 3))), Parameter(np.zeros((4, 3))),
                            act="gelu")


def _nhwc_backed(x):
    """Same values, NHWC memory: the layout ``naive`` conv2d hands batch norm."""
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


# (layer factory, feature count, input shape)
_NORM_CASES = {
    "bn2d": (BatchNorm2d, 3, (5, 3, 7, 5)),
    "bn2d-n1": (BatchNorm2d, 4, (1, 4, 5, 5)),      # self-play: batch of one
    "bn2d-1x1": (BatchNorm2d, 3, (1, 3, 1, 1)),     # nothing to reduce
    "bn1d": (BatchNorm1d, 5, (7, 5)),
    "bn1d-n1": (BatchNorm1d, 4, (1, 4)),
    "ln": (LayerNorm, 7, (3, 5, 7)),
    "ln-2d": (LayerNorm, 6, (1, 6)),
}


def _norm_layer(case, dtype, seed=11):
    cls, features, shape = _NORM_CASES[case]
    rng = np.random.default_rng(seed)
    layer = cls(features)
    layer.gamma.data = rng.normal(1.0, 0.3, size=features).astype(dtype)
    layer.beta.data = rng.normal(0.0, 0.3, size=features).astype(dtype)
    x = rng.normal(0.5, 2.0, size=shape).astype(dtype)
    g = rng.normal(size=shape).astype(dtype)
    return layer, x, g


def _running_stats(layer):
    if isinstance(layer, LayerNorm):
        return ()
    return layer.running_mean, layer.running_var


def _run_norm(mode, case, *, dtype=np.float32, training=True, layout=None,
              consumer=None, warm=False):
    """Forward + backward of one normalization layer under ``mode``.

    ``x`` is an interior node (so its gradient accumulates rather than
    lands on a leaf); ``consumer`` gives it a second reader whose adjoint
    reaches ``x.grad`` before (``"first"``) or after (``"last"``) the
    layer's, the two orders a residual or pre-norm block produces.
    """
    with use_kernel_mode(mode):
        layer, x, g = _norm_layer(case, dtype)
        if layout is not None:
            x, g = layout(x), layout(g)
        if warm:  # running statistics of the input's dtype, not float32 ones/zeros
            layer(Tensor(x))
        layer.train(training)
        leaf = Tensor(x, requires_grad=True)
        h = leaf * 1.5
        out = layer(h)
        if consumer == "first":
            out = h.tanh() * out
        elif consumer == "last":
            out = out * h.tanh()
        out.backward(g)
        return (out.data, leaf.grad, layer.gamma.grad, layer.beta.grad,
                *_running_stats(layer))


def _assert_norm_identical(ref, got, context):
    names = ("out", "x.grad", "gamma.grad", "beta.grad", "running_mean", "running_var")
    assert len(ref) == len(got)
    for name, a, c in zip(names, ref, got):
        assert a.dtype == c.dtype, f"{context}: {name} dtype {c.dtype} != {a.dtype}"
        assert np.array_equal(a, c), f"{context}: {name} diverged"


class TestNormalizeBitIdentity:
    """The single-node ``normalize`` kernel vs the composed graph.

    ``fused``/``compiled`` run the kernel, ``naive``/``reuse`` the
    composition; output, all three gradients and the running statistics
    must agree to the bit.
    """

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("case", sorted(_NORM_CASES))
    def test_matches_naive(self, mode, training, case):
        ref = _run_norm("naive", case, training=training)
        got = _run_norm(mode, case, training=training)
        _assert_norm_identical(ref, got, f"{case}[{mode},train={training}]")

    @pytest.mark.parametrize("consumer", ["first", "last"])
    @pytest.mark.parametrize("case", sorted(_NORM_CASES))
    def test_accumulation_order_with_second_consumer(self, consumer, case):
        ref = _run_norm("naive", case, consumer=consumer)
        got = _run_norm("fused", case, consumer=consumer)
        _assert_norm_identical(ref, got, f"{case}[consumer {consumer}]")

    @pytest.mark.parametrize("training,warm", [(True, False), (False, True), (False, False)])
    @pytest.mark.parametrize("case", sorted(_NORM_CASES))
    def test_float64(self, training, warm, case):
        # Eval with cold (float32) running statistics against float64 input
        # is the mixed-dtype case that must take the composed path.
        kwargs = dict(dtype=np.float64, training=training, warm=warm)
        ref = _run_norm("naive", case, **kwargs)
        got = _run_norm("fused", case, **kwargs)
        assert got[0].dtype == np.float64
        _assert_norm_identical(ref, got, f"{case}-f64[train={training},warm={warm}]")

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("case", ["bn2d", "bn2d-n1"])
    def test_nhwc_backed_input(self, training, case):
        kwargs = dict(training=training, layout=_nhwc_backed, consumer="last")
        ref = _run_norm("naive", case, **kwargs)
        got = _run_norm("fused", case, **kwargs)
        _assert_norm_identical(ref, got, f"{case}-nhwc[train={training}]")

    def test_transposed_layer_norm_input(self):
        swap = lambda a: np.ascontiguousarray(a.transpose(1, 0, 2)).transpose(1, 0, 2)
        ref = _run_norm("naive", "ln", layout=swap)
        got = _run_norm("fused", "ln", layout=swap)
        _assert_norm_identical(ref, got, "ln-transposed")

    @pytest.mark.parametrize("context", [no_grad, inference_mode])
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("case", sorted(_NORM_CASES))
    def test_forward_only(self, context, training, case):
        results = {}
        for mode in ("naive", "fused"):
            with use_kernel_mode(mode):
                layer, x, _ = _norm_layer(case, np.float32)
                layer.train(training)
                with context():
                    first = layer(Tensor(x))
                    second = layer(Tensor(x))  # self-play: stats move per call
                assert not second.requires_grad and second._backward is None
                results[mode] = (first.data, second.data, *_running_stats(layer))
        for a, c in zip(results["naive"], results["fused"]):
            assert np.array_equal(a, c)

    def test_frozen_input_still_trains_scale_and_shift(self):
        results = {}
        for mode in ("naive", "fused"):
            with use_kernel_mode(mode):
                layer, x, g = _norm_layer("bn2d", np.float32)
                out = layer(Tensor(x))
                out.backward(g)
                results[mode] = (out.data, layer.gamma.grad, layer.beta.grad)
        for a, c in zip(results["naive"], results["fused"]):
            assert np.array_equal(a, c)

    def test_kernel_is_one_node(self):
        with use_kernel_mode("fused"):
            layer, x, _ = _norm_layer("bn2d", np.float32)
            leaf = Tensor(x, requires_grad=True)
            out = layer(leaf)
        assert out._prev == (leaf, layer.gamma, layer.beta)

    @pytest.mark.parametrize("ref_mode", ["reuse", "fused"])
    def test_compiled_step_executor_horizon(self, ref_mode):
        """conv → BN → relu → pool → LN → linear, trained for several steps
        through the step executor: replayed plans with the kernel inside
        match eager execution of the composed graph (``reuse``; ``naive``
        conv2d returns an NHWC-backed view, which moves the batch
        statistics' last bits whatever the normalization code)."""
        from repro.framework import Conv2d, Linear
        from repro.framework.compile import StepExecutor

        def train(mode):
            with use_kernel_mode(mode):
                rng = np.random.default_rng(5)
                conv = Conv2d(3, 4, 3, rng, padding=1, bias=False)
                bn, ln, fc = BatchNorm2d(4), LayerNorm(4), Linear(4, 2, rng)
                params = [*conv.parameters(), *bn.parameters(), *ln.parameters(),
                          *fc.parameters()]
                opt = SGD(params, lr=0.05, momentum=0.9)
                executor = StepExecutor()
                data = np.random.default_rng(6)
                trace = []
                for _ in range(5):
                    batch = data.normal(size=(6, 3, 5, 5)).astype(np.float32)

                    def loss_fn():
                        h = bn(conv(Tensor(batch))).relu()
                        y = fc(ln(h.mean(axis=(2, 3))))
                        return (y * y).mean()

                    def zero():
                        for p in params:
                            p.grad = None

                    loss = executor.step(loss_fn, pre_backward=zero)
                    trace.append([loss.data.copy(), *(p.grad.copy() for p in params)])
                    opt.step()
                trace.append([p.data.copy() for p in params]
                             + [bn.running_mean, bn.running_var])
            return trace

        ref, got = train(ref_mode), train("compiled")
        for step, (r, g) in enumerate(zip(ref, got)):
            for i, (a, c) in enumerate(zip(r, g)):
                assert np.array_equal(a, c), f"step {step} item {i} diverged"


class TestSGDBitIdentity:
    @pytest.mark.parametrize("style", ["torch", "caffe"])
    @pytest.mark.parametrize("momentum,wd", [(0.0, 0.0), (0.9, 0.0), (0.9, 1e-3),
                                             (0.0, 1e-3)])
    def test_sgd_matches_naive(self, style, momentum, wd):
        p0 = RNG.normal(size=(7, 5)).astype(np.float32)
        grads = [RNG.normal(size=(7, 5)).astype(np.float32) for _ in range(4)]
        results = {}
        for mode in ("naive", "fused"):
            with use_kernel_mode(mode):
                p = Parameter(p0.copy())
                opt = SGD([p], lr=0.1, momentum=momentum, weight_decay=wd,
                          momentum_style=style)
                for g in grads:
                    p.grad = g.copy()
                    opt.step()
                results[mode] = p.data
        assert np.array_equal(results["naive"], results["fused"])


class TestDataLoaderModes:
    def test_reuse_buffers_same_values(self):
        images = RNG.normal(size=(20, 2, 4, 4)).astype(np.float32)
        labels = np.arange(20)
        ds = ArrayDataset(images, labels)
        with use_kernel_mode("naive"):
            ref = [(x.copy(), y.copy())
                   for x, y in DataLoader(ds, 8, seed=3, drop_last=True)]
        with use_kernel_mode("fused"):
            got = [(x.copy(), y.copy())
                   for x, y in DataLoader(ds, 8, seed=3, drop_last=True,
                                          reuse_buffers=True)]
        for (rx, ry), (gx, gy) in zip(ref, got):
            assert np.array_equal(rx, gx) and np.array_equal(ry, gy)

    def test_reuse_buffers_recycles_storage(self):
        ds = ArrayDataset(np.arange(32, dtype=np.float32))
        with use_kernel_mode("fused"):
            loader = DataLoader(ds, 8, seed=0, reuse_buffers=True)
            batches = list(iter(loader))
        assert all(b is batches[0] for b in batches)

    def test_zero_copy_views_when_sequential(self):
        arr = np.arange(12, dtype=np.float32)
        ds = ArrayDataset(arr)
        with use_kernel_mode("fused"):
            batch = next(iter(DataLoader(ds, 4, shuffle=False)))
        assert np.shares_memory(batch, arr)
        with use_kernel_mode("naive"):
            batch = next(iter(DataLoader(ds, 4, shuffle=False)))
        assert not np.shares_memory(batch, arr)


class TestConfig:
    def test_default_mode_is_valid(self):
        assert kernel_mode() in ("naive", "reuse", "fused", "compiled")

    def test_set_and_restore(self):
        original = kernel_mode()
        previous = set_kernel_mode("naive")
        assert previous == original
        assert kernel_mode() == "naive"
        set_kernel_mode(original)

    def test_use_kernel_mode_restores_on_error(self):
        original = kernel_mode()
        with pytest.raises(RuntimeError):
            with use_kernel_mode("naive"):
                raise RuntimeError("boom")
        assert kernel_mode() == original

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            set_kernel_mode("turbo")
