"""Bit-identity of the ``fused`` kernel mode vs the naive path.

The kernel modes are the framework's executable version of §2.2.4: the
fused implementations must be *mathematically identical* to the
reference, not merely close — so every assertion here is ``array_equal``
(bitwise), never ``allclose``.  Shapes are chosen to be awkward on
purpose: stride 2, asymmetric SAME padding, batches that don't divide the
dataset, inputs that aren't square.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.framework import (
    BatchNorm1d,
    BatchNorm2d,
    KERNEL_MODES,
    LSTM,
    LSTMCell,
    LayerNorm,
    MultiHeadAttention,
    Parameter,
    SGD,
    Tensor,
    conv2d,
    conv2d_bias_relu,
    conv2d_same,
    inference_mode,
    kernel_mode,
    linear_bias_act,
    lstm_cell,
    no_grad,
    set_kernel_mode,
    use_kernel_mode,
)
from repro.framework import conv as conv_module
from repro.framework.fused import attention

RNG = np.random.default_rng(0)

MODES = ("fused",)


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


@pytest.fixture
def poisoned_empty(monkeypatch):
    """A context in which ``np.empty`` hands out garbage, not fresh pages.

    Every byte is 0xFF: NaN in a float array, -1 in an int one.  A kernel
    that reads scratch before writing it then differs from ``naive``.
    """
    real_empty = np.empty

    def poisoned(*args, **kwargs):
        out = real_empty(*args, **kwargs)
        out.reshape(-1).view(np.uint8)[...] = 0xFF
        return out

    @contextlib.contextmanager
    def active():
        with monkeypatch.context() as patch:
            patch.setattr(np, "empty", poisoned)
            yield

    return active


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
        # fused path must defer to the reference (values still agree).
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


# (conv_case kwargs, conv kwargs): shapes that straddle the fold block.
_BLOCKED_CASES = {
    "3x3-s1-p1": (dict(), dict(stride=1, pad=1)),
    "3x3-s2-p1": (dict(), dict(stride=2, pad=1)),
    "3x3-s1-p0": (dict(), dict(stride=1, pad=0)),
    "1x1": (dict(k=1), dict(stride=1, pad=0)),
    "1x1-s2": (dict(k=1), dict(stride=2, pad=0)),
    "5x5-p2": (dict(k=5), dict(stride=1, pad=2)),
    "c1": (dict(c=1), dict(stride=1, pad=1)),
    "n1": (dict(n=1), dict(stride=1, pad=1)),
    "n2": (dict(n=2), dict(stride=2, pad=1)),
    "f64": (dict(dtype=np.float64), dict(stride=1, pad=1)),
}


def _run_conv_seeded(mode, fn, x, wt, b, **kwargs):
    """Like ``_run_conv``, but ``x`` is used as given (layout included) and
    the upstream gradient is random — the same draw on every call."""
    with use_kernel_mode(mode):
        xt = Tensor(x, requires_grad=True)
        wp, bp = Parameter(wt.copy()), Parameter(b.copy())
        out = fn(xt, wp, bp, **kwargs)
        out.backward(np.random.default_rng(7).normal(size=out.shape).astype(out.dtype))
        return out.data, xt.grad, wp.grad, bp.grad


class TestBlockedUnfoldFold:
    """The sample-blocked col2im passes of the fold are invisible in the bits.

    Only the fold is blocked: the unfold is one gather (``TestGatherUnfold``)
    and ignores ``_BLOCK_BYTES``, so these cases pin the fold and the whole
    conv around it.  ``_BLOCK_BYTES`` is patched down so that these small
    tensors take the multi-block path the suite's 9 MB patch-gradient
    matrices take: ``1`` makes every block one sample (a per-sample slab
    larger than the block), the two-sample setting leaves a short last
    block (5 = 2 + 2 + 1).
    """

    @pytest.fixture(params=["one-sample", "two-samples"])
    def small_blocks(self, request, monkeypatch):
        def patch(x, wt, stride, pad):
            if request.param == "one-sample":
                monkeypatch.setattr(conv_module, "_BLOCK_BYTES", 1)
                return
            oh = (x.shape[2] + 2 * pad - wt.shape[2]) // stride + 1
            ow = (x.shape[3] + 2 * pad - wt.shape[3]) // stride + 1
            per_sample = oh * ow * wt[0].size * x.itemsize
            monkeypatch.setattr(conv_module, "_BLOCK_BYTES", 2 * per_sample)
            assert conv_module._block(5, per_sample) == 2
        return patch

    def test_block_is_whole_batch_when_it_fits(self):
        # Go boards and single serving queries: one block of kh*kw folds.
        assert conv_module._block(1, 32 * 81 * 9 * 4) == 1
        assert conv_module._block(8, 9 * 9 * 17 * 9 * 4) == 8
        assert conv_module._block(0, 0) == 1  # empty batch: range() needs a step
        # The dominant suite conv, (64,16,16,16) 3x3: 144 KiB a sample.
        assert conv_module._block(64, 16 * 16 * 16 * 9 * 4) == 3
        assert conv_module._block(2, 10 * conv_module._BLOCK_BYTES) == 1

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("fn", (conv2d, conv2d_bias_relu), ids=lambda f: f.__name__)
    @pytest.mark.parametrize("case", sorted(_BLOCKED_CASES))
    def test_matches_naive(self, small_blocks, mode, fn, case):
        case_kwargs, conv_kwargs = _BLOCKED_CASES[case]
        x, wt, b = _conv_case(**case_kwargs)
        ref = _run_conv_seeded("naive", fn, x.copy(), wt, b, **conv_kwargs)
        small_blocks(x, wt, **conv_kwargs)
        got = _run_conv_seeded(mode, fn, x.copy(), wt, b, **conv_kwargs)
        _assert_identical(ref, got, f"blocked {fn.__name__}[{mode},{case}]")
        assert all(a.dtype == c.dtype for a, c in zip(ref, got))

    @pytest.mark.parametrize("layout", ("nhwc", "sliced"))
    def test_strided_input(self, small_blocks, layout):
        x, wt, b = _conv_case()
        if layout == "nhwc":
            xs = _nhwc_backed(x)
        else:
            wide = RNG.normal(size=(5, 6, 9, 7)).astype(np.float32)
            wide[:, ::2] = x
            xs = wide[:, ::2]
        assert not xs.flags.c_contiguous and np.array_equal(xs, x)
        ref = _run_conv_seeded("naive", conv2d, xs, wt, b, stride=1, pad=1)
        small_blocks(x, wt, 1, 1)
        got = _run_conv_seeded("fused", conv2d, xs, wt, b, stride=1, pad=1)
        _assert_identical(ref, got, f"blocked conv2d[{layout}]")

    def test_no_grad_output_and_scratch(self, small_blocks, poisoned_empty):
        x, wt, b = _conv_case()
        with use_kernel_mode("naive"), no_grad():
            ref = conv2d_bias_relu(Tensor(x), Tensor(wt), Tensor(b), stride=2, pad=1)
        small_blocks(x, wt, 2, 1)
        with use_kernel_mode("fused"), no_grad(), poisoned_empty():
            got = conv2d_bias_relu(Tensor(x), Tensor(wt), Tensor(b), stride=2, pad=1)
        assert np.array_equal(ref.data, got.data)

    def test_padding_border_is_zeroed_in_a_dirty_buffer(self, poisoned_empty):
        # Every padding tap of the gather copies the zero slot the unfold
        # writes after each sample; its source buffer starts out as NaN, so
        # a slot left unwritten (or a tap pointed elsewhere) shows in the
        # patch matrix and in the conv.  Default block size, unlike
        # test_poisoned_scratch below.
        x, wt, b = _conv_case()
        ref = _run_conv_seeded("naive", conv2d, x.copy(), wt, b, stride=1, pad=2)
        with poisoned_empty():
            cols = conv_module._unfold(x, 3, 3, 1, 2)
            got = _run_conv_seeded("fused", conv2d, x.copy(), wt, b, stride=1, pad=2)
        ref_cols = _im2col_rows(x, 3, 1, 2)
        assert np.array_equal(cols.reshape(ref_cols.shape), ref_cols)
        _assert_identical(ref, got, "blocked conv2d[dirty pad buffer]")

    @pytest.mark.parametrize("fn", (conv2d, conv2d_bias_relu), ids=lambda f: f.__name__)
    @pytest.mark.parametrize("case", sorted(_BLOCKED_CASES))
    def test_poisoned_scratch(self, small_blocks, poisoned_empty, fn, case):
        # Every scratch buffer of the fused call starts out as garbage, so
        # any element the kernel reads before writing shows in the bits.
        case_kwargs, conv_kwargs = _BLOCKED_CASES[case]
        x, wt, b = _conv_case(**case_kwargs)
        ref = _run_conv_seeded("naive", fn, x.copy(), wt, b, **conv_kwargs)
        small_blocks(x, wt, **conv_kwargs)
        with poisoned_empty():
            got = _run_conv_seeded("fused", fn, x.copy(), wt, b, **conv_kwargs)
        _assert_identical(ref, got, f"poisoned {fn.__name__}[{case}]")

    def test_training_horizon(self, small_blocks):
        # Three optimizer steps of conv -> conv+relu -> mean, all through
        # blocked passes, against the reference running single-block (the
        # default constant).  The mean reads the conv output's memory
        # order, so this also pins the reference's dense NCHW output.
        x, wt, b = _conv_case()
        wt2 = (RNG.normal(size=(2, 4, 3, 3)) * 0.2).astype(np.float32)
        b2 = RNG.normal(size=2).astype(np.float32)
        batches = [x, x[::-1].copy(), x * 0.5]

        def train(mode):
            with use_kernel_mode(mode):
                params = [Parameter(a.copy()) for a in (wt, b, wt2, b2)]
                opt = SGD(params, lr=0.05, momentum=0.9)
                trace = []
                for batch in batches:
                    h = conv2d(Tensor(batch), params[0], params[1], stride=1, pad=1)
                    y = conv2d_bias_relu(h, params[2], params[3], stride=2, pad=1)
                    loss = (y * y).mean()
                    for p in params:
                        p.grad = None
                    loss.backward(release_tape=True)
                    trace.append((loss.data.copy(), [p.grad.copy() for p in params]))
                    opt.step()
                return trace, [p.data.copy() for p in params]

        ref_trace, ref_final = train("naive")
        small_blocks(x, wt, 1, 1)
        got_trace, got_final = train("fused")
        for (rl, rg), (gl, gg) in zip(ref_trace, got_trace):
            assert np.array_equal(rl, gl)
            assert all(np.array_equal(a, c) for a, c in zip(rg, gg))
        assert all(np.array_equal(a, c) for a, c in zip(ref_final, got_final))


def _im2col_rows(x, k, stride, pad):
    """The naive path's GEMM operand: im2col's patch columns as rows."""
    col = conv_module.im2col(x, k, k, stride, pad)
    return np.ascontiguousarray(col.transpose(0, 2, 1)).reshape(-1, col.shape[1])


def _special_values(x):
    """``x`` with -0.0, +-inf and two NaNs with distinct payloads planted."""
    x = x.copy()
    bits = np.uint64 if x.dtype == np.float64 else np.uint32
    flat = x.reshape(-1)
    flat[:3] = (-0.0, np.inf, -np.inf)
    flat[3:5].view(bits)[...] = np.array([np.nan] * 2, x.dtype).view(bits) | bits([5, 3 << 8])
    return x


# (n, c, h, w, k, stride, pad): geometries of the gather cases.
_GATHER_CASES = {
    "3x3-s1-p1": (5, 3, 9, 7, 3, 1, 1),
    "3x3-s2-p1": (5, 3, 9, 7, 3, 2, 1),
    "3x3-s1-p0": (5, 3, 9, 7, 3, 1, 0),
    "3x3-s2-p2": (3, 4, 8, 8, 3, 2, 2),
    "1x1": (5, 3, 9, 7, 1, 1, 0),
    "1x1-s2": (5, 3, 9, 7, 1, 2, 0),
    "5x5-p2": (4, 2, 6, 5, 5, 1, 2),
    "n0": (0, 3, 9, 7, 3, 1, 1),
    "empty-output": (2, 3, 2, 2, 5, 1, 1),
}


class TestGatherUnfold:
    """The fused unfold is a copy: the im2col patch matrix, bit for bit."""

    @pytest.mark.parametrize("dtype", (np.float32, np.float64), ids=("f32", "f64"))
    @pytest.mark.parametrize("layout", ("dense", "nhwc", "sliced"))
    @pytest.mark.parametrize("case", sorted(_GATHER_CASES))
    def test_is_the_im2col_patch_matrix(self, dtype, layout, case):
        n, c, h, w, k, stride, pad = _GATHER_CASES[case]
        x = RNG.normal(size=(n, c, h, w)).astype(dtype)
        if x.size:
            x = _special_values(x)
        if layout == "nhwc":
            x = _nhwc_backed(x)
        elif layout == "sliced":
            wide = np.zeros((n, 2 * c, h, w), dtype)
            wide[:, ::2] = x
            x = wide[:, ::2]
        ref = _im2col_rows(x, k, stride, pad)
        got = conv_module._unfold(x, k, k, stride, pad)
        assert got.dtype == ref.dtype and got.size == ref.size
        bits = np.uint64 if dtype == np.float64 else np.uint32
        assert np.array_equal(got.reshape(ref.shape).view(bits), ref.view(bits))

    def test_index_is_read_only_and_shared_across_batch_sizes(self):
        geometry = (7, 6, 5, 3, 3, 1, 1)
        conv_module._patch_index.cache_clear()
        wt = RNG.normal(size=(2, 7, 3, 3)).astype(np.float32)
        for n in (1, 64):
            x = RNG.normal(size=(n, 7, 6, 5)).astype(np.float32)
            with use_kernel_mode("fused"), no_grad():
                conv2d(Tensor(x), Tensor(wt), stride=1, pad=1)
        info = conv_module._patch_index.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
        idx = conv_module._patch_index(*geometry)
        assert idx is conv_module._patch_index(*geometry)
        assert idx.dtype == np.intp and not idx.flags.writeable
        with pytest.raises(ValueError):
            idx[0] = 0


class TestConvArgumentChecks:
    @pytest.mark.parametrize("mode", ("naive", "fused"))
    @pytest.mark.parametrize("fn", (conv2d, conv2d_bias_relu), ids=lambda f: f.__name__)
    def test_bad_calls_raise_value_error(self, mode, fn):
        x = Tensor(np.ones((2, 3, 4, 4), dtype=np.float32))
        w = Tensor(np.ones((5, 3, 3, 3), dtype=np.float32))
        with use_kernel_mode(mode):
            with pytest.raises(ValueError, match="channels"):
                fn(x, Tensor(np.ones((5, 2, 3, 3), dtype=np.float32)))
            for stride in (0, -1):
                with pytest.raises(ValueError, match="stride"):
                    fn(x, w, stride=stride)
            with pytest.raises(ValueError, match="does not fit"):
                fn(x, Tensor(np.ones((5, 3, 6, 6), dtype=np.float32)))
            with pytest.raises(ValueError, match="does not fit"):
                fn(x, Tensor(np.ones((5, 3, 3, 8), dtype=np.float32)), pad=1)
            with pytest.raises(ValueError, match="pad must be >= 0, got -1"):
                fn(x, w, pad=-1)

    @pytest.mark.parametrize("mode", ("naive", "fused"))
    def test_empty_output_stays_legal(self, mode):
        # A kernel exactly one pixel larger than the padded input: (N, F, 0, 0).
        x = Tensor(np.ones((2, 3, 4, 4), dtype=np.float32), requires_grad=True)
        w = Parameter(np.ones((5, 3, 5, 5), dtype=np.float32))
        with use_kernel_mode(mode):
            out = conv2d(x, w)
            assert out.shape == (2, 5, 0, 0)
            out.backward(np.ones_like(out.data))
        assert np.array_equal(x.grad, np.zeros_like(x.data))
        assert np.array_equal(w.grad, np.zeros_like(w.data))


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

    @pytest.mark.parametrize("shape", [(6, 5), (2, 3, 5)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_with_poisoned_scratch(self, poisoned_empty, shape, dtype):
        x = RNG.normal(size=shape).astype(dtype)
        wt = RNG.normal(size=(4, shape[-1])).astype(dtype)
        b = RNG.normal(size=4).astype(dtype)
        g = RNG.normal(size=shape[:-1] + (4,)).astype(dtype)
        results = {}
        for mode in ("naive", "fused"):
            with use_kernel_mode(mode), (poisoned_empty() if mode == "fused"
                                         else contextlib.nullcontext()):
                xt = Tensor(x.copy(), requires_grad=True)
                wp, bp = Parameter(wt.copy()), Parameter(b.copy())
                out = linear_bias_act(xt, wp, bp, act="relu")
                out.backward(g.copy())
                results[mode] = (out.data, xt.grad, wp.grad, bp.grad)
        _assert_identical(results["naive"], results["fused"],
                          f"poisoned linear[{shape},{np.dtype(dtype)}]")

    def test_invalid_act_raises(self):
        with pytest.raises(ValueError):
            linear_bias_act(Tensor(np.zeros((2, 3))), Parameter(np.zeros((4, 3))),
                            act="gelu")


def _nhwc_backed(x):
    """Same values, NHWC memory: what a channels-last producer hands batch norm."""
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


_BN_CASES = [case for case in sorted(_NORM_CASES) if case.startswith("bn")]
# The suite's ResNet stage-1 shape: large enough for NumPy to reuse
# temporaries' buffers, which small shapes never trigger.
_BLOCK_SHAPES = {"bn2d-large": (BatchNorm2d, 16, (64, 16, 16, 16))}


def _run_block_end(mode, case, *, act, residual, training=True, layout=None,
                   residual_layout=None):
    """``act(bn(x) + residual)`` forward + backward under ``mode``.

    ``residual`` is ``None``, ``"other"`` (an interior tensor of its own) or
    ``"input"``: the tensor ``x`` was computed from, as in MiniGo's tower
    ``bn(conv(h), residual=h)``, so that tensor's gradient collects the block
    end's term and the producer's, in the order the composed graph adds them.
    Returns the output, every gradient and the running statistics.
    """
    cls, features, shape = {**_NORM_CASES, **_BLOCK_SHAPES}[case]
    conv = len(shape) == 4  # else a linear map produces ``x``
    rng = np.random.default_rng(17)
    draw = lambda *s: rng.normal(0.2, 1.5, size=s).astype(np.float32)
    gamma, beta = rng.normal(1.0, 0.3, size=features), rng.normal(0.0, 0.3, size=features)
    x0, s0, g = draw(*shape), draw(*shape), draw(*shape)
    w0 = draw(features, features, *((3, 3) if conv else ())) * 0.3
    if layout is not None:
        x0, g = layout(x0), layout(g)
    if residual_layout is not None:
        s0 = residual_layout(s0)
    with use_kernel_mode(mode):
        layer = cls(features, activation=act).train(training)
        layer.gamma.data, layer.beta.data = gamma.astype(np.float32), beta.astype(np.float32)
        leaf = Tensor(x0, requires_grad=True)
        other = Tensor(s0, requires_grad=True)
        w = Parameter(w0)
        h = leaf * 1.5
        if residual == "input":
            x = conv2d(h, w, pad=1) if conv else linear_bias_act(h, w)
            out = layer(x, residual=h)
        elif residual == "other":
            out = layer(h, residual=other * 0.5)
        else:
            out = layer(h)
        out.backward(g)
        grads = [leaf.grad, layer.gamma.grad, layer.beta.grad]
        if residual is not None:
            grads.append(w.grad if residual == "input" else other.grad)
        return (out.data, *grads, *_running_stats(layer))


def _assert_all_identical(ref, got, context):
    assert len(ref) == len(got), context
    for i, (a, c) in enumerate(zip(ref, got)):
        assert a.dtype == c.dtype, f"{context}: item {i} dtype {c.dtype} != {a.dtype}"
        assert np.array_equal(a, c), f"{context}: item {i} diverged"
        assert np.array_equal(np.signbit(a), np.signbit(c)), f"{context}: item {i} zero signs"


def _reachable_from_closure(fn):
    """Arrays and tensors a backward closure holds, without walking into a
    tensor (whose graph links lead everywhere) or a function's globals."""
    arrays, tensors, seen, stack = [], [], set(), [fn]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Tensor):
            tensors.append(obj)
        elif isinstance(obj, np.ndarray):
            arrays.append(obj)
            if obj.base is not None:
                stack.append(obj.base)
        elif callable(obj) and hasattr(obj, "__closure__"):
            for cell in obj.__closure__ or ():
                try:
                    stack.append(cell.cell_contents)
                except ValueError:  # an unassigned cell
                    pass
            stack.extend(obj.__defaults__ or ())
        elif isinstance(obj, (tuple, list, set, frozenset)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
    return arrays, tensors


class TestNormalizeBitIdentity:
    """The single-node ``normalize`` kernel vs the composed graph.

    ``fused`` runs the kernel, ``naive`` the composition; output, all three
    gradients and the running statistics must agree to the bit.
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

    def test_block_end_is_one_node(self):
        with use_kernel_mode("fused"):
            _, x, _ = _norm_layer("bn2d", np.float32)
            layer = BatchNorm2d(3, activation="relu")
            leaf, skip = Tensor(x, requires_grad=True), Tensor(x + 1, requires_grad=True)
            out = layer(leaf, residual=skip)
        assert out._prev == (leaf, layer.gamma, layer.beta, skip)

    # --- the block end: act(bn(x) + residual) ----------------------------

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("residual", [None, "other", "input"])
    @pytest.mark.parametrize("act", ["none", "relu"])
    @pytest.mark.parametrize("case", _BN_CASES)
    def test_block_end_matches_naive(self, case, act, residual, training):
        kwargs = dict(act=act, residual=residual, training=training)
        _assert_all_identical(_run_block_end("naive", case, **kwargs),
                              _run_block_end("fused", case, **kwargs),
                              f"{case}[{act},{residual},train={training}]")

    @pytest.mark.parametrize("residual_layout", ["same", "dense"])
    @pytest.mark.parametrize("residual", ["other", "input"])
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("case", ["bn2d", "bn2d-n1", "bn2d-large"])
    def test_block_end_nhwc_backed(self, case, training, residual, residual_layout):
        """NHWC-backed input and gradient, with a residual of the input's
        layout (added in place) or a dense one (``y + residual``)."""
        kwargs = dict(act="relu", residual=residual, training=training, layout=_nhwc_backed,
                      residual_layout=_nhwc_backed if residual_layout == "same" else None)
        _assert_all_identical(_run_block_end("naive", case, **kwargs),
                              _run_block_end("fused", case, **kwargs),
                              f"{case}-nhwc[{residual},{residual_layout},train={training}]")

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("case", ["bn2d", "bn2d-large"])
    def test_block_end_poisoned_scratch(self, poisoned_empty, case, training):
        kwargs = dict(act="relu", residual="input", training=training)
        ref = _run_block_end("naive", case, **kwargs)
        with poisoned_empty():
            got = _run_block_end("fused", case, **kwargs)
        _assert_all_identical(ref, got, f"{case}-poisoned[train={training}]")

    @pytest.mark.parametrize("context", [no_grad, inference_mode])
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("residual", [None, "other"])
    @pytest.mark.parametrize("case", _BN_CASES)
    def test_block_end_forward_only(self, case, residual, training, context):
        results = {}
        for mode in ("naive", "fused"):
            cls, features, shape = _NORM_CASES[case]
            rng = np.random.default_rng(23)
            x = rng.normal(size=shape).astype(np.float32)
            skip = Tensor(rng.normal(size=shape).astype(np.float32)) if residual else None
            with use_kernel_mode(mode):
                layer = cls(features, activation="relu").train(training)
                with context():
                    first = layer(Tensor(x), residual=skip)
                    second = layer(Tensor(x), residual=skip)
                assert not second.requires_grad and second._backward is None
                results[mode] = (first.data, second.data, *_running_stats(layer))
        _assert_all_identical(results["naive"], results["fused"], f"{case}-forward-only")

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("act,residual", [("none", False), ("relu", False), ("relu", True)])
    def test_node_keeps_no_activation_but_operands_and_result(self, act, residual, training):
        """The kernel recomputes ``x - mean`` and ``xhat`` (and the ReLU mask)
        in its backward: nothing of the input's size is reachable from its
        closure except the operands' arrays and the result's own."""
        with use_kernel_mode("fused"):
            layer, x, _ = _norm_layer("bn2d", np.float32)
            if act != "none" or residual:
                layer = BatchNorm2d(3, activation=act)
            layer.train(training)
            leaf = Tensor(x, requires_grad=True)
            skip = Tensor(x * 0.5, requires_grad=True) if residual else None
            out = layer(leaf, residual=skip) if residual else layer(leaf)
        arrays, tensors = _reachable_from_closure(out._backward)
        owners = {id(t) for t in (leaf, skip, out, layer.gamma, layer.beta)}
        assert all(id(t) in owners for t in tensors)
        allowed = [t.data for t in (leaf, skip, out) if t is not None]
        big = [a for a in arrays if a.size >= x.size]
        strays = [a for a in big if not any(np.shares_memory(a, d) for d in allowed)]
        assert strays == [], [(a.shape, a.dtype) for a in strays]

    def test_training_horizon(self):
        """conv → BN → relu → pool → LN → linear, trained for several steps:
        the kernels match the composed graph, batch statistics taken over a
        convolution's output included."""
        from repro.framework import Conv2d, Linear

        def train(mode):
            with use_kernel_mode(mode):
                rng = np.random.default_rng(5)
                conv = Conv2d(3, 4, 3, rng, padding=1, bias=False)
                bn, ln, fc = BatchNorm2d(4), LayerNorm(4), Linear(4, 2, rng)
                params = [*conv.parameters(), *bn.parameters(), *ln.parameters(),
                          *fc.parameters()]
                opt = SGD(params, lr=0.05, momentum=0.9)
                data = np.random.default_rng(6)
                trace = []
                for _ in range(5):
                    batch = data.normal(size=(6, 3, 5, 5)).astype(np.float32)
                    h = bn(conv(Tensor(batch))).relu()
                    y = fc(ln(h.mean(axis=(2, 3))))
                    loss = (y * y).mean()
                    for p in params:
                        p.grad = None
                    loss.backward(release_tape=True)
                    trace.append([loss.data.copy(), *(p.grad.copy() for p in params)])
                    opt.step()
                trace.append([p.data.copy() for p in params]
                             + [bn.running_mean, bn.running_var])
            return trace

        for step, (r, g) in enumerate(zip(train("naive"), train("fused"))):
            for i, (a, c) in enumerate(zip(r, g)):
                assert np.array_equal(a, c), f"step {step} item {i} diverged"


_CELL_GRADS = ("x", "h_prev", "c_prev", "w_x", "w_h", "bias")


def _cell_mask(kind, n, dtype):
    """An ``(N, 1)`` step mask as ``LSTM.forward`` builds it, or ``None``."""
    if kind is None:
        return None
    keep = {"mixed": np.arange(n) % 3 != 1, "none-kept": np.zeros(n, dtype=bool),
            "all-kept": np.ones(n, dtype=bool)}[kind]
    return keep.astype(dtype)[:, None]


def _run_cell(mode, *, mask=None, dtype=np.float32, n=5, use="both", second_reader=None,
              context=None):
    """One ``lstm_cell`` step under ``mode``: ``h``, ``c`` and the six gradients.

    The step's inputs are interior nodes, so their gradients accumulate.
    ``use`` picks which results the loss reads (``"twice"``: each by two
    readers); ``second_reader`` gives ``h_prev`` and ``c_prev`` one more
    reader whose adjoint arrives before (``"first"``) or after (``"last"``)
    the cell's.
    """
    e, hs = 7, 6
    rng = np.random.default_rng(3)
    draw = lambda *shape: rng.normal(size=shape).astype(dtype)
    x0, h0, c0 = draw(n, e), draw(n, hs), draw(n, hs)
    weights = draw(4 * hs, e) * 0.4, draw(4 * hs, hs) * 0.4, draw(4 * hs)
    g_h, g_c, g_h2, g_c2 = draw(n, hs), draw(n, hs), draw(n, hs), draw(n, hs)
    with use_kernel_mode(mode):
        leaves = [Tensor(a, requires_grad=True) for a in (x0, h0, c0)]
        params = [Parameter(w) for w in weights]
        x, h_prev, c_prev = (leaf * 1.5 for leaf in leaves)
        if context is not None:
            with context():
                h, c = lstm_cell(x, h_prev, c_prev, *params, _cell_mask(mask, n, dtype))
            assert not h.requires_grad and h._backward is None and c._backward is None
            return h.data, c.data
        h, c = lstm_cell(x, h_prev, c_prev, *params, _cell_mask(mask, n, dtype))
        terms = []
        if use in ("h", "both", "twice"):
            terms.append((h * Tensor(g_h)).sum())
        if use in ("c", "both", "twice"):
            terms.append((c * Tensor(g_c)).sum())
        if use == "twice":
            terms += [(h.tanh() * Tensor(g_h2)).sum(), (c * c * Tensor(g_c2)).sum()]
        # The reverse walk runs the terms' adjoints in the order they were added.
        extra = (h_prev * c_prev).sum()
        if second_reader == "first":
            terms.insert(0, extra)
        elif second_reader == "last":
            terms.append(extra)
        loss = terms[0]
        for term in terms[1:]:
            loss = loss + term
        loss.backward()
        return (h.data, c.data, *(t.grad for t in leaves), *(p.grad for p in params))


def _assert_cell_identical(ref, got, context):
    names = ("h", "c", *(f"{name}.grad" for name in _CELL_GRADS))
    assert len(ref) == len(got)
    for name, a, c in zip(names, ref, got):
        assert a.dtype == c.dtype, f"{context}: {name} dtype {c.dtype} != {a.dtype}"
        assert np.array_equal(a, c), f"{context}: {name} diverged"


def _sequence_case(dtype=np.float32, t=6, n=5, e=7):
    rng = np.random.default_rng(8)
    lengths = rng.integers(1, t + 1, size=n)
    lengths[0] = t
    return (rng.normal(size=(t, n, e)).astype(dtype),
            np.arange(t)[:, None] < lengths[None, :],
            rng.normal(size=(t, n, 6)).astype(dtype))


def _run_encoder_decoder(mode, dtype=np.float32):
    """A padded 2-layer residual encoder whose final ``(h, c)`` start an
    unpadded decoder over the same parameters' shapes: the GNMT wiring."""
    with use_kernel_mode(mode):
        rng = np.random.default_rng(4)
        encoder = LSTM(7, 6, 2, rng, residual=True)
        decoder = LSTM(7, 6, 2, rng, residual=True)
        params = [*encoder.parameters(), *decoder.parameters()]
        for p in params:
            p.data = p.data.astype(dtype)
        seq, mask, g = _sequence_case(dtype)
        emb = Parameter(seq)
        memory, states = encoder(emb * 1.0, mask=mask)
        out, final = decoder(emb * 0.5, states=states)
        loss = (out * Tensor(g)).sum() + (memory * Tensor(g[::-1].copy())).sum()
        loss = loss + (final[-1][1] * final[0][0]).sum()
        loss.backward()
        return [memory.data, out.data, emb.grad, *(p.grad for p in params),
                *(s.data for pair in final for s in pair)]


class TestLstmCellBitIdentity:
    """The ``lstm_cell`` kernel vs the composed graph it replaces.

    ``fused`` runs the kernel, ``naive`` the composition; both results and
    all six gradients must agree to the bit.
    """

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("mask", [None, "mixed", "none-kept", "all-kept"])
    @pytest.mark.parametrize("use", ["both", "h", "c", "twice"])
    def test_matches_naive(self, mode, mask, use):
        ref = _run_cell("naive", mask=mask, use=use)
        got = _run_cell(mode, mask=mask, use=use)
        _assert_cell_identical(ref, got, f"[{mode},mask={mask},use={use}]")

    @pytest.mark.parametrize("mask", [None, "mixed"])
    @pytest.mark.parametrize("second_reader", ["first", "last"])
    @pytest.mark.parametrize("use", ["both", "twice"])
    def test_accumulation_order_with_another_reader_of_the_state(self, mask, second_reader, use):
        kwargs = dict(mask=mask, second_reader=second_reader, use=use)
        _assert_cell_identical(_run_cell("naive", **kwargs), _run_cell("fused", **kwargs),
                               f"[mask={mask},reader {second_reader},use={use}]")

    @pytest.mark.parametrize("mask", [None, "mixed", "none-kept"])
    def test_batch_of_one(self, mask):
        ref = _run_cell("naive", mask=mask, n=1)
        _assert_cell_identical(ref, _run_cell("fused", mask=mask, n=1), f"n=1[mask={mask}]")

    @pytest.mark.parametrize("mask", [None, "mixed"])
    def test_float64(self, mask):
        ref = _run_cell("naive", mask=mask, dtype=np.float64)
        got = _run_cell("fused", mask=mask, dtype=np.float64)
        assert got[0].dtype == np.float64
        _assert_cell_identical(ref, got, f"f64[mask={mask}]")

    @pytest.mark.parametrize("context", [no_grad, inference_mode])
    @pytest.mark.parametrize("mask", [None, "mixed"])
    def test_forward_only(self, context, mask):
        ref = _run_cell("naive", mask=mask, context=context)
        got = _run_cell("fused", mask=mask, context=context)
        assert np.array_equal(ref[0], got[0]) and np.array_equal(ref[1], got[1])

    def test_kernel_graph(self):
        """Unmasked, ``h`` hangs off ``c`` and ``c`` off the operands (the
        weights through their transposes); the blend adds one node."""
        rng = np.random.default_rng(0)
        cell = LSTMCell(3, 4, rng)
        x = Tensor(rng.normal(size=(2, 3)).astype(np.float32), requires_grad=True)
        state = cell.zero_state(2)
        with use_kernel_mode("fused"):
            h, c = cell(x, state)
            hm, cm = cell(x, state, np.ones((2, 1), dtype=np.float32))
        assert h._prev == (c,)
        assert [p for p in c._prev if p._backward is None] == [state[1], x, state[0], cell.bias]
        assert [p._prev for p in c._prev if p._backward is not None] == [(cell.w_x,), (cell.w_h,)]
        assert hm._prev[1] is state[0] and cm._prev == (hm._prev[0], state[1])

    @pytest.mark.parametrize("mode", MODES)
    def test_padded_residual_stack_into_decoder(self, mode):
        ref, got = _run_encoder_decoder("naive"), _run_encoder_decoder(mode)
        for k, (a, c) in enumerate(zip(ref, got)):
            assert np.array_equal(a, c), f"[{mode}] item {k} diverged"

    def test_float64_stack_gets_a_float64_mask_and_state(self):
        ref, got = _run_encoder_decoder("naive", np.float64), _run_encoder_decoder("fused", np.float64)
        assert all(a.dtype == np.float64 for a in got)
        for k, (a, c) in enumerate(zip(ref, got)):
            assert np.array_equal(a, c), f"item {k} diverged"

    def test_training_horizon(self):
        """A padded 2-layer stack trained for several steps: the kernel's
        nodes match the composed graph under an optimizer."""
        from repro.framework import Adam

        def train(mode):
            with use_kernel_mode(mode):
                lstm = LSTM(7, 6, 2, np.random.default_rng(5), residual=True)
                params = lstm.parameters()
                opt = Adam(params, lr=0.01)
                seq, mask, g = _sequence_case()
                trace = []
                for step in range(5):
                    out, states = lstm(Tensor(seq * (1.0 + 0.1 * step)), mask=mask)
                    loss = (out * Tensor(g)).mean() + (states[1][1] * states[0][0]).mean()
                    lstm.zero_grad()
                    loss.backward(release_tape=True)
                    trace.append([loss.data.copy(), *(p.grad.copy() for p in params)])
                    opt.step()
                trace.append([p.data.copy() for p in params])
            return trace

        for step, (r, g) in enumerate(zip(train("naive"), train("fused"))):
            for i, (a, c) in enumerate(zip(r, g)):
                assert np.array_equal(a, c), f"step {step} item {i} diverged"


def _attention_mask(kind, n, tq, tk, dtype):
    """``None`` or a mask of the forms ``MultiHeadAttention`` accepts: a key
    padding mask ``(N, 1, 1, Tk)`` or a per-query one ``(N, 1, Tq, Tk)``,
    boolean or additive; ``masked-row`` leaves the first sentence no key."""
    if kind is None:
        return None
    form, _, shape = kind.partition("-")
    if shape == "keys" or kind == "masked-row":
        keep = np.arange(tk)[None, :] < (tk - np.arange(n) % 3)[:, None]
        if kind == "masked-row":
            keep[0] = False
        keep = keep[:, None, None, :]
    else:
        keep = np.broadcast_to(np.tril(np.ones((tq, tk), dtype=bool), k=tk - tq), (n, 1, tq, tk))
        keep = keep & (np.arange(n) % 2 == 0)[:, None, None, None] | np.eye(tq, tk, dtype=bool)
    return keep if form != "add" else np.where(keep, 0.0, -1e9).astype(dtype)


def _run_attention(mode, *, kind="self", n=3, tq=5, tk=5, heads=4, dtype=np.float32,
                   mask=None, context=None, second_reader=None, dropout=0.0):
    """One ``MultiHeadAttention`` call under ``mode``: the output, then the
    gradients of the inputs and of the four projections.

    The inputs are interior nodes, so in self-attention the three
    projections' terms accumulate into one gradient -- in the order the
    reverse walk reaches them.  ``second_reader`` gives that input one more
    consumer, whose adjoint runs before (``"first"``) or after (``"last"``)
    the layer's.
    """
    d = 8 * heads
    rng = np.random.default_rng(6)
    draw = lambda *shape: rng.normal(size=shape).astype(dtype)
    x0, m0, g, g2 = draw(n, tq, d), draw(n, tk, d), draw(n, tq, d), draw(n, tq, d)
    with use_kernel_mode(mode):
        layer = MultiHeadAttention(d, heads, np.random.default_rng(2), dropout=dropout)
        params = layer.parameters()
        for p in params:
            p.data = p.data.astype(dtype)
        leaves = [Tensor(x0, requires_grad=True), Tensor(m0, requires_grad=True)]
        x, memory = (leaf * 1.5 for leaf in leaves)
        if kind == "self":
            memory = x
        bias = _attention_mask(mask, n, tq, tk, dtype)
        if context is not None:
            with context():
                out = layer(x, memory, memory, mask=bias)
            assert not out.requires_grad and out._backward is None
            return [out.data]
        out = layer(x, memory, memory, mask=bias)
        terms = [(out * Tensor(g)).sum()]
        extra = (x * x * Tensor(g2)).sum()
        if second_reader == "first":
            terms.insert(0, extra)
        elif second_reader == "last":
            terms.append(extra)
        loss = terms[0]
        for term in terms[1:]:
            loss = loss + term
        loss.backward()
        grads = [leaf.grad for leaf in leaves if leaf.grad is not None]
        return [out.data, *grads, *(p.grad for p in params)]


def _run_attention_kernel(mode, *, tq=5, tk=7, heads=2, bias=False, query_reader=None,
                          shared=False):
    """``fused.attention`` itself on projections that are interior nodes: the
    output and the gradient of each projection's source."""
    n, d = 3, 8 * heads
    rng = np.random.default_rng(9)
    draw = lambda *shape: rng.normal(size=shape).astype(np.float32)
    q0, k0, v0, g, g2 = draw(n, tq, d), draw(n, tk, d), draw(n, tk, d), draw(n, tq, d), draw(n, tq, d)
    with use_kernel_mode(mode):
        leaves = [Tensor(a, requires_grad=True) for a in (q0, k0, v0)]
        q, k, v = (leaf * 0.5 for leaf in leaves)
        if shared:  # one tensor in all three roles
            k = v = q
        out = attention(q, k, v, _attention_mask("add-keys", n, tq, tk, np.float32) if bias else None,
                        0.25, heads)
        terms = [(out * Tensor(g)).sum()]
        if query_reader is not None:
            terms.insert(0 if query_reader == "first" else 1, (q.tanh() * Tensor(g2)).sum())
            terms.insert(0 if query_reader == "first" else 2, (q * q).sum())
        loss = terms[0]
        for term in terms[1:]:
            loss = loss + term
        loss.backward()
        return [out.data, *(leaf.grad for leaf in leaves if leaf.grad is not None)]


def _assert_all_identical(ref, got, context):
    assert len(ref) == len(got)
    for k, (a, c) in enumerate(zip(ref, got)):
        assert a.dtype == c.dtype, f"{context}: item {k} dtype {c.dtype} != {a.dtype}"
        assert np.array_equal(a, c), f"{context}: item {k} diverged"


_ATTENTION_MASKS = [None, "bool-keys", "bool-queries", "add-keys", "add-queries", "masked-row"]


class TestAttentionBitIdentity:
    """The ``attention`` kernel vs the composed graph it replaces.

    ``fused`` runs the kernel, ``naive`` the composition; the output and
    every gradient must agree to the bit.
    """

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("mask", _ATTENTION_MASKS)
    @pytest.mark.parametrize("kind,tq,tk", [("self", 5, 5), ("cross", 5, 5), ("cross", 4, 7),
                                            ("cross", 6, 1), ("cross", 1, 6)])
    def test_matches_naive(self, mode, mask, kind, tq, tk):
        kwargs = dict(kind=kind, tq=tq, tk=tk, mask=mask)
        _assert_all_identical(_run_attention("naive", **kwargs), _run_attention(mode, **kwargs),
                              f"[{mode},{kind},{tq}x{tk},mask={mask}]")

    @pytest.mark.parametrize("mask", [None, "add-queries"])
    @pytest.mark.parametrize("kind", ["self", "cross"])
    @pytest.mark.parametrize("heads,n", [(1, 3), (4, 1), (1, 1)])
    def test_one_head_and_batch_of_one(self, heads, n, kind, mask):
        kwargs = dict(kind=kind, tk=5 if kind == "self" else 3, heads=heads, n=n, mask=mask)
        _assert_all_identical(_run_attention("naive", **kwargs), _run_attention("fused", **kwargs),
                              f"[heads={heads},n={n},{kind},mask={mask}]")

    @pytest.mark.parametrize("mask", [None, "bool-queries", "add-keys", "masked-row"])
    @pytest.mark.parametrize("kind", ["self", "cross"])
    def test_float64(self, kind, mask):
        from repro.telemetry import Telemetry

        kwargs = dict(kind=kind, tk=5 if kind == "self" else 3, mask=mask, dtype=np.float64)
        ref = _run_attention("naive", **kwargs)
        telemetry = Telemetry()
        with telemetry.activate():
            got = _run_attention("fused", **kwargs)
        assert got[0].dtype == np.float64
        _assert_all_identical(ref, got, f"f64[{kind},mask={mask}]")
        assert not telemetry.metrics.snapshot()  # a boolean mask is built in the layer's dtype

    @pytest.mark.parametrize("second_reader", ["first", "last"])
    @pytest.mark.parametrize("kind", ["self", "cross"])
    def test_accumulation_order_with_another_reader_of_the_input(self, kind, second_reader):
        kwargs = dict(kind=kind, mask="add-queries", second_reader=second_reader)
        _assert_all_identical(_run_attention("naive", **kwargs), _run_attention("fused", **kwargs),
                              f"[{kind},reader {second_reader}]")

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("query_reader", [None, "first", "last"])
    @pytest.mark.parametrize("bias", [False, True])
    def test_projection_gradients(self, mode, bias, query_reader):
        """The kernel on its own: a query projection that other nodes read
        too collects its terms in the composed graph's order."""
        kwargs = dict(bias=bias, query_reader=query_reader)
        _assert_all_identical(_run_attention_kernel("naive", **kwargs),
                              _run_attention_kernel(mode, **kwargs),
                              f"[{mode},bias={bias},reader {query_reader}]")

    def test_one_tensor_as_query_key_and_value(self):
        kwargs = dict(tq=5, tk=5, shared=True, query_reader="last")
        _assert_all_identical(_run_attention_kernel("naive", **kwargs),
                              _run_attention_kernel("fused", **kwargs), "shared")

    @pytest.mark.parametrize("context", [no_grad, inference_mode])
    @pytest.mark.parametrize("mask", [None, "bool-queries", "masked-row"])
    def test_forward_only(self, context, mask):
        ref = _run_attention("naive", kind="cross", tk=7, mask=mask, context=context)
        got = _run_attention("fused", kind="cross", tk=7, mask=mask, context=context)
        assert np.array_equal(ref[0], got[0])

    def test_frozen_operands(self):
        """Only the operands that want a gradient get one."""
        rng = np.random.default_rng(0)
        draw = lambda t: rng.normal(size=(2, t, 8)).astype(np.float32)
        q0, k0, v0 = draw(3), draw(4), draw(4)
        results = {}
        for mode in ("naive", "fused"):
            with use_kernel_mode(mode):
                q, k, v = Tensor(q0), Tensor(k0, requires_grad=True), Tensor(v0)
                out = attention(q, k, v, None, 0.5, 2)
                out.backward(np.ones_like(out.data))
                assert q.grad is None and v.grad is None
                results[mode] = [out.data, k.grad]
        _assert_all_identical(results["naive"], results["fused"], "frozen q, v")

    def test_kernel_is_one_node(self):
        rng = np.random.default_rng(0)
        q, k, v = (Tensor(rng.normal(size=(2, 3, 8)).astype(np.float32), requires_grad=True)
                   for _ in range(3))
        with use_kernel_mode("fused"):
            out = attention(q, k, v, None, 0.5, 2)
        assert out._prev == (q, k, v)

    @pytest.mark.parametrize("axes", [(1, 0, 2), (0, 2, 1), (2, 1, 0)])
    def test_output_gradient_in_another_memory_order(self, axes):
        """A transposed reader hands the output a gradient laid out its way;
        the merge's adjoint keeps that order and so must the kernel."""
        rng = np.random.default_rng(1)
        draw = lambda *shape: rng.normal(size=shape).astype(np.float32)
        q0, k0, v0 = draw(3, 4, 8), draw(3, 5, 8), draw(3, 5, 8)
        seed = draw(3, 4, 8).transpose(axes).copy()
        results = {}
        for mode in ("naive", "fused"):
            with use_kernel_mode(mode):
                leaves = [Tensor(a, requires_grad=True) for a in (q0, k0, v0)]
                out = attention(*leaves, None, 0.5, 2)
                out.transpose(axes).backward(seed)
                assert not out.grad.flags.c_contiguous
                results[mode] = [leaf.grad for leaf in leaves]
        _assert_all_identical(results["naive"], results["fused"], str(axes))

    def test_dropout_takes_the_reference_path_and_is_counted(self):
        from repro.telemetry import Telemetry

        ref = _run_attention("naive", mask="add-queries", dropout=0.25)
        for mode, expected in (("fused", 1.0), ("naive", None)):
            telemetry = Telemetry()
            with telemetry.activate():
                got = _run_attention(mode, mask="add-queries", dropout=0.25)
            _assert_all_identical(ref, got, f"dropout[{mode}]")
            counted = telemetry.metrics.snapshot().get("kernel_fallbacks.attention.dropout", {})
            assert counted.get("value") == expected, mode

    def test_eval_mode_dropout_stays_on_the_kernel(self):
        from repro.telemetry import Telemetry

        layer = MultiHeadAttention(8, 2, np.random.default_rng(0), dropout=0.5).eval()
        x = Tensor(np.ones((2, 3, 8), dtype=np.float32))
        telemetry = Telemetry()
        with use_kernel_mode("fused"), telemetry.activate():
            layer(x, x, x)
        assert not telemetry.metrics.snapshot()

    def test_integer_mask_is_rejected(self):
        layer = MultiHeadAttention(8, 2, np.random.default_rng(0))
        x = Tensor(np.ones((1, 3, 8), dtype=np.float32))
        for mode in ("naive", "fused"):
            with use_kernel_mode(mode), pytest.raises(ValueError, match="int64"):
                layer(x, x, x, mask=np.tril(np.ones((3, 3), dtype=np.int64)))

    def test_profiler_and_fallback_reports_show_the_kernel(self):
        """``repro profile`` lists ``attention`` (one forward and, on the
        kernel, one backward call per layer call) and ``repro stats`` /
        ``profile`` total its fallbacks by reason; profiling moves no bit."""
        from repro.core.reporting import kernel_fallback_counts
        from repro.telemetry import Telemetry, render_op_profile

        plain = _run_attention("fused", mask="add-queries")
        tele = Telemetry(profile="full")
        with tele.activate():
            profiled = _run_attention("fused", mask="add-queries")
            _run_attention("fused", dropout=0.25)
            _run_attention("naive", dropout=0.25)
        _assert_all_identical(plain, profiled, "profiled")
        ops = tele.profiler.snapshot()["ops"]
        assert ops["forward"]["attention"]["calls"] == 3
        assert ops["backward"]["attention"]["calls"] >= 3
        assert " attention " in render_op_profile(tele.profiler.snapshot())
        assert kernel_fallback_counts(tele.metrics.snapshot()) == {"attention/dropout": 1.0}

    def test_full_transformer_step(self):
        """Loss and all 87 parameter gradients of one ``MiniTransformer``
        step: the kernel sits in six places, under three kinds of mask."""
        from repro.datasets import SyntheticTranslation, TranslationConfig
        from repro.models import MiniTransformer

        corpus = SyntheticTranslation(TranslationConfig(train_size=32, test_size=8))
        pairs = corpus.train_pairs[:16]
        src = corpus.encoder_inputs([s for s, _ in pairs])
        dec_in, dec_out = corpus.decoder_io([t for _, t in pairs])

        def step(mode):
            with use_kernel_mode(mode):
                model = MiniTransformer(corpus.vocab.size, np.random.default_rng(0))
                loss = model.loss(src, dec_in, dec_out)
                loss.backward()
                return [loss.data, *(p.grad for p in model.parameters())]

        ref = step("naive")
        assert len(ref) == 1 + 87
        for mode in MODES:
            _assert_all_identical(ref, step(mode), mode)

    def test_training_horizon(self):
        """Self- and cross-attention trained for several steps: the kernel's
        node matches the composed graph under an optimizer."""
        from repro.framework import Adam

        def train(mode):
            with use_kernel_mode(mode):
                rng = np.random.default_rng(5)
                self_attn, cross_attn = MultiHeadAttention(16, 4, rng), MultiHeadAttention(16, 4, rng)
                params = self_attn.parameters() + cross_attn.parameters()
                opt = Adam(params, lr=0.01)
                x0 = rng.normal(size=(3, 5, 16)).astype(np.float32)
                m0 = rng.normal(size=(3, 7, 16)).astype(np.float32)
                causal = _attention_mask("add-queries", 3, 5, 5, np.float32)
                keys = _attention_mask("bool-keys", 3, 5, 7, np.float32)
                trace = []
                for step in range(5):
                    x, memory = Tensor(x0 * (1.0 + 0.1 * step)), Tensor(m0)
                    h = x + self_attn(x, x, x, mask=causal)
                    h = h + cross_attn(h, memory, memory, mask=keys)
                    loss = (h * h).mean()
                    for p in params:
                        p.zero_grad()
                    loss.backward(release_tape=True)
                    trace.append([loss.data.copy(), *(p.grad.copy() for p in params)])
                    opt.step()
                trace.append([p.data.copy() for p in params])
            return trace

        for step, (r, g) in enumerate(zip(train("naive"), train("fused"))):
            _assert_all_identical(r, g, f"step {step}")


def _three_exp_sigmoid(x):
    """``Tensor.sigmoid`` as it was before the one-``exp`` form (the oracle)."""
    return np.where(
        x >= 0,
        1.0 / (1.0 + np.exp(-np.clip(x, 0, None))),
        np.exp(np.clip(x, None, 0)) / (1.0 + np.exp(np.clip(x, None, 0))),
    )


class TestSigmoidBitIdentity:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("view", ["contiguous", "column-slice", "transposed", "0-d"])
    def test_matches_three_exp_form(self, dtype, view):
        rng = np.random.default_rng(2)
        x = (rng.normal(size=(33, 40)) * rng.choice([0.1, 1.0, 10.0, 60.0], size=(33, 40)))
        x = x.astype(dtype)
        x[0, :10] = [np.inf, -np.inf, np.nan, -0.0, 0.0, 88.5, -88.5, 104.0, -104.0, 750.0]
        x[1, :2] = [-750.0, np.finfo(dtype).tiny]
        x = {"contiguous": x, "column-slice": x[:, 3:29], "transposed": x.T,
             "0-d": x[2, 2]}[view]
        with np.errstate(over="ignore", invalid="ignore"):
            ref = _three_exp_sigmoid(x)
            got = Tensor(x).sigmoid().data
        assert got.dtype == dtype and got.shape == ref.shape
        assert np.array_equal(np.isnan(ref), np.isnan(got))
        finite = ~np.isnan(ref)
        assert np.array_equal(ref[finite], got[finite])
        assert np.array_equal(np.signbit(ref[finite]), np.signbit(got[finite]))

    def test_gradient_unchanged(self):
        x = Tensor(np.linspace(-30, 30, 41, dtype=np.float32), requires_grad=True)
        y = x.sigmoid()
        y.backward(np.ones_like(y.data))
        ref = _three_exp_sigmoid(x.data)
        assert np.array_equal(x.grad, ref * (1.0 - ref))


_BASIC_INDICES = [
    2, -1, slice(1, 4), slice(None, None, 2), slice(None, None, -1), slice(4, 0, -2),
    (slice(None), 1), (Ellipsis, 0), (1, Ellipsis), (None, 2), (slice(None), None, slice(0, 2)),
    (np.int64(1), slice(None)), (2, 3, 1), Ellipsis, (slice(0, 0),),
]
_ADVANCED_INDICES = [
    [0, 0, 2], np.array([3, 1, 3, 3]), (np.array([0, 0, 1]), np.array([2, 2, 0])),
    (slice(None), [1, 1]), np.array([True, False, True, False, True]),
    (np.array([[0, 1], [1, 0]]),), (True,),
]


class TestGetitemAdjoint:
    """``x[index]``'s adjoint scatters into a zeroed array: in place through
    the view for a basic index, through ``np.add.at`` for an advanced one."""

    @staticmethod
    def _check(index):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(5, 4, 3)).astype(np.float32)
        x = Tensor(data, requires_grad=True)
        picked = x[index]
        g = rng.normal(size=picked.shape).astype(np.float32)
        g.reshape(-1)[:1] = -0.0
        picked.backward(g)
        oracle = np.zeros_like(data)
        np.add.at(oracle, index, g)
        assert np.array_equal(x.grad, oracle)
        assert np.array_equal(np.signbit(x.grad), np.signbit(oracle))

    @pytest.mark.parametrize("index", _BASIC_INDICES, ids=repr)
    def test_basic_index(self, index):
        from repro.framework.tensor import _is_basic_index

        assert _is_basic_index(index)
        self._check(index)

    @pytest.mark.parametrize("index", _ADVANCED_INDICES, ids=repr)
    def test_advanced_index_accumulates_duplicates(self, index):
        from repro.framework.tensor import _is_basic_index

        assert not _is_basic_index(index)
        self._check(index)


def _mixed_dtype_calls():
    f32 = lambda *shape: Tensor(np.ones(shape, dtype=np.float32))
    f64 = lambda *shape: Tensor(np.ones(shape, dtype=np.float64))
    return {
        "conv2d_bias_relu": lambda: conv2d_bias_relu(f64(1, 2, 4, 4), f32(3, 2, 3, 3), f32(3)),
        "linear": lambda: linear_bias_act(f64(2, 3), f32(4, 3), f32(4)),
        "normalize": lambda: LayerNorm(3)(f64(2, 3)),
        "lstm_cell": lambda: lstm_cell(f64(2, 3), f32(2, 4), f32(2, 4), f32(16, 3), f32(16, 4), f32(16)),
        "attention": lambda: attention(f64(2, 3, 4), f32(2, 5, 4), f32(2, 5, 4), None, 0.5, 2),
    }


class TestKernelFallbacksAreCounted:
    @pytest.mark.parametrize("op", sorted(_mixed_dtype_calls()))
    def test_mixed_dtype_call_counts_a_fallback(self, op):
        from repro.telemetry import Telemetry

        call = _mixed_dtype_calls()[op]
        name = f"kernel_fallbacks.{op}.mixed_dtype"
        for mode, expected in (("fused", 1.0), ("naive", None)):
            telemetry = Telemetry()
            with use_kernel_mode(mode), telemetry.activate():
                out = call()
            out = out[0] if isinstance(out, tuple) else out
            assert out.dtype == np.float64  # the composition promotes
            counted = telemetry.metrics.snapshot().get(name, {}).get("value")
            assert counted == expected, f"{mode}: {counted}"

    def test_one_dimensional_linear_input_is_an_ndim_fallback(self):
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        with use_kernel_mode("fused"), telemetry.activate():
            linear_bias_act(Tensor(np.ones(3, dtype=np.float32)),
                            Tensor(np.ones((4, 3), dtype=np.float32)))
        assert telemetry.metrics.snapshot()["kernel_fallbacks.linear.ndim"]["value"] == 1.0

    def test_uniform_calls_count_nothing(self):
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        with use_kernel_mode("fused"), telemetry.activate():
            _run_cell("fused", mask="mixed")
            _run_attention("fused", mask="bool-keys")
            LayerNorm(3)(Tensor(np.ones((2, 3), dtype=np.float32)))
        assert not telemetry.metrics.snapshot()


class TestSGDBitIdentity:
    """The SGD update has one path: the kernel mode must not change its bits."""

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


class TestConfig:
    def test_default_mode_is_valid(self):
        assert kernel_mode() in KERNEL_MODES

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
