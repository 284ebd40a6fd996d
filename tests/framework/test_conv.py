"""Convolution and global pooling: im2col vs naive equivalence, gradients, shapes."""

import tracemalloc

import numpy as np
import pytest

from repro.framework import (
    Tensor, conv2d, conv2d_naive, global_avg_pool2d,
)
from repro.framework.conv import col2im, im2col
from repro.framework.module import Parameter
from tests.helpers import check_gradient

RNG = np.random.default_rng(3)


def _weights(f, c, k):
    return Parameter(RNG.normal(size=(f, c, k, k)))


class TestIm2Col:
    def test_shape(self):
        x = RNG.normal(size=(2, 3, 8, 8))
        col = im2col(x, 3, 3, 1, 1)
        assert col.shape == (2, 3 * 9, 64)

    def test_stride_shape(self):
        x = RNG.normal(size=(1, 1, 8, 8))
        col = im2col(x, 2, 2, 2, 0)
        assert col.shape == (1, 4, 16)

    def test_col2im_is_adjoint(self):
        # <im2col(x), y> == <x, col2im(y)> for all x, y (adjoint property).
        x = RNG.normal(size=(2, 3, 6, 6))
        y = RNG.normal(size=(2, 3 * 9, 36))
        lhs = float((im2col(x, 3, 3, 1, 1) * y).sum())
        rhs = float((x * col2im(y, x.shape, 3, 3, 1, 1)).sum())
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10)

    def test_identity_kernel_roundtrip(self):
        x = RNG.normal(size=(1, 2, 5, 5))
        col = im2col(x, 1, 1, 1, 0)
        np.testing.assert_allclose(col.reshape(1, 2, 5, 5), x)


class TestConv2d:
    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1), (2, 0)])
    def test_matches_naive(self, stride, pad):
        x = Tensor(RNG.normal(size=(2, 3, 9, 9)))
        w = _weights(4, 3, 3)
        b = Parameter(RNG.normal(size=4))
        fast = conv2d(x, w, b, stride=stride, pad=pad)
        slow = conv2d_naive(x, w, b, stride=stride, pad=pad)
        np.testing.assert_allclose(fast.data, slow.data, rtol=1e-6, atol=1e-8)

    def test_matches_scipy_correlate(self):
        from scipy.signal import correlate2d

        x = RNG.normal(size=(1, 1, 7, 7))
        w = RNG.normal(size=(1, 1, 3, 3))
        out = conv2d(Tensor(x), Parameter(w), None, stride=1, pad=0)
        expected = correlate2d(x[0, 0], w[0, 0], mode="valid")
        np.testing.assert_allclose(out.data[0, 0], expected, rtol=1e-8)

    def test_input_gradient(self):
        w = _weights(2, 3, 3)
        check_gradient(lambda x: conv2d(x, w, None, stride=1, pad=1), RNG.normal(size=(1, 3, 5, 5)))

    def test_weight_gradient(self):
        x = Tensor(RNG.normal(size=(2, 2, 5, 5)))
        check_gradient(lambda w: conv2d(x, w, None, stride=1, pad=0), RNG.normal(size=(3, 2, 3, 3)))

    def test_bias_gradient(self):
        x = Tensor(RNG.normal(size=(2, 2, 5, 5)))
        w = _weights(3, 2, 3)
        check_gradient(lambda b: conv2d(x, w, b, stride=1, pad=0), RNG.normal(size=3))

    def test_strided_input_gradient(self):
        w = _weights(2, 1, 3)
        check_gradient(lambda x: conv2d(x, w, None, stride=2, pad=1), RNG.normal(size=(1, 1, 6, 6)))

    def test_channel_mismatch_raises(self):
        x = Tensor(RNG.normal(size=(1, 3, 5, 5)))
        w = _weights(2, 4, 3)
        with pytest.raises(ValueError):
            conv2d(x, w)

    def test_fused_forward_keeps_no_patch_matrix(self):
        """The fused conv's backward re-unfolds its input, so a grad-enabled
        forward leaves less behind than one patch matrix."""
        n, c, f, hw = 8, 16, 16, 16
        x = Tensor(RNG.normal(size=(n, c, hw, hw)).astype(np.float32), requires_grad=True)
        w = Parameter(RNG.normal(size=(f, c, 3, 3)).astype(np.float32))
        patch_bytes = n * (hw * hw) * (c * 9) * x.dtype.itemsize
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = conv2d(x, w, None, stride=1, pad=1)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert out._backward is not None
        assert grown < patch_bytes

    def test_naive_gradient_matches_fast(self):
        x1 = Tensor(RNG.normal(size=(1, 2, 5, 5)), requires_grad=True)
        x2 = Tensor(x1.data.copy(), requires_grad=True)
        w1 = Parameter(RNG.normal(size=(2, 2, 3, 3)))
        w2 = Parameter(w1.data.copy())
        conv2d(x1, w1, None, 1, 1).sum().backward()
        conv2d_naive(x2, w2, None, 1, 1).sum().backward()
        np.testing.assert_allclose(x1.grad, x2.grad, rtol=1e-6)
        np.testing.assert_allclose(w1.grad, w2.grad, rtol=1e-6)


class TestPooling:
    def test_global_avg_pool(self):
        x = RNG.normal(size=(2, 3, 4, 4))
        out = global_avg_pool2d(Tensor(x))
        np.testing.assert_allclose(out.data, x.mean(axis=(2, 3)))
        check_gradient(global_avg_pool2d, x)


class TestSamePadding:
    """§2.2.4: asymmetric-padding conventions differ across frameworks."""

    def test_output_size_is_ceil(self):
        from repro.framework import conv2d_same

        x = Tensor(RNG.normal(size=(1, 2, 9, 9)))
        w = _weights(4, 2, 3)
        out = conv2d_same(x, w, stride=2)
        assert out.shape == (1, 4, 5, 5)

    def test_conventions_agree_when_padding_symmetric(self):
        from repro.framework import conv2d_same

        # stride 1, odd kernel: SAME padding is symmetric -> identical.
        x = Tensor(RNG.normal(size=(1, 2, 8, 8)))
        w = _weights(3, 2, 3)
        tf = conv2d_same(x, w, stride=1, convention="tf")
        torch_port = conv2d_same(x, w, stride=1, convention="torch_port")
        np.testing.assert_allclose(tf.data, torch_port.data, rtol=1e-6)

    def test_conventions_differ_when_padding_asymmetric(self):
        """Identical weights, different outputs — the porting pitfall."""
        from repro.framework import conv2d_same

        # stride 2 over an even extent with a 3x3 kernel: 1 pixel of
        # padding must land on one side only.
        x = Tensor(RNG.normal(size=(1, 2, 8, 8)))
        w = _weights(3, 2, 3)
        tf = conv2d_same(x, w, stride=2, convention="tf")
        torch_port = conv2d_same(x, w, stride=2, convention="torch_port")
        assert tf.shape == torch_port.shape
        assert not np.allclose(tf.data, torch_port.data, atol=1e-4)

    def test_gradients_flow(self):
        from repro.framework import conv2d_same

        x = Tensor(RNG.normal(size=(1, 2, 8, 8)), requires_grad=True)
        w = _weights(3, 2, 3)
        conv2d_same(x, w, stride=2).sum().backward()
        assert x.grad is not None
        assert w.grad is not None

    def test_unknown_convention(self):
        from repro.framework import conv2d_same

        x = Tensor(RNG.normal(size=(1, 2, 8, 8)))
        w = _weights(3, 2, 3)
        with pytest.raises(ValueError):
            conv2d_same(x, w, convention="mxnet")
