"""Autograd correctness: every primitive against finite differences."""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.framework import Tensor, no_grad, is_grad_enabled
from tests.helpers import check_gradient

RNG = np.random.default_rng(42)


def randn(*shape):
    return RNG.normal(size=shape)


class TestArithmetic:
    def test_add_same_shape(self):
        b = Tensor(randn(3, 4))
        check_gradient(lambda x: x + b, randn(3, 4))

    def test_add_broadcast(self):
        b = Tensor(randn(4))
        check_gradient(lambda x: x + b, randn(3, 4))

    def test_add_broadcast_grad_into_small(self):
        a = Tensor(randn(3, 4))
        check_gradient(lambda x: a + x, randn(4))

    def test_radd_scalar(self):
        check_gradient(lambda x: 2.0 + x, randn(3))

    def test_sub(self):
        b = Tensor(randn(3, 4))
        check_gradient(lambda x: x - b, randn(3, 4))

    def test_rsub(self):
        check_gradient(lambda x: 1.0 - x, randn(5))

    def test_mul_broadcast(self):
        b = Tensor(randn(1, 4))
        check_gradient(lambda x: x * b, randn(3, 4))

    def test_div(self):
        b = Tensor(np.abs(randn(3, 4)) + 1.0)
        check_gradient(lambda x: x / b, randn(3, 4))

    def test_div_denominator_grad(self):
        a = Tensor(randn(3, 4))
        check_gradient(lambda x: a / x, np.abs(randn(3, 4)) + 1.0)

    def test_rtruediv(self):
        check_gradient(lambda x: 2.0 / x, np.abs(randn(4)) + 1.0)

    def test_neg(self):
        check_gradient(lambda x: -x, randn(3, 4))

    def test_pow(self):
        check_gradient(lambda x: x**3, randn(3, 4))

    def test_pow_fractional(self):
        check_gradient(lambda x: x**0.5, np.abs(randn(3, 4)) + 0.5)


class TestMatmul:
    def test_2d_2d(self):
        b = Tensor(randn(4, 5))
        check_gradient(lambda x: x @ b, randn(3, 4))

    def test_2d_2d_rhs_grad(self):
        a = Tensor(randn(3, 4))
        check_gradient(lambda x: a @ x, randn(4, 5))

    def test_batched(self):
        b = Tensor(randn(2, 4, 5))
        check_gradient(lambda x: x @ b, randn(2, 3, 4))

    def test_batched_broadcast_lhs(self):
        b = Tensor(randn(2, 4, 5))
        check_gradient(lambda x: x @ b, randn(4, 5)[:4, :4].reshape(4, 4)[:, :4])

    def test_vector_dot(self):
        b = Tensor(randn(4))
        check_gradient(lambda x: x @ b, randn(4))

    def test_matrix_vector(self):
        b = Tensor(randn(4))
        check_gradient(lambda x: x @ b, randn(3, 4))

    def test_vector_matrix(self):
        b = Tensor(randn(4, 5))
        check_gradient(lambda x: x @ b, randn(4))

    def test_broadcast_batch_rhs_grad(self):
        a = Tensor(randn(2, 3, 4))
        check_gradient(lambda x: a @ x, randn(4, 5))


class TestElementwise:
    @pytest.mark.parametrize(
        "op",
        ["exp", "log", "sqrt", "tanh", "sigmoid", "relu", "abs"],
    )
    def test_unary(self, op):
        if op in ("log", "sqrt"):
            data = np.abs(randn(3, 4)) + 0.5
        elif op in ("relu", "abs"):
            data = randn(3, 4) + 0.05  # avoid kink at 0
        else:
            data = randn(3, 4)
        check_gradient(lambda x: getattr(x, op)(), data)

    def test_clip(self):
        data = randn(4, 4) * 2
        data = data[(np.abs(data - 1) > 0.05) & (np.abs(data + 1) > 0.05)][:8]
        check_gradient(lambda x: x.clip(-1.0, 1.0), data)

    def test_sigmoid_extreme_values_stable(self):
        x = Tensor(np.array([-500.0, 0.0, 500.0]))
        y = x.sigmoid()
        assert np.all(np.isfinite(y.data))
        np.testing.assert_allclose(y.data, [0.0, 0.5, 1.0], atol=1e-12)


class TestReductions:
    def test_sum_all(self):
        check_gradient(lambda x: x.sum(), randn(3, 4))

    def test_sum_axis(self):
        check_gradient(lambda x: x.sum(axis=1), randn(3, 4))

    def test_sum_axis_keepdims(self):
        check_gradient(lambda x: x.sum(axis=0, keepdims=True), randn(3, 4))

    def test_sum_multi_axis(self):
        check_gradient(lambda x: x.sum(axis=(1, 2)), randn(2, 3, 4))

    def test_mean(self):
        check_gradient(lambda x: x.mean(), randn(3, 4))

    def test_mean_axis(self):
        check_gradient(lambda x: x.mean(axis=-1), randn(3, 4))

    def test_max_all(self):
        data = randn(3, 4)
        check_gradient(lambda x: x.max(), data)

    def test_max_axis(self):
        data = randn(3, 4)
        check_gradient(lambda x: x.max(axis=1), data)

    def test_max_ties_split_evenly(self):
        x = Tensor(np.array([[2.0, 2.0, 1.0]]), requires_grad=True)
        x.max(axis=1).sum().backward()
        np.testing.assert_allclose(x.grad, [[0.5, 0.5, 0.0]])

    def test_var(self):
        check_gradient(lambda x: x.var(axis=1), randn(3, 5))


class TestShapes:
    def test_reshape(self):
        check_gradient(lambda x: x.reshape(2, 6), randn(3, 4))

    def test_reshape_minus_one(self):
        check_gradient(lambda x: x.reshape(-1), randn(3, 4))

    def test_transpose_default(self):
        check_gradient(lambda x: x.T, randn(3, 4))

    def test_transpose_axes(self):
        check_gradient(lambda x: x.transpose(2, 0, 1), randn(2, 3, 4))

    def test_swapaxes(self):
        check_gradient(lambda x: x.swapaxes(0, 2), randn(2, 3, 4))

    def test_getitem_slice(self):
        check_gradient(lambda x: x[1:3], randn(5, 4))

    def test_getitem_int(self):
        check_gradient(lambda x: x[2], randn(5, 4))

    def test_getitem_fancy_duplicates_accumulate(self):
        x = Tensor(randn(4, 2), requires_grad=True)
        y = x[np.array([0, 0, 1])]
        y.sum().backward()
        np.testing.assert_allclose(x.grad[0], [2.0, 2.0])
        np.testing.assert_allclose(x.grad[1], [1.0, 1.0])
        np.testing.assert_allclose(x.grad[2:], 0.0)

    def test_pad(self):
        check_gradient(lambda x: x.pad(((1, 1), (0, 2))), randn(3, 4))

    def test_concat(self):
        b = Tensor(randn(2, 4))
        check_gradient(lambda x: Tensor.concat([x, b], axis=0), randn(3, 4))

    def test_concat_axis1(self):
        b = Tensor(randn(3, 2))
        check_gradient(lambda x: Tensor.concat([b, x], axis=1), randn(3, 4))

    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_concat_gradients_are_the_upstream_slices(self, axis):
        # Bit-exact: each input's gradient is its slice of the upstream one,
        # and a tensor passed twice gets its two slices added, first + second.
        rng = np.random.default_rng(7)
        a = Tensor(rng.standard_normal((3, 4)).astype(np.float32), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 4) if axis == 0 else (3, 2)).astype(np.float32),
                   requires_grad=True)
        out = Tensor.concat([a, b, a], axis=axis)
        g = rng.standard_normal(out.shape).astype(np.float32)
        out.backward(g)
        cut = np.cumsum([a.shape[axis], b.shape[axis]])
        first, middle, last = np.split(g, cut, axis=axis)
        np.testing.assert_array_equal(a.grad, first + last)
        np.testing.assert_array_equal(b.grad, middle)
        assert a.grad.dtype == b.grad.dtype == np.float32

    def test_stack(self):
        b = Tensor(randn(3, 4))
        check_gradient(lambda x: Tensor.stack([x, b], axis=1), randn(3, 4))

    def test_where(self):
        cond = randn(3, 4) > 0
        b = Tensor(randn(3, 4))
        check_gradient(lambda x: Tensor.where(cond, x, b), randn(3, 4))

    def test_take_rows(self):
        idx = np.array([0, 2, 2, 1])
        check_gradient(lambda x: x.take_rows(idx), randn(3, 4))


class TestGraphMechanics:
    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor(randn(3)).backward()

    def test_grad_accumulates_across_backward_calls(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = (x * 2.0).sum()
        y.backward()
        first = x.grad.copy()
        y2 = (x * 2.0).sum()
        y2.backward()
        np.testing.assert_allclose(x.grad, 2 * first)

    def test_diamond_graph(self):
        # x used twice: d/dx (x*x + x) = 2x + 1
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = x * x + x
        y.backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_deep_chain_iterative_toposort(self):
        # Deep graphs must not hit Python's recursion limit.
        x = Tensor(np.array([1.0]), requires_grad=True)
        y = x
        for _ in range(5000):
            y = y + 0.0
        y.backward()
        np.testing.assert_allclose(x.grad, [1.0])

    def test_no_grad_blocks_graph(self):
        x = Tensor(randn(3), requires_grad=True)
        with no_grad():
            assert not is_grad_enabled()
            y = x * 2.0
        assert is_grad_enabled()
        assert not y.requires_grad
        assert y._backward is None

    def test_detach(self):
        x = Tensor(randn(3), requires_grad=True)
        d = x.detach()
        assert not d.requires_grad
        assert d.data is x.data

    def test_backward_seed_shape_validated(self):
        x = Tensor(randn(3), requires_grad=True)
        with pytest.raises(ValueError):
            x.backward(np.ones(4))

    def test_int_input_promoted_to_float(self):
        t = Tensor([1, 2, 3])
        assert t.dtype == np.float32

    def test_item(self):
        assert Tensor(np.array([2.5])).item() == 2.5


class TestHypothesisProperties:
    @given(
        arrays(np.float64, array_shapes(min_dims=1, max_dims=3, max_side=4),
               elements=st.floats(-10, 10)),
    )
    @settings(max_examples=30, deadline=None)
    def test_add_grad_is_ones(self, data):
        x = Tensor(data.copy(), requires_grad=True)
        (x + 1.0).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones_like(data))

    @given(
        arrays(np.float64, (3, 4), elements=st.floats(-5, 5)),
        arrays(np.float64, (3, 4), elements=st.floats(-5, 5)),
    )
    @settings(max_examples=30, deadline=None)
    def test_mul_grad_symmetry(self, a_data, b_data):
        a = Tensor(a_data.copy(), requires_grad=True)
        b = Tensor(b_data.copy(), requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, b_data)
        np.testing.assert_allclose(b.grad, a_data)

    @given(arrays(np.float64, (2, 3), elements=st.floats(-5, 5)))
    @settings(max_examples=30, deadline=None)
    def test_reshape_roundtrip_grad_identity(self, data):
        x = Tensor(data.copy(), requires_grad=True)
        x.reshape(6).reshape(2, 3).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones_like(data))

    @given(arrays(np.float64, (3, 3), elements=st.floats(-5, 5)))
    @settings(max_examples=30, deadline=None)
    def test_sum_then_max_consistency(self, data):
        # max(x) <= sum over positive part + max: just check forward agrees with numpy
        t = Tensor(data)
        np.testing.assert_allclose(t.max().data, data.max())
        np.testing.assert_allclose(t.sum(axis=0).data, data.sum(axis=0))


def _two_layer_loss(params, batch):
    w1, b1, w2, b2 = params
    h = (Tensor(batch) @ w1.T + b1).relu()
    y = h @ w2.T + b2
    return h, (y * y).mean()


def _two_layer_params():
    rng = np.random.default_rng(0)
    return [Tensor(rng.normal(size=shape).astype(np.float32) * 0.2, requires_grad=True)
            for shape in ((16, 12), (16,), (4, 16), (4,))]


class TestHooksAndRelease:
    """``backward(release_tape=True)``: what every training step runs."""

    @pytest.mark.parametrize("release", [True, False])
    def test_release_tape(self, release):
        batch = np.random.default_rng(3).normal(size=(8, 12)).astype(np.float32)
        kept_params, params = _two_layer_params(), _two_layer_params()
        _two_layer_loss(kept_params, batch)[1].backward()
        hidden, loss = _two_layer_loss(params, batch)
        loss.backward(release_tape=release)
        # Leaf gradients are the same bits either way.
        for p, q in zip(kept_params, params):
            assert np.array_equal(p.grad, q.grad)
        if release:
            # Interior nodes drop closure, parents and gradient; the root
            # keeps its gradient (PyTorch's contract).
            for node in (loss, hidden):
                assert node._backward is None and node._prev == ()
            assert hidden.grad is None and loss.grad is not None
        else:
            assert loss._prev != () and hidden._backward is not None
            assert hidden.grad is not None

    @pytest.mark.parametrize("release", [True, False])
    def test_released_walk_frees_what_it_has_passed(self, release):
        """Activations near the root are freed before the walk reaches the
        inputs: the peak live graph falls during a released walk."""
        x = Tensor(np.linspace(-1.0, 1.0, 8), requires_grad=True)
        seen = []

        def probe(t, refs):
            # An identity op whose backward (walked last) looks at what the
            # walk has already passed.
            def backward(out):
                seen.append([ref() is None for ref in refs])
                t._accumulate(out.grad)

            return Tensor._make(t.data.copy(), (t,), backward)

        def build():
            refs = []
            first = probe(x, refs)
            mid = first * 3.0
            last = mid.tanh()
            refs += [weakref.ref(mid.data), weakref.ref(last.data)]
            return last.sum()

        build().backward(release_tape=release)
        assert seen == [[release, release]]
        np.testing.assert_allclose(x.grad, 3.0 * (1.0 - np.tanh(3.0 * x.data) ** 2))
