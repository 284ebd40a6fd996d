"""Reverse-mode automatic differentiation on NumPy arrays.

This module is the numerical heart of the framework substrate: a ``Tensor``
wraps an ``np.ndarray`` and records the operations applied to it so that
:meth:`Tensor.backward` can propagate gradients through arbitrary compositions
of the primitives defined here.

The design follows the classic tape-based approach: every differentiable
operation returns a new ``Tensor`` whose ``_backward`` closure knows how to
accumulate gradients into the operation's inputs, and ``backward`` walks the
graph in reverse topological order.  All heavy lifting is vectorized NumPy;
there are no per-element Python loops on hot paths.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from .prof import profiled_op, profiler

__all__ = ["Tensor", "no_grad", "inference_mode", "is_grad_enabled",
           "is_inference_mode", "set_alloc_tracker"]

_GRAD_ENABLED = True
_INFERENCE_MODE = False

# Tensor-construction hook for per-phase memory accounting.  None (the
# default) keeps ``Tensor.__init__`` at a single global check; the
# telemetry session installs the profiler's tracker only while profiling.
_ALLOC_TRACKER: Callable[[int], None] | None = None


def set_alloc_tracker(tracker: Callable[[int], None] | None):
    """Install a ``tracker(nbytes)`` called per tensor construction.

    Returns the previous tracker so callers can restore it (the
    install/restore pair lives in ``Telemetry.activate``).
    """
    global _ALLOC_TRACKER
    previous = _ALLOC_TRACKER
    _ALLOC_TRACKER = tracker
    return previous


class no_grad:
    """Context manager disabling graph construction (for eval loops)."""

    def __enter__(self) -> "no_grad":
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc) -> None:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev


class inference_mode:
    """Context manager for forward-only serving; stronger than :class:`no_grad`.

    Inside the extent there is *no* gradient bookkeeping at all: operations
    record no tape nodes (as under ``no_grad``), but additionally
    ``requires_grad`` never propagates — even :class:`~repro.framework.module.Parameter`
    construction and explicit ``Tensor(x, requires_grad=True)`` yield
    ``requires_grad=False`` tensors, and calling :meth:`Tensor.backward`
    raises immediately instead of walking an empty graph.  Forward results
    are bit-identical to a training-mode forward (asserted by test): the
    mode changes what is *recorded*, never what is *computed*.
    """

    def __enter__(self) -> "inference_mode":
        global _GRAD_ENABLED, _INFERENCE_MODE
        self._prev = (_GRAD_ENABLED, _INFERENCE_MODE)
        _GRAD_ENABLED = False
        _INFERENCE_MODE = True
        return self

    def __exit__(self, *exc) -> None:
        global _GRAD_ENABLED, _INFERENCE_MODE
        _GRAD_ENABLED, _INFERENCE_MODE = self._prev


def is_grad_enabled() -> bool:
    """Return whether operations currently record gradient information."""
    return _GRAD_ENABLED


def is_inference_mode() -> bool:
    """Return whether the forward-only inference mode is active."""
    return _INFERENCE_MODE


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing NumPy broadcasting.

    Broadcasting may both prepend axes and stretch length-1 axes; the adjoint
    of a broadcast is a sum over the broadcasted axes.
    """
    if grad.shape == shape:
        return grad
    # Sum away prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were stretched from 1.
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-x))``, stable in both tails, with one ``exp``.

    ``e = exp(-|x|)`` never overflows; the result is ``1 / (1 + e)`` where
    ``x >= 0`` and ``e / (1 + e)`` elsewhere.  ``e <= 1``, so the numerator
    is ``max(e, x >= 0)``.  ``exp`` always sees a fresh dense array, whatever
    ``x``'s strides.
    """
    e = np.asarray(np.copysign(x, -1.0))  # asarray: a 0-d result is a scalar
    np.exp(e, out=e)
    denom = 1.0 + e
    np.maximum(e, x >= 0, out=e)
    e /= denom
    return e


def _is_basic_index(index) -> bool:
    """Whether ``index`` selects each element at most once (no fancy part)."""
    items = index if isinstance(index, tuple) else (index,)
    return all(
        item is None or item is Ellipsis or isinstance(item, slice)
        or (isinstance(item, (int, np.integer)) and not isinstance(item, (bool, np.bool_)))
        for item in items
    )


def _index_add(grad: np.ndarray, index, g: np.ndarray) -> None:
    """``grad[index] += g``, accumulating over repeated elements.

    A basic index (ints, slices, ``...``, ``None``) is a view, so the
    in-place add is the scatter; only an advanced index can name an element
    twice and needs the unbuffered ``np.add.at``.
    """
    if _is_basic_index(index):
        grad[index] += g
    else:
        np.add.at(grad, index, g)


def _as_array(value, dtype=None) -> np.ndarray:
    if isinstance(value, Tensor):
        raise TypeError("expected raw data, got Tensor")
    if (
        dtype is None
        and isinstance(value, (int, float))
        and not isinstance(value, (bool, np.generic))
    ):
        # Python scalars coerce to float32 so that a scalar operand never
        # silently promotes a float32 network to float64 (0-d float64
        # arrays are not "weak" under NumPy promotion rules).  Mixing with
        # float64 tensors still promotes correctly to float64.
        return np.asarray(value, dtype=np.float32)
    arr = np.asarray(value, dtype=dtype)
    if arr.dtype.kind in "iub" and dtype is None:
        arr = arr.astype(np.float32)
    return arr


class Tensor:
    """A NumPy-backed array with reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array-like payload.  Integer input is promoted to ``float32``.
    requires_grad:
        Whether gradients should be accumulated into this tensor.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "name")
    __array_priority__ = 100  # make ndarray defer to Tensor in mixed ops

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = data if isinstance(data, np.ndarray) else _as_array(data)
        if _ALLOC_TRACKER is not None:
            _ALLOC_TRACKER(self.data.nbytes)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._backward: Callable[[], None] | None = None
        self._prev: tuple[Tensor, ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[["Tensor"], None] | None,
    ) -> "Tensor":
        """Create a result tensor wired into the autodiff graph."""
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires and backward is not None:
            out._prev = tuple(parents)
            out._backward = lambda: backward(out)
        return out

    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Add ``grad`` into ``self.grad`` (lazily allocated).

        ``owned=True`` asserts that ``grad`` is a freshly allocated array the
        caller will never touch again and that aliases no other live gradient
        — the first accumulation may then take ownership instead of paying an
        ``astype(..., copy=True)`` duplicate.  Pass-through adjoints (views of
        the consumer's ``out.grad``, slices, transposes) must keep the default:
        taking ownership there would alias two tensors' gradients.
        """
        if not self.requires_grad:
            return
        if self.grad is None:
            if owned and grad.dtype == self.data.dtype:
                self.grad = grad
            else:
                self.grad = grad.astype(self.data.dtype, copy=True)
        else:
            self.grad += grad

    def backward(self, grad: np.ndarray | None = None, *,
                 release_tape: bool = False) -> None:
        """Backpropagate from this tensor.

        ``grad`` defaults to ones (i.e. the tensor is treated as a sum of its
        elements); for scalar losses this is the conventional seed of 1.0.

        ``release_tape=True`` frees the graph as the walk passes it: once an
        interior node has propagated, it drops its ``_backward`` closure,
        its parent links and its ``.grad``, so its activations, the scratch
        its closure captured and its gradient are collectible before the
        walk reaches the inputs.  The contract is PyTorch's default: after
        a released walk every interior ``.grad`` is ``None``, the root keeps
        its ``.grad``, leaf gradients are untouched, and the graph cannot be
        backpropagated again.
        """
        if _INFERENCE_MODE:
            raise RuntimeError(
                "backward() inside inference_mode: no tape was recorded"
            )
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            # np.ones_like is a fresh allocation owned by this frame: seed it
            # directly instead of paying a same-size copy per step.
            grad = np.ones_like(self.data)
            seed_fresh = True
        else:
            raw = grad
            grad = np.asarray(grad, dtype=self.data.dtype)
            # asarray only copies when it casts; a caller-held array must
            # still be defensively copied below.
            seed_fresh = grad is not raw
            if grad.shape != self.data.shape:
                raise ValueError(f"seed gradient shape {grad.shape} != tensor shape {self.data.shape}")

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited:
                    stack.append((parent, False))

        if self.grad is not None:
            self.grad = self.grad + grad
        else:
            self.grad = grad if seed_fresh else grad.copy()
        # While the reverse walk runs, forward-path records from ops built
        # inside backward closures belong to the backward phase.
        prof = profiler()
        prev_phase = prof.phase
        if prof.active:
            prof.phase = "backward"
        try:
            # Reverse topological order guarantees every consumer of ``node``
            # has already propagated when ``node`` is visited.  Popping lets
            # a released node go as soon as the walk has passed it.
            while topo:
                node = topo.pop()
                if node._backward is None:
                    continue
                if node.grad is not None:
                    node._backward()
                if release_tape:
                    node._backward = None
                    node._prev = ()
                    if node is not self:
                        node.grad = None
        finally:
            prof.phase = prev_phase

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    @staticmethod
    def _is_scalar(value) -> bool:
        # Pure Python scalars only: NumPy scalars (np.float64 subclasses
        # float) are strongly typed and would change promotion semantics.
        return isinstance(value, (int, float)) and not isinstance(value, (bool, np.generic))

    def __add__(self, other) -> "Tensor":
        if Tensor._is_scalar(other):
            # Scalar fast path: NumPy weak promotion keeps the tensor dtype
            # (no silent float64 upcast) and full scalar precision.
            def backward_s(out: Tensor) -> None:
                self._accumulate(out.grad)

            return Tensor._make(self.data + other, (self,), backward_s)
        other = Tensor._coerce(other)

        def backward(out: Tensor) -> None:
            g = out.grad
            ga = _unbroadcast(g, self.shape)
            self._accumulate(ga, owned=ga is not g)
            gb = _unbroadcast(g, other.shape)
            other._accumulate(gb, owned=gb is not g)

        return Tensor._make(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(out: Tensor) -> None:
            self._accumulate(-out.grad, owned=True)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        if Tensor._is_scalar(other):
            return self + (-other)
        return self + (-Tensor._coerce(other))

    def __rsub__(self, other) -> "Tensor":
        if Tensor._is_scalar(other):
            return (-self) + other
        return Tensor._coerce(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        if Tensor._is_scalar(other):
            def backward_s(out: Tensor) -> None:
                self._accumulate(out.grad * other, owned=True)

            return Tensor._make(self.data * other, (self,), backward_s)
        other = Tensor._coerce(other)

        def backward(out: Tensor) -> None:
            self._accumulate(_unbroadcast(out.grad * other.data, self.shape), owned=True)
            other._accumulate(_unbroadcast(out.grad * self.data, other.shape), owned=True)

        return Tensor._make(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        if Tensor._is_scalar(other):
            return self * (1.0 / other)
        other = Tensor._coerce(other)

        def backward(out: Tensor) -> None:
            self._accumulate(_unbroadcast(out.grad / other.data, self.shape), owned=True)
            other._accumulate(
                _unbroadcast(-out.grad * self.data / (other.data * other.data), other.shape),
                owned=True,
            )

        return Tensor._make(self.data / other.data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        if Tensor._is_scalar(other):
            inv = self ** -1.0
            return inv * other
        return Tensor._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad * exponent * np.power(self.data, exponent - 1),
                             owned=True)

        return Tensor._make(np.power(self.data, exponent), (self,), backward)

    @profiled_op("gemm")
    def __matmul__(self, other) -> "Tensor":
        other = Tensor._coerce(other)

        def backward(out: Tensor) -> None:
            a, b, g = self.data, other.data, out.grad
            if a.ndim == 1 and b.ndim == 1:  # dot product -> scalar
                self._accumulate(g * b, owned=True)
                other._accumulate(g * a, owned=True)
                return
            if a.ndim == 1:
                a2 = a[None, :]
                ga = (g[None, ...] if g.ndim == b.ndim - 1 else g) @ np.swapaxes(b, -1, -2)
                self._accumulate(_unbroadcast(ga, a2.shape).reshape(a.shape), owned=True)
                gb = np.swapaxes(a2, -1, -2) @ (g[None, ...] if g.ndim == b.ndim - 1 else g)
                other._accumulate(_unbroadcast(gb, b.shape), owned=True)
                return
            if b.ndim == 1:
                b2 = b[:, None]
                g2 = g[..., None]
                self._accumulate(_unbroadcast(g2 @ np.swapaxes(b2, -1, -2), a.shape), owned=True)
                gb = np.swapaxes(a, -1, -2) @ g2
                other._accumulate(_unbroadcast(gb, b2.shape).reshape(b.shape), owned=True)
                return
            self._accumulate(_unbroadcast(g @ np.swapaxes(b, -1, -2), a.shape), owned=True)
            other._accumulate(_unbroadcast(np.swapaxes(a, -1, -2) @ g, b.shape), owned=True)

        return Tensor._make(self.data @ other.data, (self, other), backward)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        result = np.exp(self.data)

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad * out.data, owned=True)

        return Tensor._make(result, (self,), backward)

    def log(self) -> "Tensor":
        def backward(out: Tensor) -> None:
            self._accumulate(out.grad / self.data, owned=True)

        return Tensor._make(np.log(self.data), (self,), backward)

    def sqrt(self) -> "Tensor":
        result = np.sqrt(self.data)

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad * 0.5 / out.data, owned=True)

        return Tensor._make(result, (self,), backward)

    @profiled_op("tanh")
    def tanh(self) -> "Tensor":
        result = np.tanh(self.data)

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad * (1.0 - out.data * out.data), owned=True)

        return Tensor._make(result, (self,), backward)

    @profiled_op("sigmoid")
    def sigmoid(self) -> "Tensor":
        result = _sigmoid(self.data)

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad * out.data * (1.0 - out.data), owned=True)

        return Tensor._make(result, (self,), backward)

    @profiled_op("relu")
    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad * mask, owned=True)

        return Tensor._make(self.data * mask, (self,), backward)

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad * sign, owned=True)

        return Tensor._make(np.abs(self.data), (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        mask = (self.data > low) & (self.data < high)

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad * mask, owned=True)

        return Tensor._make(np.clip(self.data, low, high), (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        def backward(out: Tensor) -> None:
            grad = out.grad
            if axis is not None and not keepdims:
                axes = (axis,) if np.isscalar(axis) else tuple(axis)
                axes = tuple(a % self.ndim for a in axes)
                grad = np.expand_dims(grad, tuple(sorted(axes)))
            self._accumulate(np.broadcast_to(grad, self.shape).copy(), owned=True)

        return Tensor._make(self.data.sum(axis=axis, keepdims=keepdims), (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = (axis,) if np.isscalar(axis) else tuple(axis)
            count = int(np.prod([self.shape[a % self.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        result = self.data.max(axis=axis, keepdims=keepdims)

        def backward(out: Tensor) -> None:
            expanded = result if keepdims or axis is None else np.expand_dims(
                result, axis if np.isscalar(axis) else tuple(axis)
            )
            mask = (self.data == expanded).astype(self.data.dtype)
            mask /= mask.sum(axis=axis, keepdims=True)  # split ties evenly
            grad = out.grad
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis if np.isscalar(axis) else tuple(axis))
            self._accumulate(mask * grad, owned=True)

        return Tensor._make(result, (self,), backward)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        centered = self - self.mean(axis=axis, keepdims=True)
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad.reshape(self.shape))

        return Tensor._make(self.data.reshape(shape), (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        axes = axes or tuple(reversed(range(self.ndim)))
        inverse = [0] * len(axes)
        for position, axis in enumerate(axes):
            inverse[axis] = position
        inverse = tuple(inverse)

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad.transpose(inverse))

        return Tensor._make(self.data.transpose(axes), (self,), backward)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(tuple(axes))

    def __getitem__(self, index) -> "Tensor":
        def backward(out: Tensor) -> None:
            grad = np.zeros_like(self.data)
            _index_add(grad, index, out.grad)
            self._accumulate(grad, owned=True)

        return Tensor._make(self.data[index], (self,), backward)

    def pad(self, pad_width) -> "Tensor":
        """Zero-pad; ``pad_width`` as for :func:`np.pad`."""
        widths = tuple(tuple(w) for w in pad_width)

        def backward(out: Tensor) -> None:
            slices = tuple(
                slice(before, dim + before) for (before, _), dim in zip(widths, self.shape)
            )
            self._accumulate(out.grad[slices])

        return Tensor._make(np.pad(self.data, widths), (self,), backward)

    @staticmethod
    def concat(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor._coerce(t) for t in tensors]

        def backward(out: Tensor) -> None:
            start = 0
            for t in tensors:
                index = [slice(None)] * out.ndim
                index[axis] = slice(start, start + t.shape[axis])
                t._accumulate(out.grad[tuple(index)])
                start += t.shape[axis]

        return Tensor._make(
            np.concatenate([t.data for t in tensors], axis=axis), tensors, backward
        )

    @staticmethod
    def stack(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor._coerce(t) for t in tensors]

        def backward(out: Tensor) -> None:
            grads = np.moveaxis(out.grad, axis, 0)
            for t, g in zip(tensors, grads):
                t._accumulate(g)

        return Tensor._make(np.stack([t.data for t in tensors], axis=axis), tensors, backward)

    @staticmethod
    def where(condition: np.ndarray, a: "Tensor", b: "Tensor") -> "Tensor":
        a, b = Tensor._coerce(a), Tensor._coerce(b)
        condition = np.asarray(condition)

        def backward(out: Tensor) -> None:
            a._accumulate(_unbroadcast(out.grad * condition, a.shape), owned=True)
            b._accumulate(_unbroadcast(out.grad * (~condition), b.shape), owned=True)

        return Tensor._make(np.where(condition, a.data, b.data), (a, b), backward)

    # ------------------------------------------------------------------
    # Gather / scatter (for embeddings)
    # ------------------------------------------------------------------
    def take_rows(self, indices: np.ndarray) -> "Tensor":
        """Row gather: ``out[i...] = self[indices[i...]]`` along axis 0.

        The adjoint scatters (with accumulation on duplicate indices), which
        is exactly the gradient of an embedding lookup.
        """
        indices = np.asarray(indices)

        def backward(out: Tensor) -> None:
            grad = np.zeros_like(self.data)
            np.add.at(grad, indices.reshape(-1), out.grad.reshape(-1, *self.shape[1:]))
            self._accumulate(grad, owned=True)

        return Tensor._make(self.data[indices], (self,), backward)
