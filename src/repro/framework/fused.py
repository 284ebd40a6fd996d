"""Fused kernels: several autograd nodes collapsed into one.

§2.2.4's point that math libraries win by picking equivalent-but-faster
algorithms applies to graph shape too: ``conv → bias → relu`` as three
``Tensor`` nodes materializes two extra full activations and walks three
closures backward.  The kernels here compute the same values (bit-identical
— enforced by tests) in one node, with element masks applied in place.

Each kernel takes its fused path when its operands allow it (one float
dtype, plus the shape or dropout its own check names) and otherwise runs
``_<op>_reference``, the composition of primitives it is checked against,
counting the fallback; call sites use the kernels unconditionally.  A
fused path's forward is one array function (``*_array``), which the
no-graph entry points also call once :func:`fused_path` admits them.
"""

from __future__ import annotations

import math

import numpy as np

from .conv import _check_conv_args, _conv2d_fused, _conv2d_reference, _uniform_float_dtype
from .prof import profiled_op
from .functional import softmax
from .tensor import Tensor, _sigmoid, _unbroadcast, is_grad_enabled

__all__ = ["conv2d_bias_relu", "linear_bias_act", "linear_array", "normalize",
           "normalize_array", "fused_path", "lstm_cell", "attention"]

_ACTS = ("none", "relu")


def _count_fallback(op: str, reason: str) -> None:
    """``op`` ran its reference composition instead of its kernel: say so.

    Called on that branch only, so the kernel path pays nothing.  The count
    lands in the ambient metrics registry as ``kernel_fallbacks.<op>.<reason>``
    (a no-op instrument when no telemetry session is active).
    """
    from ..telemetry import current_metrics

    current_metrics().counter(f"kernel_fallbacks.{op}.{reason}").inc()


def fused_path(op: str, *operands) -> bool:
    """Whether ``operands`` share one float dtype, so that entry point ``op``
    may run on the array functions; if not, count its fallback."""
    if _uniform_float_dtype(*operands) is not None:
        return True
    _count_fallback(op, "mixed_dtype")
    return False


@profiled_op("conv2d_bias_relu")
def conv2d_bias_relu(x: Tensor, weight: Tensor, bias: Tensor | None = None,
                     stride: int = 1, pad: int = 0) -> Tensor:
    """Fused ``relu(conv2d(x, w, b))`` — one graph node, in-place mask.

    Bit-identical to the composition; the single-node kernel runs when the
    operands share one float dtype.
    """
    _check_conv_args(x, weight, stride, pad)
    dt = _uniform_float_dtype(x, weight, bias)
    if dt is not None:
        return _conv2d_fused(x, weight, bias, stride, pad, dt, relu=True)
    _count_fallback("conv2d_bias_relu", "mixed_dtype")
    return _conv2d_bias_relu_reference(x, weight, bias, stride, pad)


def _conv2d_bias_relu_reference(x: Tensor, weight: Tensor, bias: Tensor | None,
                                stride: int, pad: int) -> Tensor:
    return _conv2d_reference(x, weight, bias, stride, pad).relu()


@profiled_op("linear")
def linear_bias_act(x: Tensor, weight: Tensor, bias: Tensor | None = None,
                    act: str = "none") -> Tensor:
    """Fused affine map ``act(x @ W.T + b)`` (``act``: ``none`` | ``relu``).

    One autograd node instead of up to three; the bias add and the ReLU
    mask are applied in place on the GEMM output, so no intermediate
    activations are materialized.  Bit-identical to the composition.
    """
    if act not in _ACTS:
        raise ValueError(f"act must be one of {_ACTS}, got {act!r}")
    dt = _uniform_float_dtype(x, weight, bias) if x.ndim >= 2 else None
    if dt is not None:
        return _linear_fused(x, weight, bias, act, dt)
    _count_fallback("linear", "ndim" if x.ndim < 2 else "mixed_dtype")
    return _linear_reference(x, weight, bias, act)


def _linear_reference(x: Tensor, weight: Tensor, bias: Tensor | None, act: str) -> Tensor:
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out.relu() if act == "relu" else out


def linear_array(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None,
                 act: str = "none"):
    """``act(x @ W.T + b)`` on raw arrays of one float dtype, bias and mask in
    place, and (``act="relu"``, else ``None``) the mask: the kernel's forward."""
    y = np.matmul(x, weight.T)
    if bias is not None:
        y += bias
    mask = None
    if act == "relu":
        mask = np.greater(y, 0)
        y *= mask
    return y, mask


def _linear_fused(x: Tensor, weight: Tensor, bias: Tensor | None, act: str, dt) -> Tensor:
    wd = weight.data
    y, mask = linear_array(x.data, wd, None if bias is None else bias.data, act)
    if not is_grad_enabled():
        return Tensor(y)
    parents = (x, weight) if bias is None else (x, weight, bias)
    if not any(t.requires_grad for t in parents):
        return Tensor(y)

    def backward(result: Tensor) -> None:
        g = result.grad
        if mask is not None:
            g = g * mask
        if bias is not None:
            bias._accumulate(_unbroadcast(g, bias.shape))
        if weight.requires_grad:
            # Mirror the unfused graph exactly: the matmul node's adjoint
            # for W.T, un-broadcast over batch dims, then the transpose
            # node's adjoint back to W's layout.
            gw_t = _unbroadcast(np.swapaxes(x.data, -1, -2) @ g, (wd.shape[1], wd.shape[0]))
            weight._accumulate(gw_t.transpose(1, 0))
        if x.requires_grad:
            x._accumulate(_unbroadcast(g @ wd, x.shape))

    return Tensor._make(y, parents, backward)


@profiled_op("normalize")
def normalize(x: Tensor, axes, gamma: Tensor, beta: Tensor, eps: float,
              shape: tuple[int, ...] | None = None,
              moments: tuple[np.ndarray, np.ndarray] | None = None,
              observe=None, *, residual: Tensor | None = None,
              act: str = "none") -> Tensor:
    """Fused ``act((x - mean) / sqrt(var + eps) * gamma + beta + residual)``.

    The one kernel behind ``BatchNorm1d/2d`` and ``LayerNorm``.  ``mean`` and
    ``var`` are the statistics of ``x`` over ``axes`` (kept as size-1 axes),
    and ``observe(mean, var)``, if given, is called with them (batch norm's
    running averages).  ``moments=(mean, var)`` normalizes with those
    constants instead (eval-mode batch norm).  ``gamma`` and ``beta`` are
    viewed as ``shape`` before broadcasting when ``shape`` is given.
    ``residual`` (a tensor of ``x``'s shape) is added after the affine map
    and ``act`` (``none`` | ``relu``) applied last: ResNet v1.5's block end.

    The composed graph is 18 nodes that compute the mean and ``x - mean``
    twice, plus one for the residual add and one for the ReLU; the kernel is
    one node that runs that arithmetic sequence once on raw arrays, adds and
    masks in place, and keeps only the operands, the result and per-feature
    moments: its backward recomputes ``x - mean`` and ``xhat`` from them.
    The adjoints replay the composed graph's in its order, so the result,
    every gradient and the observed moments are bit-identical to it.
    Operands of mixed dtype use the composition, as in the other kernels.
    """
    if act not in _ACTS:
        raise ValueError(f"act must be one of {_ACTS}, got {act!r}")
    if residual is not None and residual.shape != x.shape:
        raise ValueError(f"residual shape {residual.shape} != input shape {x.shape}")
    if _uniform_float_dtype(x, gamma, beta, residual, *(moments or ())) is not None:
        return _normalize_fused(x, axes, gamma, beta, eps, shape, moments, observe,
                                residual, act)
    _count_fallback("normalize", "mixed_dtype")
    return _normalize_reference(x, axes, gamma, beta, eps, shape, moments, observe,
                                residual, act)


def _normalize_reference(x: Tensor, axes, gamma: Tensor, beta: Tensor, eps: float,
                         shape, moments, observe, residual, act) -> Tensor:
    if moments is None:
        mean = x.mean(axis=axes, keepdims=True)
        var = x.var(axis=axes, keepdims=True)
        if observe is not None:
            observe(mean.data, var.data)
    else:
        mean, var = Tensor(moments[0]), Tensor(moments[1])
    xhat = (x - mean) / (var + eps).sqrt()
    if shape is None:
        out = xhat * gamma + beta
    else:
        out = xhat * gamma.reshape(shape) + beta.reshape(shape)
    if residual is not None:
        out = out + residual
    return out.relu() if act == "relu" else out


def normalize_array(x: np.ndarray, axes, gamma: np.ndarray, beta: np.ndarray, eps: float,
                    moments: tuple[np.ndarray, np.ndarray] | None = None, observe=None,
                    residual: np.ndarray | None = None, act: str = "none"):
    """:func:`normalize`'s forward on raw arrays of one float dtype, ``gamma``
    and ``beta`` in their broadcast shape: ``y`` and, for the backward,
    ``(mean, std, 1 / count)`` (the count of batch statistics, else ``None``)."""
    inv_n = None
    if moments is None:
        reduced = (axes,) if np.isscalar(axes) else tuple(axes)
        inv_n = 1.0 / math.prod(x.shape[a % x.ndim] for a in reduced)
        mean = x.sum(axis=axes, keepdims=True) * inv_n
        centered = x + (-mean)
        var = (centered * centered).sum(axis=axes, keepdims=True) * inv_n
        if observe is not None:
            observe(mean, var)
    else:
        mean, var = moments
        centered = x + (-mean)
    std = np.sqrt(var + eps)
    # Each intermediate is dropped once the next exists.  ``xhat`` stays a
    # named array while it is read, here and in the backward: NumPy may
    # write a product into an unnamed operand's buffer, whose layout need
    # not be the one the composition gives the product, and layout decides
    # the order of every later reduction over it.
    xhat = centered / std
    del centered
    y = xhat * gamma + beta
    del xhat
    if residual is not None:
        # The composed add's result takes its operands' layout when they
        # share one; otherwise NumPy picks, so let it.
        if y.strides == residual.strides:
            y += residual
        else:
            y = y + residual
    if act == "relu":
        # The composed mask is ``z > 0``; it is ``y > 0`` after masking too
        # (a masked element is ±0 or NaN), so the backward recomputes it.
        y *= np.greater(y, 0)
    return y, (mean, std, inv_n)


def _normalize_fused(x: Tensor, axes, gamma: Tensor, beta: Tensor, eps: float,
                     shape, moments, observe, residual, act) -> Tensor:
    xd = x.data
    gd = gamma.data if shape is None else gamma.data.reshape(shape)
    bd = beta.data if shape is None else beta.data.reshape(shape)
    y, (mean, std, inv_n) = normalize_array(xd, axes, gd, bd, eps, moments, observe,
                                            None if residual is None else residual.data, act)
    if not is_grad_enabled():
        return Tensor(y)
    parents = (x, gamma, beta) if residual is None else (x, gamma, beta, residual)
    if not any(t.requires_grad for t in parents):
        return Tensor(y)

    def backward(result: Tensor) -> None:
        # Each line is one adjoint of the composed graph, named after the
        # node whose gradient it produces.  ``x`` has four consumers there
        # (``x - mean`` and the sum inside ``mean``, once for ``xhat`` and
        # once inside ``var``); float addition does not associate, so they
        # accumulate into ``x.grad`` in the order that graph's reverse
        # topological walk reaches them.  ``x - mean`` and ``xhat`` are
        # recomputed with the forward's operations on the forward's
        # operands, so they are its bits, in its layouts.
        g = result.grad
        if act == "relu":
            g = g * np.greater(result.data, 0)
        if residual is not None:
            # The add node's term reaches ``residual`` before any of the
            # affine map's reach ``gamma``, ``beta`` or ``x``.  The masked
            # ``g`` is fresh, so ``residual`` may adopt it: the lines below
            # only read it, unless they accumulate into ``residual`` too.
            residual._accumulate(g, owned=act == "relu" and all(
                residual is not t for t in (x, gamma, beta)))
        g_xhat = g * gd
        centered = xd + (-mean)
        xhat = centered / std
        gamma._accumulate(_unbroadcast(g * xhat, gd.shape).reshape(gamma.shape))
        del xhat
        beta._accumulate(_unbroadcast(g, bd.shape).reshape(beta.shape))
        if not x.requires_grad:
            return
        g_centered = g_xhat / std
        if inv_n is None:  # constant moments
            x._accumulate(g_centered, owned=True)
            return
        g_sum = -_unbroadcast(g_centered, mean.shape) * inv_n
        g_std = _unbroadcast(-g_xhat * centered / (std * std), std.shape)
        g_sqsum = g_std * 0.5 / std * inv_n
        # Materialised as the sum adjoint does: the layout of this product
        # (and so the order of the reduction below) depends on it.
        g_centered_var = np.broadcast_to(g_sqsum, xd.shape).copy() * centered
        g_centered_var += g_centered_var
        g_sum_var = -_unbroadcast(g_centered_var, mean.shape) * inv_n
        x._accumulate(g_centered, owned=True)
        x._accumulate(np.broadcast_to(g_sum, xd.shape))
        x._accumulate(g_centered_var)
        x._accumulate(np.broadcast_to(g_sum_var, xd.shape))

    return Tensor._make(y, parents, backward)


@profiled_op("lstm_cell")
def lstm_cell(x: Tensor, h_prev: Tensor, c_prev: Tensor, w_x: Tensor, w_h: Tensor,
              bias: Tensor, mask: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
    """One LSTM step; returns the new ``(h, c)``.

    ``x`` is ``(N, input)``, the state ``(N, H)``; ``w_x``/``w_h``/``bias``
    hold the input, forget, cell and output gates stacked along their first
    axis.  ``mask`` is an ``(N, 1)`` array of 0/1 in ``x``'s dtype: rows at 0
    keep their previous state (a padded batch).

    The composed graph is 19 nodes (25 with the mask) whose four gate
    slices each scatter into a zeroed ``(N, 4H)`` adjoint.  The kernel runs
    the same arithmetic sequence on raw arrays and keeps only the nodes
    whose position in the reverse walk decides an accumulation order: the
    two weight transposes (a recurrent weight collects one term per time
    step), the cell state, ``h``, and the blended ``c`` when masked.  Their
    adjoints are the composed graph's, in its order, written into one gate
    buffer, so ``h``, ``c`` and every gradient are bit-identical to it.
    Operands of mixed dtype use the composition, as in the other kernels.
    """
    if x.ndim == 2 and _uniform_float_dtype(
            x, h_prev, c_prev, w_x, w_h, bias, mask) is not None:
        return _lstm_cell_fused(x, h_prev, c_prev, w_x, w_h, bias, mask)
    _count_fallback("lstm_cell", "ndim" if x.ndim != 2 else "mixed_dtype")
    return _lstm_cell_reference(x, h_prev, c_prev, w_x, w_h, bias, mask)


def _lstm_cell_reference(x: Tensor, h_prev: Tensor, c_prev: Tensor, w_x: Tensor,
                         w_h: Tensor, bias: Tensor, mask) -> tuple[Tensor, Tensor]:
    hs = w_h.shape[1]
    gates = x @ w_x.T + h_prev @ w_h.T + bias
    i = gates[:, 0 * hs : 1 * hs].sigmoid()
    f = gates[:, 1 * hs : 2 * hs].sigmoid()
    g = gates[:, 2 * hs : 3 * hs].tanh()
    o = gates[:, 3 * hs : 4 * hs].sigmoid()
    c = f * c_prev + i * g
    h = o * c.tanh()
    if mask is not None:
        h = h * mask + h_prev * (1.0 - mask)
        c = c * mask + c_prev * (1.0 - mask)
    return h, c


def _lstm_cell_fused(x: Tensor, h_prev: Tensor, c_prev: Tensor, w_x: Tensor,
                     w_h: Tensor, bias: Tensor, mask) -> tuple[Tensor, Tensor]:
    hs = w_h.shape[1]
    xd, hd, cd = x.data, h_prev.data, c_prev.data
    gates = np.matmul(xd, w_x.data.T)
    gates += np.matmul(hd, w_h.data.T)
    gates += bias.data
    i = _sigmoid(gates[:, :hs])
    f = _sigmoid(gates[:, hs : 2 * hs])
    g = np.tanh(gates[:, 2 * hs : 3 * hs])
    o = _sigmoid(gates[:, 3 * hs :])
    c_raw = f * cd
    c_raw += i * g
    tc = np.tanh(c_raw)
    h = o * tc
    c = c_raw
    if mask is not None:
        keep = 1.0 - mask
        h *= mask
        h += hd * keep
        c = c_raw * mask
        c += cd * keep
    if not (is_grad_enabled() and any(
            t.requires_grad for t in (x, h_prev, c_prev, w_x, w_h, bias))):
        return Tensor(h), Tensor(c)

    # The pre-activations are dead once the gates exist, so their array is
    # the gate-gradient buffer.  ``h``'s adjoint fills the output gate's
    # slice for the cell's adjoint, which always runs after it.
    dgates = gates
    output_gate_filled = False

    def backward_h(result: Tensor) -> None:
        nonlocal output_gate_filled
        g_h = result.grad
        if mask is not None:
            # The rows this reaches are the rows the cell's own term for
            # ``h_prev`` leaves at zero, so which lands first is immaterial.
            if h_prev.requires_grad:
                h_prev._accumulate(g_h * keep, owned=True)
            g_h = g_h * mask
        np.multiply(g_h * tc * o, 1.0 - o, out=dgates[:, 3 * hs :])
        output_gate_filled = True
        cell._accumulate(g_h * o * (1.0 - tc * tc), owned=True)

    def backward_c(result: Tensor) -> None:
        g_c = result.grad
        cell._accumulate(g_c * mask, owned=True)
        if c_prev.requires_grad:
            c_prev._accumulate(g_c * keep, owned=True)

    def backward_cell(result: Tensor) -> None:
        nonlocal output_gate_filled
        g_c, dg = result.grad, dgates
        if not output_gate_filled:  # ``h`` had no gradient: nor has its gate
            dg[:, 3 * hs :] = 0.0
        np.multiply(g_c * g * i, 1.0 - i, out=dg[:, :hs])
        np.multiply(g_c * cd * f, 1.0 - f, out=dg[:, hs : 2 * hs])
        np.multiply(g_c * i, 1.0 - g * g, out=dg[:, 2 * hs : 3 * hs])
        # The slices' adjoints add into a zeroed buffer: -0.0 lands as +0.0.
        dg += 0.0
        if c_prev.requires_grad:
            c_prev._accumulate(g_c * f, owned=True)
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(dg, bias.shape), owned=True)
        if x.requires_grad:
            x._accumulate(dg @ w_x.data, owned=True)
        if w_xt.requires_grad:
            w_xt._accumulate(xd.T @ dg, owned=True)
        if h_prev.requires_grad:
            h_prev._accumulate(dg @ w_h.data, owned=True)
        if w_ht.requires_grad:
            w_ht._accumulate(hd.T @ dg, owned=True)
        output_gate_filled = False

    # The transposes stay graph nodes: each passes its gradient on when the
    # reverse walk reaches *it* -- for ``w_h`` after the earlier time steps
    # (unmasked) or before them (masked) -- and a kernel that added into
    # ``w_h.grad`` at the cell's own position would sum the steps in another
    # order.  Parent order below is the order the composed graph's walk
    # meets the same tensors in, reversed.
    w_xt, w_ht = w_x.T, w_h.T
    cell = Tensor._make(c_raw, (c_prev, x, w_xt, h_prev, w_ht, bias), backward_cell)
    if mask is None:
        return Tensor._make(h, (cell,), backward_h), cell
    return (Tensor._make(h, (cell, h_prev), backward_h),
            Tensor._make(c, (cell, c_prev), backward_c))


def _split_heads(x, num_heads: int):
    """``(N, T, D)`` tensor or array as its ``(N, heads, T, D // heads)`` view."""
    n, t, d = x.shape
    return x.reshape(n, t, num_heads, d // num_heads).transpose(0, 2, 1, 3)


@profiled_op("attention")
def attention(q: Tensor, k: Tensor, v: Tensor, bias: np.ndarray | None, scale: float,
              num_heads: int, dropout=None) -> Tensor:
    """Multi-head scaled dot-product attention over projected operands.

    ``q`` is ``(N, Tq, D)``, ``k`` and ``v`` ``(N, Tk, D)``; each is cut into
    ``num_heads`` heads of ``D // num_heads``.  ``bias`` is an additive mask
    broadcastable to the ``(N, heads, Tq, Tk)`` scores (or ``None``),
    ``scale`` a Python float, ``dropout`` a callable applied to the attention
    weights (or ``None``).  Returns the heads' contexts merged to
    ``(N, Tq, D)``.

    The composed graph is 14 nodes (three head splits of two nodes each, the
    key transpose, scores, scale, bias, softmax, context, and the merge's
    two).  The kernel runs that arithmetic once on raw arrays, in place
    where the value is unchanged, and its backward replays the adjoints on
    operands of the layouts the composed graph hands them, so the result and
    the three gradients are bit-identical to it.  The node's parents are
    ``(q, k, v)`` in that order: it is the order the composed graph's reverse
    walk reaches the three projections in, and so the order their terms land
    in a tensor all three were projected from.  Mixed dtypes and a
    ``dropout`` (which draws from its generator between two of the fused
    steps) use the composition.
    """
    if dropout is not None:
        _count_fallback("attention", "dropout")
    elif _uniform_float_dtype(q, k, v, bias) is None:
        _count_fallback("attention", "mixed_dtype")
    else:
        return _attention_fused(q, k, v, bias, scale, num_heads)
    return _attention_reference(q, k, v, bias, scale, num_heads, dropout)


def _attention_reference(q: Tensor, k: Tensor, v: Tensor, bias, scale: float,
                         num_heads: int, dropout) -> Tensor:
    n, tq, d = q.shape
    qh, kh, vh = (_split_heads(t, num_heads) for t in (q, k, v))
    scores = (qh @ kh.transpose(0, 1, 3, 2)) * scale
    if bias is not None:
        scores = scores + Tensor(bias)
    attn = softmax(scores, axis=-1)
    if dropout is not None:
        attn = dropout(attn)
    return (attn @ vh).transpose(0, 2, 1, 3).reshape(n, tq, d)


def _attention_fused(q: Tensor, k: Tensor, v: Tensor, bias, scale: float,
                     num_heads: int) -> Tensor:
    n, tq, d = q.shape
    tk = k.shape[1]
    # Strided views of the projections, as the composed head split makes them.
    qh, kh, vh = (_split_heads(t.data, num_heads) for t in (q, k, v))
    attn = np.matmul(qh, kh.transpose(0, 1, 3, 2))
    attn *= scale
    if bias is not None:
        attn += bias
    attn -= attn.max(axis=-1, keepdims=True)
    np.exp(attn, out=attn)
    attn /= attn.sum(axis=-1, keepdims=True)
    merged = np.matmul(attn, vh).transpose(0, 2, 1, 3).reshape(n, tq, d)
    if not (is_grad_enabled() and (q.requires_grad or k.requires_grad or v.requires_grad)):
        return Tensor(merged)

    def backward(result: Tensor) -> None:
        # (N, H, Tq, dh) values in (N, Tq, H, dh) memory: the context's
        # gradient as the merge's adjoints leave it (they copy in K order,
        # so a view of a dense gradient has their strides), and what the two
        # products below must see for their bits to match.
        g_ctx = _split_heads(result.grad, num_heads)
        g_s = np.matmul(g_ctx, vh.transpose(0, 1, 3, 2))
        # softmax, then the bias add (a pass-through), then the scale
        g_s -= (g_s * attn).sum(axis=-1, keepdims=True)
        g_s *= attn
        g_s *= scale
        if q.requires_grad:
            g_q = np.matmul(g_s, kh)
            q._accumulate(g_q.transpose(0, 2, 1, 3).reshape(n, tq, d), owned=True)
        if k.requires_grad:
            g_kt = np.matmul(qh.transpose(0, 1, 3, 2), g_s)
            k._accumulate(g_kt.transpose(0, 3, 1, 2).reshape(n, tk, d), owned=True)
        if v.requires_grad:
            g_v = np.matmul(attn.transpose(0, 1, 3, 2), g_ctx)
            v._accumulate(g_v.transpose(0, 2, 1, 3).reshape(n, tk, d), owned=True)

    return Tensor._make(merged, (q, k, v), backward)
