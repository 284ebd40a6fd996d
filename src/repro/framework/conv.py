"""Convolution primitives and global average pooling (NCHW layout).

The production path implements convolution with im2col + GEMM — the same
"algorithmic choice" the paper discusses in §2.2.4 when noting that math
libraries offer many mathematically-equivalent convolution algorithms.  A
deliberately naive direct convolution is also provided as the gold-standard
reference (used in tests and the im2col-vs-naive ablation bench).

:func:`conv2d` dispatches on :func:`repro.framework.config.kernel_mode`:

- ``naive`` runs the original im2col implementation below;
- ``fused`` unfolds patches with one gather straight into the patch-major
  layout the GEMM wants — no padded copy, none of the naive path's
  ``ascontiguousarray`` transpose copies — through an index cached per
  geometry (:func:`_patch_index`), and applies bias and ReLU in place on
  the GEMM output.  The ``kh*kw`` strided col2im passes of the fold run
  over blocks of samples whose slab of the patch-gradient matrix fits in
  cache (``_BLOCK_BYTES``); the GEMMs stay whole-batch.  Only data movement
  is blocked, never arithmetic: each padded pixel still receives its terms
  in ``(i, j)`` order.

Both modes allocate their scratch per call with ``np.empty`` and drop it
when done (a scratch pool was measured and removed, DESIGN.md).  The fused
backward closure keeps ``x``, ``w2`` and the ReLU mask, not the patch
matrix (9x the input for a 3x3 kernel): the weight gradient re-unfolds
``x`` with the same gather, so a training graph holds no patch matrix.  The
fused variant is **bit-identical** to ``naive``: same element values, same
accumulation order, same dtypes (enforced by tests, including with every
scratch buffer poisoned before the kernel writes it).

Global average pooling, the only pooling a suite model uses, is a mean
with one implementation in every mode (DESIGN.md, *Measured and removed*).
"""

from __future__ import annotations

import functools

import numpy as np

from .config import kernel_mode
from .prof import profiled_op
from .tensor import Tensor, is_grad_enabled

__all__ = [
    "im2col",
    "col2im",
    "conv2d",
    "conv2d_naive",
    "conv2d_same",
    "global_avg_pool2d",
]


def im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int) -> np.ndarray:
    """Unfold ``(N,C,H,W)`` into ``(N, C*kh*kw, OH*OW)`` patch columns."""
    n, c, h, w = x.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    img = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    col = np.empty((n, c, kh, kw, oh, ow), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            col[:, :, i, j] = img[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride]
    return col.reshape(n, c * kh * kw, oh * ow)


def col2im(
    col: np.ndarray, x_shape: tuple[int, ...], kh: int, kw: int, stride: int, pad: int
) -> np.ndarray:
    """Adjoint of :func:`im2col`: fold patch columns back, accumulating overlaps."""
    n, c, h, w = x_shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    col = col.reshape(n, c, kh, kw, oh, ow)
    img = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=col.dtype)
    for i in range(kh):
        for j in range(kw):
            img[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += col[:, :, i, j]
    return img[:, :, pad : pad + h, pad : pad + w]


# ---------------------------------------------------------------------------
# Fused-mode helpers
# ---------------------------------------------------------------------------

def _uniform_float_dtype(x: Tensor, *others):
    """The shared float dtype of the operands, or ``None`` when mixed.

    ``others`` are tensors or arrays; a ``None`` among them (an absent bias
    or mask) is skipped.  The fused kernels add bias in place, which would
    silently demote a mixed-precision promotion the naive path performs;
    mixed-dtype calls therefore fall back to the reference implementation.
    """
    dt = x.dtype
    if dt.kind != "f":
        return None
    for t in others:
        if t is not None and t.dtype != dt:
            return None
    return dt


@functools.lru_cache
def _patch_index(c: int, h: int, w: int, kh: int, kw: int, stride: int, pad: int) -> np.ndarray:
    """Flat offsets of one sample's patch-major ``(OH, OW, C, kh, kw)`` unfold.

    Entry ``(oy, ox, ci, i, j)`` reads pixel ``(ci, oy*stride+i-pad,
    ox*stride+j-pad)``; a padding tap reads slot ``C*H*W``, the zero
    :func:`_unfold` appends.  Keyed on geometry alone: one entry per shape.
    """
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    rows = (np.arange(oh)[:, None] * stride + np.arange(kh) - pad)[:, None, None, :, None]
    cols = (np.arange(ow)[:, None] * stride + np.arange(kw) - pad)[None, :, None, None, :]
    chans = np.arange(c)[:, None, None] * (h * w)
    inside = (rows >= 0) & (rows < h) & (cols >= 0) & (cols < w)
    idx = np.where(inside, chans + rows * w + cols, c * h * w).astype(np.intp).reshape(-1)
    idx.flags.writeable = False
    return idx


def _unfold(x: np.ndarray, kh: int, kw: int, stride: int, pad: int) -> np.ndarray:
    """``(N, OH*OW*C*kh*kw)`` patch-major unfold of ``x``, by one gather.

    As ``(N*OH*OW, C*kh*kw)`` it is the naive path's
    ``ascontiguousarray(transpose(im2col))``, copied element for element.
    """
    n, c, h, w = x.shape
    src = np.empty((n, c * h * w + 1), x.dtype)
    src[:, :-1].reshape(n, c, h, w)[...] = x
    src[:, -1] = 0
    # Every offset is in range, so "wrap" never wraps; its per-element
    # range test is just cheaper than the default "raise"'s (~25 %).
    return np.take(src, _patch_index(c, h, w, kh, kw, stride, pad), axis=1, mode="wrap")


# Each of the kh*kw fold passes reads one element in every kh*kw of a
# patch-gradient matrix several times the L2 cache; running all the taps
# over a slab of samples this big keeps the slab resident between taps.  A
# constant, not a knob: 256 KiB / 512 KiB / 1 MiB time within 4 % of each
# other (DESIGN.md, *Kernel modes*), and the bits are the same at any value.
_BLOCK_BYTES = 512 * 1024


def _block(n: int, per_sample_bytes: int) -> int:
    """Samples per fold block: all ``n`` whenever ``n`` samples fit."""
    if n * per_sample_bytes > _BLOCK_BYTES:
        n = _BLOCK_BYTES // per_sample_bytes
    return max(1, n)


def _conv2d_fused(x: Tensor, weight: Tensor, bias: Tensor | None,
                  stride: int, pad: int, dt, relu: bool = False) -> Tensor:
    """im2col + GEMM convolution over a patch-major unfold.

    With ``relu=True`` this is the fused conv→bias→ReLU kernel: the mask is
    applied to the GEMM output in place and one backward closure handles
    the whole chain (bit-identical to ``relu(conv2d(...))``).
    """
    n, c = x.shape[0], x.shape[1]
    f, _, kh, kw = weight.shape
    h, w = x.shape[2], x.shape[3]
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    p = oh * ow
    ck = c * kh * kw

    xd = x.data

    def unfold() -> np.ndarray:
        return _unfold(xd, kh, kw, stride, pad).reshape(n * p, ck)

    w2 = weight.data.reshape(f, ck)
    out_flat = np.matmul(unfold(), w2.T)
    if bias is not None:
        out_flat += bias.data
    mask = None
    if relu:
        mask = np.greater(out_flat, 0)
        out_flat *= mask
    out = np.empty((n, f, oh, ow), dtype=dt)
    out.reshape(n, f, p)[...] = out_flat.reshape(n, p, f).transpose(0, 2, 1)

    if not is_grad_enabled():
        return Tensor(out)
    parents = (x, weight) if bias is None else (x, weight, bias)
    if not any(t.requires_grad for t in parents):
        return Tensor(out)

    def backward(result: Tensor) -> None:
        g2 = np.empty((n * p, f), dt)
        g2.reshape(n, p, f)[...] = result.grad.reshape(n, f, p).transpose(0, 2, 1)
        if mask is not None:
            g2 *= mask
        if bias is not None:
            bias._accumulate(g2.sum(axis=0), owned=True)
        if weight.requires_grad:
            # Re-unfold the forward's operand: the same gather of the same
            # bits, alive only for this GEMM instead of the whole step.
            weight._accumulate(np.matmul(g2.T, unfold()).reshape(weight.shape), owned=True)
        if x.requires_grad:
            cT = np.matmul(g2, w2).reshape(n, oh, ow, c, kh, kw)
            # Fold channels-last (contiguous inner axis), then hand the
            # NCHW transpose view to _accumulate — same per-element add
            # order as col2im, one less transpose copy.  Blocked over
            # samples (_block): every padded pixel still receives its
            # terms in (i, j) order, so the sums are the same bits.
            img_cl = np.empty((n, h + 2 * pad, w + 2 * pad, c), dt)
            step = _block(n, cT.strides[0])
            for s in range(0, n, step):
                dst = img_cl[s : s + step]
                src = cT[s : s + step]
                dst[...] = 0
                for i in range(kh):
                    for j in range(kw):
                        dst[:, i : i + stride * oh : stride,
                            j : j + stride * ow : stride, :] += src[:, :, :, :, i, j]
            x._accumulate(
                img_cl[:, pad : pad + h, pad : pad + w, :].transpose(0, 3, 1, 2))

    return Tensor._make(out, parents, backward)


# ---------------------------------------------------------------------------
# Public kernels
# ---------------------------------------------------------------------------

def _check_conv_args(x: Tensor, weight: Tensor, stride: int, pad: int) -> None:
    """Reject calls no conv path can run (an empty ``(N, F, 0, 0)`` is legal)."""
    if x.shape[1] != weight.shape[1]:
        raise ValueError(f"input channels {x.shape[1]} != weight channels {weight.shape[1]}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if pad < 0:
        raise ValueError(f"pad must be >= 0, got {pad}")
    h, w = x.shape[2:]
    kh, kw = weight.shape[2:]
    if (h + 2 * pad - kh) // stride < -1 or (w + 2 * pad - kw) // stride < -1:
        raise ValueError(
            f"kernel {(kh, kw)} does not fit input {(h, w)} with pad {pad}")


@profiled_op("conv2d")
def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None, stride: int = 1, pad: int = 0) -> Tensor:
    """2-D convolution (cross-correlation) via im2col + batched GEMM.

    ``x``: ``(N, C, H, W)``; ``weight``: ``(F, C, kh, kw)``; ``bias``: ``(F,)``.
    """
    _check_conv_args(x, weight, stride, pad)
    if kernel_mode() != "naive":
        dt = _uniform_float_dtype(x, weight, bias)
        if dt is not None:
            return _conv2d_fused(x, weight, bias, stride, pad, dt)
    return _conv2d_reference(x, weight, bias, stride, pad)


def _conv2d_reference(x: Tensor, weight: Tensor, bias: Tensor | None, stride: int, pad: int) -> Tensor:
    """The reference implementation (``naive`` mode)."""
    n = x.shape[0]
    f, c, kh, kw = weight.shape
    oh = (x.shape[2] + 2 * pad - kh) // stride + 1
    ow = (x.shape[3] + 2 * pad - kw) // stride + 1

    p = oh * ow
    ck = c * kh * kw
    col = im2col(x.data, kh, kw, stride, pad)  # (N, CK, P)
    # Flatten batch and spatial dims into one big GEMM: (N*P, CK) @ (CK, F).
    col_t = np.ascontiguousarray(col.transpose(0, 2, 1)).reshape(n * p, ck)
    w2 = weight.data.reshape(f, ck)
    out_flat = col_t @ w2.T  # (N*P, F)
    if bias is not None:
        out_flat = out_flat + bias.data
    # A dense NCHW copy, not the NHWC-backed view: NumPy's pairwise sums
    # follow memory order, so whatever reduces this output next (batch norm,
    # a mean) would otherwise round differently from the fused path.
    out = np.ascontiguousarray(
        out_flat.reshape(n, p, f).transpose(0, 2, 1).reshape(n, f, oh, ow))

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(result: Tensor) -> None:
        g2 = np.ascontiguousarray(
            result.grad.reshape(n, f, p).transpose(0, 2, 1)
        ).reshape(n * p, f)
        if bias is not None:
            bias._accumulate(g2.sum(axis=0))
        if weight.requires_grad:
            weight._accumulate((g2.T @ col_t).reshape(weight.shape))
        if x.requires_grad:
            dcol = (g2 @ w2).reshape(n, p, ck).transpose(0, 2, 1)
            x._accumulate(col2im(dcol, x.shape, kh, kw, stride, pad))

    return Tensor._make(out, parents, backward)


def conv2d_naive(x: Tensor, weight: Tensor, bias: Tensor | None = None, stride: int = 1, pad: int = 0) -> Tensor:
    """Direct convolution with explicit spatial loops.

    Mathematically identical to :func:`conv2d`; orders of magnitude slower.
    Kept as the easy-to-audit reference implementation and the baseline of
    the convolution-algorithm ablation.
    """
    f, c, kh, kw = weight.shape
    n = x.shape[0]
    oh = (x.shape[2] + 2 * pad - kh) // stride + 1
    ow = (x.shape[3] + 2 * pad - kw) // stride + 1
    img = np.pad(x.data, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x.data
    out = np.zeros((n, f, oh, ow), dtype=x.dtype)
    for i in range(oh):
        for j in range(ow):
            patch = img[:, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
            out[:, :, i, j] = np.einsum("nchw,fchw->nf", patch, weight.data)
    if bias is not None:
        out += bias.data.reshape(1, f, 1, 1)
    # Reuse the im2col adjoint: the two algorithms share gradients exactly.
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(result: Tensor) -> None:
        # im2col/w2 are built *here*, not at forward time: under no_grad
        # this closure is never created, so eval-mode naive conv skips the
        # whole unfold allocation.  (Gradients therefore read x.data and
        # weight.data as of backward time — which, in the standard
        # forward/backward/step cycle, is when they are needed anyway.)
        col = im2col(x.data, kh, kw, stride, pad)
        w2 = weight.data.reshape(f, -1)
        g = result.grad.reshape(n, f, oh * ow)
        if bias is not None:
            bias._accumulate(g.sum(axis=(0, 2)))
        if weight.requires_grad:
            weight._accumulate(np.matmul(g, col.transpose(0, 2, 1)).sum(axis=0).reshape(weight.shape))
        if x.requires_grad:
            x._accumulate(col2im(np.matmul(w2.T[None], g), x.shape, kh, kw, stride, pad))

    return Tensor._make(out, parents, backward)


def conv2d_same(x: Tensor, weight: Tensor, bias: Tensor | None = None, stride: int = 1,
                convention: str = "tf") -> Tensor:
    """"SAME" convolution with explicit asymmetric-padding convention.

    §2.2.4: "PyTorch and Tensorflow have different interpretations of
    asymmetric padding, creating difficulties in porting model weights
    between frameworks."  When SAME padding needs an odd total (e.g.
    stride-2 over an even extent), the extra row/column must go somewhere:

    - ``convention="tf"`` pads the extra at the **bottom/right** (the
      TensorFlow rule);
    - ``convention="torch_port"`` pads the extra at the **top/left** (what
      a naive port using symmetric-padding frameworks effectively does).

    The two produce different outputs from identical weights whenever the
    required padding is asymmetric — the porting pitfall, executable.
    """
    if convention not in ("tf", "torch_port"):
        raise ValueError(f"unknown padding convention {convention!r}")
    _, _, kh, kw = weight.shape
    n, c, h, w = x.shape
    oh = -(-h // stride)  # ceil division: SAME output size
    ow = -(-w // stride)
    pad_h = max((oh - 1) * stride + kh - h, 0)
    pad_w = max((ow - 1) * stride + kw - w, 0)
    if convention == "tf":
        pads = ((0, 0), (0, 0), (pad_h // 2, pad_h - pad_h // 2),
                (pad_w // 2, pad_w - pad_w // 2))
    else:
        pads = ((0, 0), (0, 0), (pad_h - pad_h // 2, pad_h // 2),
                (pad_w - pad_w // 2, pad_w // 2))
    padded = x.pad(pads)
    return conv2d(padded, weight, bias, stride=stride, pad=0)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Mean over the spatial dims: ``(N,C,H,W) -> (N,C)``."""
    return x.mean(axis=(2, 3))
