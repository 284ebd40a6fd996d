"""RoIAlign: differentiable region-of-interest feature extraction.

§3.1.2 lists "ROIalign" among the layer types that distinguish detection
and segmentation workloads from classification.  This is the bilinear-
sampling RoIAlign of He et al. (2017): each output bin samples the feature
map at its center with bilinear interpolation.  It is one graph node: the
forward gathers the four corners with fancy indexing and blends them, and
the adjoint scatters each corner's share back with ``np.add.at`` over a flat
index -- the four-gather composition's arithmetic, in its order, so
``features.grad`` is bit-identical to it.
"""

from __future__ import annotations

import numpy as np

from ..framework import Tensor
from ..framework.prof import profiled_op

__all__ = ["roi_align"]


@profiled_op("roi_align")
def roi_align(
    features: Tensor,
    boxes: np.ndarray,
    batch_indices: np.ndarray,
    output_size: int,
    spatial_scale: float,
) -> Tensor:
    """Extract ``(K, C, S, S)`` aligned features for ``K`` boxes.

    Parameters
    ----------
    features: ``(N, C, H, W)`` feature map.
    boxes: ``(K, 4)`` xyxy boxes in *image* coordinates.
    batch_indices: ``(K,)`` image index of each box.
    output_size: output bins per side (``S``).
    spatial_scale: feature-map stride reciprocal (e.g. 0.25 for stride 4).
    """
    boxes = np.asarray(boxes, dtype=np.float64)
    batch_indices = np.asarray(batch_indices, dtype=np.int64)
    k = len(boxes)
    _, c, h, w = features.shape
    s = output_size
    if k == 0:
        return Tensor(np.zeros((0, c, s, s), dtype=np.float32))

    # Bin-center sample coordinates in feature space, one per output bin.
    x1, y1, x2, y2 = (boxes[:, i] * spatial_scale for i in range(4))
    bin_w = (x2 - x1) / s
    bin_h = (y2 - y1) / s
    grid = np.arange(s) + 0.5
    xs = x1[:, None] + bin_w[:, None] * grid[None, :]  # (K, S)
    ys = y1[:, None] + bin_h[:, None] * grid[None, :]
    # Broadcast to full (K, S, S) grids; shift to pixel-center convention.
    sample_x = np.broadcast_to(xs[:, None, :], (k, s, s)) - 0.5
    sample_y = np.broadcast_to(ys[:, :, None], (k, s, s)) - 0.5

    x0 = np.clip(np.floor(sample_x), 0, w - 1).astype(np.int64)
    y0 = np.clip(np.floor(sample_y), 0, h - 1).astype(np.int64)
    x1i = np.clip(x0 + 1, 0, w - 1)
    y1i = np.clip(y0 + 1, 0, h - 1)
    fx = np.clip(sample_x - x0, 0.0, 1.0).astype(np.float32)
    fy = np.clip(sample_y - y0, 0.0, 1.0).astype(np.float32)

    b = np.broadcast_to(batch_indices[:, None, None], (k, s, s))
    corners = ((y0, x0), (y0, x1i), (y1i, x0), (y1i, x1i))
    weights = (((1 - fy) * (1 - fx))[..., None], ((1 - fy) * fx)[..., None],
               (fy * (1 - fx))[..., None], (fy * fx)[..., None])

    # Gather the four corners: advanced indexing puts (K,S,S) first,
    # channel axis last -> (K, S, S, C); blend them in the order the
    # composed ``v00*w00 + v01*w01 + v10*w10 + v11*w11`` adds them.
    fd = features.data
    out = None
    for (yy, xx), wt in zip(corners, weights):
        term = fd[b, :, yy, xx] * wt
        out = term if out is None else out + term

    def backward(result: Tensor) -> None:
        g = result.grad.transpose(0, 2, 3, 1)
        # One zeroed buffer and one scatter per corner, accumulated in the
        # order the four gathers' adjoints reach ``features`` through the
        # composed graph.  The index is flat, into the buffer's memory (the
        # layout ``np.zeros_like`` gives it), and in (K, S, S, C) order, so
        # each element collects its terms in the order the 4-D scatter does.
        for (yy, xx), wt in zip(corners, weights):
            grad = np.zeros_like(fd)
            flat, (sn, sc, sh, sw) = _flat_view(grad)
            cells = b * sn + yy * sh + xx * sw
            index = cells[..., None] + np.arange(c) * sc
            np.add.at(flat, index.reshape(-1), (g * wt).reshape(-1))
            features._accumulate(grad, owned=True)

    return Tensor._make(out.transpose(0, 3, 1, 2), (features,), backward)


def _flat_view(a: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """A dense array's memory as a 1-D view, and its strides in elements.

    ``a`` is fresh from ``np.zeros_like``: dense, positive strides, so its
    axes sorted by decreasing stride are C-contiguous and ``reshape`` views.
    """
    order = np.argsort(a.strides, kind="stable")[::-1]
    return a.transpose(order).reshape(-1), tuple(st // a.itemsize for st in a.strides)
