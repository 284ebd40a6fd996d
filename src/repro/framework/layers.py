"""Standard neural-network layers.

Each layer takes an explicit ``np.random.Generator`` at construction so that
parameter initialization is reproducible — the Closed division (§4.2.1)
requires identical initialization across submissions, and Figures 2/3 vary
*only* the seed.
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar

import numpy as np

from . import init
from .conv import conv2d, global_avg_pool2d
from .functional import dropout
from .fused import conv2d_bias_relu, linear_bias_act, normalize
from .module import Module, Parameter
from .tensor import Tensor

_LAYER_ACTS = ("none", "relu")


def _validated_act(activation: str) -> str:
    if activation not in _LAYER_ACTS:
        raise ValueError(f"activation must be one of {_LAYER_ACTS}, got {activation!r}")
    return activation

__all__ = [
    "Linear",
    "Conv2d",
    "BatchNorm2d",
    "BatchNorm1d",
    "LayerNorm",
    "Embedding",
    "Dropout",
    "ReLU",
    "GlobalAvgPool2d",
    "Flatten",
    "recorded_moments",
    "replay_moments",
]

# The ``recorded_moments`` log of this context, if one is open.
_MOMENTS_LOG: ContextVar[list | None] = ContextVar("repro_moments_log", default=None)


@contextlib.contextmanager
def recorded_moments():
    """Log every batch-norm running-statistics update made inside the block.

    Yields the log: one ``(layer, mean, var)`` entry per update, in the order
    the forward made them (nothing in eval mode).  :func:`replay_moments` on
    it leaves every layer's running statistics as a second, identical forward
    would — the arithmetic is the update's own, on the same arrays.  An
    enclosing block's log receives the entries too.
    """
    log: list = []
    token = _MOMENTS_LOG.set(log)
    try:
        yield log
    finally:
        _MOMENTS_LOG.reset(token)
        outer = _MOMENTS_LOG.get()
        if outer is not None:
            outer.extend(log)


def replay_moments(log) -> None:
    """Re-apply the updates a :func:`recorded_moments` block logged."""
    for layer, mean, var in log:
        layer._update_running(mean, var)


class Linear(Module):
    """Affine map ``y = act(x W^T + b)``.

    ``activation="relu"`` folds the nonlinearity into the layer so the
    linear kernel can run the whole map as one graph node (bit-identical to
    the unfused composition).
    """

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator, bias: bool = True,
                 init_fn=init.kaiming_uniform, activation: str = "none"):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init_fn((out_features, in_features), rng))
        self.bias = Parameter(init.zeros(out_features)) if bias else None
        self.activation = _validated_act(activation)

    def forward(self, x: Tensor) -> Tensor:
        return linear_bias_act(x, self.weight, self.bias, self.activation)


class Conv2d(Module):
    """2-D convolution layer (square kernels)."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 rng: np.random.Generator, stride: int = 1, padding: int = 0, bias: bool = True,
                 activation: str = "none"):
        super().__init__()
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(init.kaiming_normal(shape, rng))
        self.bias = Parameter(init.zeros(out_channels)) if bias else None
        self.activation = _validated_act(activation)

    def forward(self, x: Tensor) -> Tensor:
        if self.activation == "relu":
            return conv2d_bias_relu(x, self.weight, self.bias,
                                    stride=self.stride, pad=self.padding)
        return conv2d(x, self.weight, self.bias, stride=self.stride, pad=self.padding)


def _check_features(layer: str, x: Tensor, axis: int, expected: int,
                    ndim: int | None = None) -> None:
    """Raise before any statistic is taken when ``x`` does not fit the layer."""
    if ndim is not None and x.ndim != ndim:
        raise ValueError(f"{layer} expects {ndim}-D input with {expected} features, "
                         f"got shape {x.shape}")
    if x.ndim == 0 or x.shape[axis] != expected:
        raise ValueError(f"{layer} expects {expected} features, got shape {x.shape}")


class _BatchNorm(Module):
    """Shared batch-norm machinery (axes differ between 1d/2d).

    ``activation="relu"`` and ``forward(x, residual=...)`` fold ResNet's
    block end, ``relu(bn(x) + residual)``, into the layer's one kernel node.
    """

    _NDIM = 2
    _buffers = ("running_mean", "running_var")

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5,
                 activation: str = "none"):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.activation = _validated_act(activation)
        self.gamma = Parameter(init.ones(num_features))
        self.beta = Parameter(init.zeros(num_features))
        self.running_mean = np.zeros(num_features, dtype=np.float32)
        self.running_var = np.ones(num_features, dtype=np.float32)

    def forward(self, x: Tensor, residual: Tensor | None = None) -> Tensor:
        _check_features(type(self).__name__, x, 1, self.num_features, self._NDIM)
        shape = (1, self.num_features) + (1,) * (x.ndim - 2)
        return normalize(x, (0, *range(2, x.ndim)), self.gamma, self.beta, self.eps, shape,
                         *self.statistics(shape), residual=residual, act=self.activation)

    def statistics(self, shape: tuple[int, ...]):
        """``normalize``'s ``(moments, observe)``: the batch's, observed into the
        running averages, in training mode; those averages in eval mode."""
        if self.training:
            return None, self._update_running
        return (self.running_mean.reshape(shape), self.running_var.reshape(shape)), None

    def _update_running(self, mean: np.ndarray, var: np.ndarray) -> None:
        # The moving-average decay here is itself a hyperparameter the
        # paper lists as an example of layer-level HPs (§2.1).
        log = _MOMENTS_LOG.get()
        if log is not None:
            log.append((self, mean, var))
        m = self.momentum
        self.running_mean = (1 - m) * self.running_mean + m * mean.reshape(-1)
        self.running_var = (1 - m) * self.running_var + m * var.reshape(-1)


class BatchNorm2d(_BatchNorm):
    """Batch normalization over (N, H, W) for each channel of NCHW input."""

    _NDIM = 4


class BatchNorm1d(_BatchNorm):
    """Batch normalization over the batch axis of (N, C) input."""


class LayerNorm(Module):
    """Layer normalization over the trailing feature axis."""

    def __init__(self, num_features: int, eps: float = 1e-5):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.gamma = Parameter(init.ones(num_features))
        self.beta = Parameter(init.zeros(num_features))

    def forward(self, x: Tensor) -> Tensor:
        _check_features("LayerNorm", x, -1, self.num_features)
        return normalize(x, -1, self.gamma, self.beta, self.eps)


class Embedding(Module):
    """Lookup table mapping integer ids to dense rows.

    The paper singles recommendation workloads out as "large embedding
    tables followed by linear layers" (§3.1.5); this layer is their core.
    """

    def __init__(self, num_embeddings: int, dim: int, rng: np.random.Generator, std: float = 0.05):
        super().__init__()
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.weight = Parameter(init.normal((num_embeddings, dim), rng, std=std))

    def forward(self, ids: np.ndarray) -> Tensor:
        return self.weight.take_rows(ids)  # gather_rows: checked against the table


class Dropout(Module):
    def __init__(self, p: float, rng: np.random.Generator):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0,1), got {p}")
        self.p = p
        self.rng = rng

    def forward(self, x: Tensor) -> Tensor:
        return dropout(x, self.p, self.rng, training=self.training)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class GlobalAvgPool2d(Module):
    def forward(self, x: Tensor) -> Tensor:
        return global_avg_pool2d(x)


class Flatten(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.reshape(x.shape[0], -1)
