"""MiniGoNet: the dual-headed policy/value network for the RL benchmark.

§3.1.4: MiniGo "trains a single network that represents both value and
policy functions".  A small convolutional tower feeds a policy head (move
logits over ``size² + 1`` actions including pass) and a value head (tanh
scalar in [-1, 1] from the side-to-move's perspective).
"""

from __future__ import annotations

import numpy as np

from ..framework import BatchNorm2d, Conv2d, Linear, Module, Tensor, functional as F, no_grad
from ..framework.conv import conv2d_array
from ..framework.fused import fused_path, linear_array, normalize_array
from ..framework.prof import profiled_op

__all__ = ["MiniGoNet"]


class MiniGoNet(Module):
    """Policy/value network over Go feature planes ``(N, 3, size, size)``."""

    def __init__(self, board_size: int, rng: np.random.Generator, width: int = 24, blocks: int = 2):
        super().__init__()
        self.board_size = board_size
        self.num_moves = board_size * board_size + 1
        self.stem = Conv2d(3, width, 3, rng, padding=1, bias=False)
        self.stem_bn = BatchNorm2d(width, activation="relu")
        self.tower = [
            (Conv2d(width, width, 3, rng, padding=1, bias=False),
             BatchNorm2d(width, activation="relu"))
            for _ in range(blocks)
        ]
        # Register tower modules for parameter discovery.
        for i, (conv, bn) in enumerate(self.tower):
            setattr(self, f"tower_conv{i}", conv)
            setattr(self, f"tower_bn{i}", bn)
        self.policy_conv = Conv2d(width, 2, 1, rng, activation="relu")
        self.policy_fc = Linear(2 * board_size * board_size, self.num_moves, rng)
        self.value_conv = Conv2d(width, 1, 1, rng, activation="relu")
        self.value_fc1 = Linear(board_size * board_size, 32, rng, activation="relu")
        self.value_fc2 = Linear(32, 1, rng)

    def forward(self, planes: np.ndarray | Tensor) -> tuple[Tensor, Tensor]:
        """Return ``(policy_logits (N, moves), value (N,))``."""
        x = planes if isinstance(planes, Tensor) else Tensor(planes.astype(np.float32))
        h = self.stem_bn(self.stem(x))
        for conv, bn in self.tower:
            h = bn(conv(h), residual=h)  # residual tower: relu(bn(conv(h)) + h)
        n = x.shape[0]
        p = self.policy_conv(h).reshape(n, -1)
        policy_logits = self.policy_fc(p)
        v = self.value_conv(h).reshape(n, -1)
        value = self.value_fc2(self.value_fc1(v)).tanh().reshape(-1)
        return policy_logits, value

    @profiled_op("minigo_evaluate")
    def evaluate(self, board) -> tuple[np.ndarray, float]:
        """Single-position evaluation for MCTS: (policy probs, value), from
        :meth:`forward`'s wiring over the kernels' array functions."""
        x = board.feature_planes()[None].astype(np.float32)
        layers = (self.stem, *(conv for conv, _ in self.tower), self.policy_conv,
                  self.policy_fc, self.value_conv, self.value_fc1, self.value_fc2)
        bns = (self.stem_bn, *(bn for _, bn in self.tower))
        if not fused_path("minigo_evaluate", x, *(t for m in layers for t in (m.weight, m.bias)),
                          *(t for bn in bns for t in (bn.gamma, bn.beta, bn.running_mean,
                                                      bn.running_var))):
            with no_grad():
                logits, value = (t.data for t in self.forward(x))
        else:
            h = _norm(self.stem_bn, _conv(self.stem, x))
            for conv, bn in self.tower:
                h = _norm(bn, _conv(conv, h), residual=h)
            logits = _linear(self.policy_fc, _conv(self.policy_conv, h).reshape(1, -1))
            v = _linear(self.value_fc1, _conv(self.value_conv, h).reshape(1, -1))
            value = np.tanh(_linear(self.value_fc2, v)).reshape(-1)
        p = logits[0]
        p = np.exp(p - p.max())
        return p / p.sum(), float(value[0])

    def loss(self, planes: np.ndarray, target_policy: np.ndarray,
             target_value: np.ndarray) -> Tensor:
        """AlphaZero loss: policy cross-entropy (against the MCTS visit
        distribution) plus value MSE."""
        logits, value = self.forward(planes)
        logp = F.log_softmax(logits, axis=-1)
        policy_loss = -(logp * Tensor(target_policy.astype(np.float32))).sum() * (
            1.0 / len(planes)
        )
        value_loss = F.mse_loss(value, target_value.astype(np.float32))
        return policy_loss + value_loss


def _conv(layer: Conv2d, x: np.ndarray) -> np.ndarray:
    bias = None if layer.bias is None else layer.bias.data
    return conv2d_array(x, layer.weight.data, bias, layer.stride, layer.padding,
                        layer.activation == "relu")[0]


def _norm(bn: BatchNorm2d, x: np.ndarray, residual: np.ndarray | None = None) -> np.ndarray:
    shape = (1, bn.num_features, 1, 1)
    return normalize_array(x, (0, 2, 3), bn.gamma.data.reshape(shape), bn.beta.data.reshape(shape),
                           bn.eps, *bn.statistics(shape), residual, bn.activation)[0]


def _linear(layer: Linear, x: np.ndarray) -> np.ndarray:
    return linear_array(x, layer.weight.data, layer.bias.data, layer.activation)[0]
