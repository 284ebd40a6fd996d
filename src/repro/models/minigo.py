"""MiniGoNet: the dual-headed policy/value network for the RL benchmark.

§3.1.4: MiniGo "trains a single network that represents both value and
policy functions".  A small convolutional tower feeds a policy head (move
logits over ``size² + 1`` actions including pass) and a value head (tanh
scalar in [-1, 1] from the side-to-move's perspective).
"""

from __future__ import annotations

import numpy as np

from ..framework import BatchNorm2d, Conv2d, Linear, Module, Tensor, functional as F, no_grad

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

    def evaluate(self, board) -> tuple[np.ndarray, float]:
        """Single-position evaluation for MCTS: (policy probs, value)."""
        with no_grad():
            logits, value = self.forward(board.feature_planes()[None])
        p = logits.data[0]
        p = np.exp(p - p.max())
        return p / p.sum(), float(value.data[0])

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
