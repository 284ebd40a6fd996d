"""Gradient accumulation: large effective batches on small memory.

§3.4 makes the minibatch size the suite's scale knob; real systems that
cannot fit the target global batch per step emulate it by accumulating
gradients over micro-batches before the optimizer step.  Accumulated
training is mathematically equivalent to one large-batch step when the
loss is a mean over samples — a property the tests pin down.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .module import Module
from .optim import Optimizer
from .tensor import Tensor

__all__ = ["GradientAccumulator"]


class GradientAccumulator:
    """Accumulate micro-batch gradients; step once per ``accumulation_steps``.

    Usage::

        acc = GradientAccumulator(model, optimizer, accumulation_steps=4)
        for micro_batch in loader:
            loss = compute_loss(model, micro_batch)
            stepped = acc.backward(loss)   # True on the step that applied

    Each micro-batch loss is scaled by ``1/accumulation_steps`` so the
    applied gradient equals the gradient of the mean loss over the full
    effective batch.
    """

    def __init__(self, model: Module, optimizer: Optimizer, accumulation_steps: int):
        if accumulation_steps < 1:
            raise ValueError("accumulation_steps must be >= 1")
        self.model = model
        self.optimizer = optimizer
        self.accumulation_steps = int(accumulation_steps)
        self._micro_step = 0

    @property
    def pending_micro_steps(self) -> int:
        """Micro-batches accumulated since the last optimizer step."""
        return self._micro_step

    def backward(self, loss: Tensor) -> bool:
        """Accumulate one micro-batch; returns True if a step was applied."""
        (loss * (1.0 / self.accumulation_steps)).backward(release_tape=True)
        self._micro_step += 1
        if self._micro_step < self.accumulation_steps:
            return False
        self.optimizer.step()
        self.model.zero_grad()
        self._micro_step = 0
        return True

    def flush(self) -> bool:
        """Apply a step from any leftover micro-batches (end of epoch).

        The leftover gradient is rescaled so it still averages over the
        micro-batches actually seen.  Returns True if a step was applied.
        """
        if self._micro_step == 0:
            return False
        correction = self.accumulation_steps / self._micro_step
        for p in self.model.parameters():
            if p.grad is not None:
                p.grad *= correction
        self.optimizer.step()
        self.model.zero_grad()
        self._micro_step = 0
        return True
