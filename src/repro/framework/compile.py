"""The training-step seam: one call per forward + backward.

Every session runs its step through :meth:`StepExecutor.step` (a
recommendation step with ``dp_workers > 1`` is
:class:`~repro.systems.dataparallel.SynchronousDataParallel`'s instead),
so "a training step" is one named call that telemetry can count and time.  The module keeps the name of the graph
compiler that used to live here (measured and removed, see DESIGN.md)
because the end-to-end benchmark's tracer patches ``StepExecutor.step`` by
identity: ``framework.steps`` and ``framework.forward_s`` in the ledger are
this call.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .tensor import Tensor

__all__ = ["StepExecutor"]


class StepExecutor:
    """Driver of one training-step call site.

    Usage::

        executor = StepExecutor()
        ...
        loss = executor.step(lambda: loss_fn(model, batch),
                             pre_backward=model.zero_grad)
    """

    def __init__(self, name: str = "step"):
        self.name = name

    def step(self, forward: Callable[[], Tensor],
             seed: np.ndarray | None = None, *,
             pre_backward: Callable[[], None] | None = None) -> Tensor:
        """Run ``forward()`` then backpropagate from its result.

        ``pre_backward`` (e.g. ``model.zero_grad``) runs between the forward
        and the backward, exactly as in the eager training-loop idiom.  The
        backward releases the tape as it walks (:meth:`Tensor.backward`).
        """
        loss = forward()
        if pre_backward is not None:
            pre_backward()
        loss.backward(seed, release_tape=True)
        return loss
