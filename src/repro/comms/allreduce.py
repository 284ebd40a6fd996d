"""The gradient all-reduce of synchronous data parallelism.

Workers' gradients are summed in one canonical order and the sum is
divided by the worker count once (§2.2.4): shard 0's gradient is copied,
later shards are added in place in ascending shard order.  Two runs with
the same seed and worker count therefore reduce to the same bits.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..framework.tensor import Tensor
from ..telemetry import current_profiler

__all__ = ["accumulate_grads", "all_reduce_mean"]


def accumulate_grads(accumulated: dict[int, np.ndarray],
                     params: Iterable[Tensor]) -> None:
    """Add one worker's gradients into ``accumulated``, keyed by ``id(param)``.

    Call once per worker, in shard order.  A parameter whose ``grad`` is
    ``None`` contributes nothing.
    """
    for p in params:
        if p.grad is None:
            continue
        if id(p) in accumulated:
            accumulated[id(p)] += p.grad
        else:
            accumulated[id(p)] = p.grad.copy()


def all_reduce_mean(accumulated: dict[int, np.ndarray], params: Iterable[Tensor],
                    num_workers: int) -> int:
    """Install each parameter's mean gradient over ``num_workers``; return the bytes reduced.

    A parameter no worker reached keeps ``grad = None`` and is neither
    reduced nor counted.  The averaging is timed as the profiler's
    ``comms``/``all_reduce`` op.
    """
    reduced_bytes = sum(g.nbytes for g in accumulated.values())
    with current_profiler().op("all_reduce", phase="comms",
                               nbytes=reduced_bytes * num_workers):
        for p in params:
            grad = accumulated.get(id(p))
            p.grad = None if grad is None else grad / num_workers
    return reduced_bytes
