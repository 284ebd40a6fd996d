"""Executable data-parallel training semantics (not just a cost model).

The Figure 4/5 studies use an analytic *time* model, but the paper's
§2.2.2 claim is about data-parallel *mathematics*: synchronous SGD over W
workers with local batch b is equivalent to one step at global batch W·b.
:class:`SynchronousDataParallel` executes that scheme against the real
framework: it splits each global batch across worker shards, averages the
per-worker gradients (a software all-reduce) and applies one optimizer
step.  It is what the recommendation benchmark's ``dp_workers > 1`` runs.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..comms import accumulate_grads, all_reduce_mean
from ..framework.module import Module
from ..framework.optim import Optimizer
from ..framework.tensor import Tensor
from ..telemetry import current_metrics

__all__ = ["SynchronousDataParallel", "shard_batch"]

LossFn = Callable[[Module, tuple], Tensor]


def shard_batch(arrays: tuple[np.ndarray, ...], num_workers: int) -> list[tuple[np.ndarray, ...]]:
    """Split each array along axis 0 into ``num_workers`` near-equal shards.

    The global batch must be divisible by the worker count — the same
    constraint real data-parallel launchers impose.  All arrays must agree
    on the batch axis (a batch of inputs and labels of different lengths
    is a data bug, not a sharding decision).
    """
    if num_workers < 1:
        raise ValueError(f"need at least one worker, got {num_workers}")
    if not arrays:
        raise ValueError("cannot shard an empty batch tuple")
    n = len(arrays[0])
    mismatched = [len(a) for a in arrays if len(a) != n]
    if mismatched:
        raise ValueError(
            f"batch arrays disagree on length: {n} vs {mismatched}"
        )
    if n % num_workers != 0:
        raise ValueError(f"global batch {n} not divisible by {num_workers} workers")
    size = n // num_workers
    return [
        tuple(a[w * size : (w + 1) * size] for a in arrays) for w in range(num_workers)
    ]


class SynchronousDataParallel:
    """Synchronous data parallelism over one in-process model replica.

    Gradients are computed shard by shard and averaged — mathematically an
    all-reduce.  Loss scaling uses the shard count so that the averaged
    gradient equals the gradient of the mean loss over the global batch.

    §2.2.4 mathematical equivalence rests on one canonical arithmetic
    order: shards are the slices :func:`shard_batch` produces, each
    parameter's gradient is summed in ascending shard order (shard 0 is
    copied, later shards are added in place) and then divided by the shard
    count once, and the losses are summed in the same order.  Two runs with
    the same seed and worker count therefore produce the same weights bit
    for bit.  A parameter no shard reaches keeps ``grad = None`` and is
    neither reduced nor counted.  The summing and averaging are the
    ``comms`` package's all-reduce, timed as the profiler's
    ``comms``/``all_reduce`` op.  The engine is the one writer of what it
    reduced: the running total ``allreduce_bytes`` (which the session logs
    each epoch, whatever telemetry is attached) and the ambient
    ``allreduce_elements`` / ``allreduce_bytes`` counters.
    """

    def __init__(self, model: Module, optimizer: Optimizer, num_workers: int, loss_fn: LossFn):
        if num_workers < 1:
            raise ValueError("need at least one worker")
        self.model = model
        self.optimizer = optimizer
        self.num_workers = num_workers
        self.loss_fn = loss_fn
        self.allreduce_bytes = 0

    def step(self, batch: tuple[np.ndarray, ...]) -> float:
        """One global step; returns the mean loss across workers."""
        shards = shard_batch(batch, self.num_workers)
        accumulated: dict[int, np.ndarray] = {}
        total_loss = 0.0
        for shard in shards:
            self.model.zero_grad()
            loss = self.loss_fn(self.model, shard)
            loss.backward(release_tape=True)
            total_loss += float(loss.data)
            accumulate_grads(accumulated, self.model.parameters())
        nbytes = all_reduce_mean(accumulated, self.model.parameters(), self.num_workers)
        self.optimizer.step()
        self.model.zero_grad()
        self.allreduce_bytes += nbytes
        metrics = current_metrics()
        metrics.counter("allreduce_elements").inc(sum(g.size for g in accumulated.values()))
        metrics.counter("allreduce_bytes").inc(nbytes)
        return total_loss / self.num_workers
