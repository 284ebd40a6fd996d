"""Executable data-parallel training semantics (not just a cost model).

The Figure 4/5 studies use an analytic *time* model, but the paper's
§2.2.2-2.2.3 claims are about data-parallel *mathematics*: synchronous
SGD over W workers with local batch b is equivalent to one step at global
batch W·b, while asynchronous updates introduce gradient staleness and
"different gradient accumulation orders".  This module executes both
schemes against the real framework so those claims are testable:

- :class:`SynchronousDataParallel` splits each global batch across worker
  shards, averages per-worker gradients (a software all-reduce), and
  applies one optimizer step — equivalent (up to float summation order)
  to single-worker large-batch training.  It is what the recommendation
  benchmark's ``dp_workers > 1`` runs.
- :class:`AsynchronousDataParallel` lets each worker compute its gradient
  against a stale snapshot of the weights and applies updates in arrival
  order — reproducing the non-determinism the paper names as a source of
  run-to-run variance.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..comms import accumulate_grads, all_reduce_mean
from ..framework.module import Module
from ..framework.optim import Optimizer
from ..framework.tensor import Tensor
from ..telemetry import current_tracer

__all__ = ["SynchronousDataParallel", "AsynchronousDataParallel", "shard_batch"]

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
    ``comms`` package's all-reduce, which counts ``allreduce_elements`` /
    ``allreduce_bytes`` and times itself as the profiler's
    ``comms``/``all_reduce`` op.
    """

    def __init__(self, model: Module, optimizer: Optimizer, num_workers: int, loss_fn: LossFn):
        if num_workers < 1:
            raise ValueError("need at least one worker")
        self.model = model
        self.optimizer = optimizer
        self.num_workers = num_workers
        self.loss_fn = loss_fn

    def step(self, batch: tuple[np.ndarray, ...]) -> float:
        """One global step; returns the mean loss across workers."""
        tracer = current_tracer()
        shards = shard_batch(batch, self.num_workers)
        accumulated: dict[int, np.ndarray] = {}
        total_loss = 0.0
        with tracer.span("dp_step", num_workers=self.num_workers, batch=len(batch[0])):
            for w, shard in enumerate(shards):
                with tracer.span("worker_grad", worker=w):
                    self.model.zero_grad()
                    loss = self.loss_fn(self.model, shard)
                    loss.backward(release_tape=True)
                total_loss += float(loss.data)
                accumulate_grads(accumulated, self.model.parameters())
            all_reduce_mean(accumulated, self.model.parameters(), self.num_workers)
            self.optimizer.step()
        self.model.zero_grad()
        return total_loss / self.num_workers


class AsynchronousDataParallel:
    """Asynchronous (parameter-server-style) updates with bounded staleness.

    Each simulated worker holds a snapshot of the weights taken up to
    ``max_staleness`` updates ago; workers compute gradients against their
    snapshots and the server applies them in a seeded arrival order.  Runs
    with different seeds follow different trajectories even on identical
    data — the §2.2.3 phenomenon.
    """

    def __init__(self, model: Module, optimizer: Optimizer, num_workers: int,
                 loss_fn: LossFn, rng: np.random.Generator, max_staleness: int = 1):
        if num_workers < 1:
            raise ValueError("need at least one worker")
        if max_staleness < 0:
            raise ValueError("staleness cannot be negative")
        self.model = model
        self.optimizer = optimizer
        self.num_workers = num_workers
        self.loss_fn = loss_fn
        self.rng = rng
        self.max_staleness = max_staleness
        self._snapshots: list[dict[str, np.ndarray]] = []
        # Buffer reuse: snapshot dicts evicted from the staleness window
        # are recycled (np.copyto into their arrays) instead of allocating
        # a fresh state_dict copy per update, and stale weights are loaded
        # through one reused scratch buffer per parameter rather than a
        # second full .copy() per worker.
        self._retired: list[dict[str, np.ndarray]] = []
        self._scratch: dict[str, np.ndarray] = {}

    def _snapshot(self) -> dict[str, np.ndarray]:
        while self._retired:
            snap = self._retired.pop()
            for name, p in self.model.named_parameters():
                buf = snap.get(name)
                if buf is None or buf.shape != p.data.shape or buf.dtype != p.data.dtype:
                    snap[name] = p.data.copy()
                else:
                    np.copyto(buf, p.data)
            return snap
        return self.model.state_dict()

    def _push_snapshot(self) -> None:
        self._snapshots.append(self._snapshot())
        keep = self.max_staleness + 1
        if len(self._snapshots) > keep:
            self._retired.extend(self._snapshots[:-keep])
            self._snapshots = self._snapshots[-keep:]

    def _load_stale(self, live_state: dict[str, "Tensor"],
                    stale: dict[str, np.ndarray]) -> None:
        """Point parameters at reused scratch copies of a stale snapshot."""
        for name, p in live_state.items():
            buf = self._scratch.get(name)
            if buf is None or buf.shape != stale[name].shape or buf.dtype != stale[name].dtype:
                buf = stale[name].copy()
                self._scratch[name] = buf
            else:
                np.copyto(buf, stale[name])
            p.data = buf

    def step(self, batch: tuple[np.ndarray, ...]) -> float:
        """One asynchronous round: every worker contributes one update."""
        shards = shard_batch(batch, self.num_workers)
        order = self.rng.permutation(self.num_workers)
        self._push_snapshot()
        total_loss = 0.0
        live_state = {name: p for name, p in self.model.named_parameters()}
        for worker in order:
            # The worker computes its gradient against a stale snapshot.
            stale = self._snapshots[int(self.rng.integers(0, len(self._snapshots)))]
            live_values = {name: p.data for name, p in live_state.items()}
            self._load_stale(live_state, stale)
            self.model.zero_grad()
            loss = self.loss_fn(self.model, shards[worker])
            loss.backward(release_tape=True)
            total_loss += float(loss.data)
            # Server applies the (stale) gradient to the *live* weights.
            for name, p in live_state.items():
                p.data = live_values[name]
            self.optimizer.step()
            self._push_snapshot()
        self.model.zero_grad()
        return total_loss / self.num_workers
