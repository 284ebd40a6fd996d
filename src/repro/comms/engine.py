"""``ShardedDataParallel``: multi-core synchronous data parallelism.

This is the real-hardware counterpart of
:class:`~repro.systems.dataparallel.SynchronousDataParallel` (which loops
shards sequentially in one process).  Semantics are identical — one
optimizer step over the averaged gradient of W shard losses, bit-for-bit
(§2.2.4 mathematical equivalence, enforced by test) — but the W backward
passes run on W cores:

- **process backend** — a persistent pool of forked workers, each holding
  a model replica inherited copy-on-write.  Parameters are published once
  per step into a shared-memory segment (one memcpy; never pickled) and
  every replica binds read-only views; batches travel the same way via
  :class:`~repro.comms.shm.BatchBoard`.  Per-step IPC is a tiny layout
  descriptor plus one float loss per worker.
- **inline backend** — the same bucketed engine run sequentially in one
  process.  It is the reference implementation the process backend must
  match, and the fallback where ``fork`` is unavailable.

Gradients flow through :class:`~repro.comms.bucketing.BucketWriter`
hooks into per-worker shared flat buckets; the moment a bucket's last
gradient lands, its reduction starts — by the parent (``flat``) or by the
owning workers (``ring``) — while later buckets are still being
computed.  That compute/comm overlap is measured and exported through the
ambient telemetry as ``comms_*`` metrics:

``comms_bytes_reduced``
    counter — bucket payload bytes pushed through reduction
``comms_bucket_latency_seconds``
    histogram — per-bucket ready→reduced latency
``comms_overlap_fraction``
    gauge — 1 − (reduction tail after the last backward) / (reduction span)
``comms_step_seconds``
    histogram — wall time of each sharded step

Determinism: every reduction algorithm uses the canonical ascending-rank
arithmetic order (see :mod:`repro.comms.reducers`), worker shards are the
same slices ``shard_batch`` produces, and the parent sums worker losses in
rank order — so ``flat`` and ``ring`` at any worker count reproduce
``SynchronousDataParallel`` exactly.  Models must be deterministic
functions of (parameters, batch): replicas never sync non-parameter state
(e.g. BatchNorm running statistics), the standard data-parallel caveat.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time
import traceback
import weakref
from typing import Callable, Sequence

import numpy as np

from ..framework.module import Module
from ..framework.optim import Optimizer
from ..framework.tensor import Tensor
from ..systems.dataparallel import shard_batch
from ..telemetry import current_events, current_metrics, current_tracer
from ..telemetry.metrics import COMMS_LATENCY_BUCKETS
from .bucketing import DEFAULT_BUCKET_BYTES, BucketLayout, BucketWriter
from .reducers import PARENT, Chunk, Reducer, make_reducer, reduce_chunk
from .shm import BatchBoard, Segment, aligned_offsets

__all__ = ["ShardedDataParallel", "process_backend_available"]

LossFn = Callable[[Module, tuple], Tensor]

_CTRL_DTYPES = {"i64": np.int64, "f64": np.float64, "u8": np.uint8}


def process_backend_available() -> bool:
    """True when fork-based worker pools can run on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


def _release(segments, processes, cmd_queues, board, timeout: float = 5.0) -> None:
    """Tear down pool resources (also runs via weakref.finalize on GC)."""
    for q in cmd_queues:
        try:
            q.put(("stop",))
        except Exception:
            pass
    deadline = time.monotonic() + timeout
    for proc in processes:
        proc.join(max(0.0, deadline - time.monotonic()))
    for proc in processes:
        if proc.is_alive():
            proc.terminate()
            proc.join(1.0)
    for seg in segments:
        seg.destroy()
    if board is not None:
        board.close()


class ShardedDataParallel:
    """Drop-in synchronous data parallelism across real processes.

    Same constructor shape and ``step(batch) -> mean_loss`` contract as
    :class:`~repro.systems.dataparallel.SynchronousDataParallel`; extra
    knobs select the reduction algorithm, bucket capacity, and backend.

    ``backend`` is one of ``"process"`` (fork pool; requires POSIX fork),
    ``"inline"`` (sequential reference path), or ``"auto"`` (process when
    fork is available, else inline).  Call :meth:`close` when done — the
    pool and its shared-memory segments persist across steps by design.
    """

    def __init__(self, model: Module, optimizer: Optimizer, num_workers: int,
                 loss_fn: LossFn, *, algorithm: str = "flat",
                 bucket_bytes: int = DEFAULT_BUCKET_BYTES,
                 backend: str = "auto", timeout: float = 60.0):
        if num_workers < 1:
            raise ValueError("need at least one worker")
        if backend not in ("auto", "process", "inline"):
            raise ValueError(f"unknown backend {backend!r}")
        if backend == "process" and not process_backend_available():
            raise RuntimeError("process backend requires the fork start method")
        if backend == "auto":
            backend = "process" if process_backend_available() else "inline"

        self.model = model
        self.optimizer = optimizer
        self.num_workers = num_workers
        self.loss_fn = loss_fn
        self.algorithm = algorithm
        self.backend = backend
        self.timeout = float(timeout)
        self.reducer: Reducer = make_reducer(algorithm)

        named = list(model.named_parameters())
        self._names = [name for name, _ in named]
        self._params = [p for _, p in named]
        self.layout = BucketLayout(self._params, bucket_bytes, self._names)

        # Per-bucket reduction schedule, fixed for the engine's lifetime.
        self._chunk_plan: list[list[Chunk]] = [
            self.reducer.chunks(b.size, num_workers) for b in self.layout.buckets
        ]
        self._broken = False
        self._closed = False
        self._finalizer = None

        if backend == "process":
            self._init_process_pool()
        else:
            self._init_inline()
        current_events().publish(
            "comms_engine_start", backend=self.backend,
            algorithm=self.algorithm, num_workers=self.num_workers,
            num_buckets=self.layout.num_buckets,
        )

    # ------------------------------------------------------------------
    # Inline backend
    # ------------------------------------------------------------------

    def _init_inline(self) -> None:
        self._worker_bufs = [self.layout.allocate() for _ in range(self.num_workers)]
        self._out_bufs = self.layout.allocate()
        self._missing = np.zeros((self.num_workers, len(self._params)), dtype=np.uint8)
        # One writer, rebound to the active worker's buffers per shard.
        self._writer = BucketWriter(self.layout, self._out_bufs)
        # Compiled-step driver: every shard has the same graph shape, so one
        # plan serves all workers; the plan replays parameter grad hooks in
        # eager leaf order, which is what bucketed overlap relies on.
        from ..framework.compile import StepExecutor

        self._executor = StepExecutor(name="sdp-inline")

    def _step_inline(self, batch: tuple[np.ndarray, ...]) -> float:
        shards = shard_batch(batch, self.num_workers)
        self._missing[:] = 0
        total_loss = 0.0
        tracer = current_tracer()
        for w, shard in enumerate(shards):
            with tracer.span("worker_grad", worker=w):
                self._writer.buffers = self._worker_bufs[w]
                self._writer.arm()
                self.model.zero_grad()
                loss = self._executor.step(lambda: self.loss_fn(self.model, shard))
                for slot in self._writer.flush_missing():
                    self._missing[w, slot.index] = 1
            total_loss += float(loss.data)
        from ..telemetry import current_profiler

        with tracer.span("all_reduce", algorithm=self.algorithm,
                         num_workers=self.num_workers), \
                current_profiler().op(
                    "all_reduce", phase="comms",
                    nbytes=self.layout.total_bytes * self.num_workers):
            for b, bucket in enumerate(self.layout.buckets):
                contribs = [bufs[b] for bufs in self._worker_bufs]
                self.reducer.reduce(self._out_bufs[b], contribs)
            self._unpack_grads(self._out_bufs, self._missing)
        self.optimizer.step()
        self.model.zero_grad()
        return total_loss / self.num_workers

    # ------------------------------------------------------------------
    # Process backend: setup
    # ------------------------------------------------------------------

    def _init_process_pool(self) -> None:
        ctx = multiprocessing.get_context("fork")
        layout, W = self.layout, self.num_workers

        # Parameter segment: the parent packs live weights here each step;
        # every replica binds read-only views (weights are never pickled).
        self._param_specs = [(tuple(p.data.shape), np.dtype(p.data.dtype))
                             for p in self._params]
        offsets, total = aligned_offsets(self._param_specs)
        self._param_seg = Segment(total)
        self._param_offsets = offsets
        self._param_views = [
            self._param_seg.view(shape, dtype, off)
            for (shape, dtype), off in zip(self._param_specs, offsets)
        ]

        # Gradient segments (one per worker) + reduced-output segment, all
        # sharing one bucket-offset layout.
        bucket_specs = [((b.size,), b.dtype) for b in layout.buckets]
        self._bucket_offsets, bucket_total = aligned_offsets(bucket_specs)
        self._grad_segs = [Segment(bucket_total) for _ in range(W)]
        self._out_seg = Segment(bucket_total)
        self._grad_views = [
            [seg.view((b.size,), b.dtype, off)
             for b, off in zip(layout.buckets, self._bucket_offsets)]
            for seg in self._grad_segs
        ]
        self._out_views = [
            self._out_seg.view((b.size,), b.dtype, off)
            for b, off in zip(layout.buckets, self._bucket_offsets)
        ]

        # Control segment: counters, missing-grad flags, and monotonic
        # timestamps (comparable across processes on Linux).
        B, P = layout.num_buckets, len(self._params)
        ctrl_specs = [
            ("ready_count", (max(B, 1),), np.int64),
            ("chunks_done", (max(B, 1),), np.int64),
            ("missing", (W, max(P, 1)), np.uint8),
            ("t_ready", (max(B, 1),), np.float64),
            ("t_reduced", (max(B, 1),), np.float64),
            ("t_bwd_end", (W,), np.float64),
        ]
        offsets, total = aligned_offsets([(shape, dt) for _, shape, dt in ctrl_specs])
        self._ctrl_seg = Segment(total)
        self._ctrl = {
            name: self._ctrl_seg.view(shape, dt, off)
            for (name, shape, dt), off in zip(ctrl_specs, offsets)
        }

        self._bucket_locks = [ctx.Lock() for _ in range(B)]
        self._ready_events = [ctx.Event() for _ in range(B)]
        self._reduced_events = [ctx.Event() for _ in range(B)]
        self._cmd_queues = [ctx.SimpleQueue() for _ in range(W)]
        self._result_q = ctx.Queue()
        self._board = BatchBoard()

        self._processes = [
            ctx.Process(target=self._worker_main, args=(rank,), daemon=True,
                        name=f"repro-dp-{rank}")
            for rank in range(W)
        ]
        for proc in self._processes:
            proc.start()

        segments = [*self._grad_segs, self._out_seg, self._param_seg, self._ctrl_seg]
        self._finalizer = weakref.finalize(
            self, _release, segments, self._processes, self._cmd_queues, self._board
        )

    # ------------------------------------------------------------------
    # Process backend: worker side (runs in forked children only)
    # ------------------------------------------------------------------

    def _worker_main(self, rank: int) -> None:
        status = 0
        try:
            self._worker_loop(rank)
        except BaseException:
            try:
                self._result_q.put(("error", rank, traceback.format_exc()))
            except Exception:
                pass
            status = 1
        finally:
            try:
                sys.stdout.flush()
                sys.stderr.flush()
            except Exception:
                pass
            # Skip atexit/interpreter teardown: the child inherited the
            # parent's runtime state and must not flush or finalize it.
            os._exit(status)

    def _worker_loop(self, rank: int) -> None:
        # Bind this replica's weights to read-only views of the shared
        # parameter segment — the parent's per-step pack is instantly
        # visible here, with no message passing.
        for p, (shape, dtype), off in zip(self._params, self._param_specs,
                                          self._param_offsets):
            p.data = self._param_seg.view(shape, dtype, off, writeable=False)

        ready_count = self._ctrl["ready_count"]
        t_ready = self._ctrl["t_ready"]

        def on_bucket_ready(b: int) -> None:
            with self._bucket_locks[b]:
                ready_count[b] += 1
                if ready_count[b] == self.num_workers:
                    t_ready[b] = time.monotonic()
                    self._ready_events[b].set()

        writer = BucketWriter(self.layout, self._grad_views[rank], on_bucket_ready)
        from ..framework.compile import StepExecutor

        self._worker_executor = StepExecutor(name=f"sdp-worker-{rank}")
        my_chunks = [
            (b, chunk)
            for b, plan in enumerate(self._chunk_plan)
            for chunk in plan
            if chunk.owner == rank
        ]

        while True:
            msg = self._cmd_queues[rank].get()
            if msg[0] == "stop":
                return
            _, batch_layout = msg
            try:
                loss_value = self._worker_step(rank, batch_layout, writer, my_chunks)
            except Exception:
                self._result_q.put(("error", rank, traceback.format_exc()))
                continue
            self._result_q.put(("ok", rank, loss_value))

    def _worker_step(self, rank: int, batch_layout, writer: BucketWriter,
                     my_chunks: list[tuple[int, Chunk]]) -> float:
        views = self._board.views(batch_layout)
        n = len(views[0])
        size = n // self.num_workers
        shard = tuple(a[rank * size:(rank + 1) * size] for a in views)

        writer.arm()
        self.model.zero_grad()
        loss = self._worker_executor.step(lambda: self.loss_fn(self.model, shard))
        for slot in writer.flush_missing():
            self._ctrl["missing"][rank, slot.index] = 1
        self._ctrl["t_bwd_end"][rank] = time.monotonic()

        # Reduction duties for ring: reduce owned chunks as their
        # buckets become ready (peers may still be in backward).
        contribs_cache: dict[int, list[np.ndarray]] = {}
        for b, chunk in my_chunks:
            if not self._ready_events[b].wait(self.timeout):
                raise RuntimeError(
                    f"worker {rank} timed out waiting for bucket {b} "
                    f"to become ready ({self.timeout}s)"
                )
            contribs = contribs_cache.get(b)
            if contribs is None:
                contribs = [self._grad_views[r][b] for r in range(self.num_workers)]
                contribs_cache[b] = contribs
            reduce_chunk(self._out_views[b], contribs, chunk.start, chunk.stop)
            self._mark_chunk_done(b)

        self.model.zero_grad()
        return float(loss.data)

    def _mark_chunk_done(self, b: int) -> None:
        chunks_done = self._ctrl["chunks_done"]
        with self._bucket_locks[b]:
            chunks_done[b] += 1
            done = chunks_done[b] == len(self._chunk_plan[b])
        if done:
            self._ctrl["t_reduced"][b] = time.monotonic()
            self._reduced_events[b].set()

    # ------------------------------------------------------------------
    # Process backend: parent side
    # ------------------------------------------------------------------

    def _drain_results(self, losses: dict[int, float]) -> None:
        """Absorb any pending worker results; raise on a reported error."""
        while True:
            try:
                msg = self._result_q.get_nowait()
            except Exception:
                return
            self._absorb_result(msg, losses)

    def _absorb_result(self, msg, losses: dict[int, float]) -> None:
        if msg[0] == "error":
            self._broken = True
            raise RuntimeError(f"data-parallel worker {msg[1]} failed:\n{msg[2]}")
        losses[msg[1]] = msg[2]

    def _parent_wait(self, event, what: str, losses: dict[int, float]) -> None:
        deadline = time.monotonic() + self.timeout
        while not event.wait(0.02):
            self._drain_results(losses)
            if time.monotonic() > deadline:
                self._broken = True
                dead = [p.name for p in self._processes if not p.is_alive()]
                detail = f"; dead workers: {dead}" if dead else ""
                raise RuntimeError(
                    f"timed out after {self.timeout}s waiting for {what}{detail}"
                )

    def _step_process(self, batch: tuple[np.ndarray, ...]) -> float:
        if self._broken:
            raise RuntimeError("data-parallel pool is broken; create a new engine")
        # Validates divisibility and array-length agreement (views only).
        shard_batch(batch, self.num_workers)

        # Publish weights and batch; reset the per-step control plane.
        for view, p in zip(self._param_views, self._params):
            np.copyto(view, p.data)
        batch_layout = self._board.publish(batch)
        for name in ("ready_count", "chunks_done", "t_ready", "t_reduced",
                     "t_bwd_end"):
            self._ctrl[name][:] = 0
        self._ctrl["missing"][:] = 0
        for event in (*self._ready_events, *self._reduced_events):
            event.clear()

        for q in self._cmd_queues:
            q.put(("step", batch_layout))

        from ..telemetry import current_profiler

        losses: dict[int, float] = {}
        with current_profiler().op(
                "all_reduce", phase="comms",
                nbytes=self.layout.total_bytes * self.num_workers):
            # Parent-owned reduction (flat): drain buckets as they become
            # ready, while workers are still inside their backward passes.
            for b, plan in enumerate(self._chunk_plan):
                parent_chunks = [c for c in plan if c.owner == PARENT]
                if not parent_chunks:
                    continue
                self._parent_wait(self._ready_events[b], f"bucket {b} ready",
                                  losses)
                contribs = [self._grad_views[r][b]
                            for r in range(self.num_workers)]
                for chunk in parent_chunks:
                    reduce_chunk(self._out_views[b], contribs,
                                 chunk.start, chunk.stop)
                    self._mark_chunk_done(b)

            for b, event in enumerate(self._reduced_events):
                self._parent_wait(event, f"bucket {b} reduced", losses)
            while len(losses) < self.num_workers:
                try:
                    msg = self._result_q.get(timeout=self.timeout)
                except Exception:
                    self._broken = True
                    raise RuntimeError(
                        f"timed out after {self.timeout}s waiting for worker "
                        "results"
                    ) from None
                self._absorb_result(msg, losses)

            self._unpack_grads(self._out_views, self._ctrl["missing"])
        self._record_overlap_telemetry()
        self.optimizer.step()
        self.model.zero_grad()
        # Rank-ordered summation: the same sequential chain the in-process
        # engine's loss accumulation performs.
        total_loss = 0.0
        for rank in range(self.num_workers):
            total_loss += losses[rank]
        return total_loss / self.num_workers

    def _record_overlap_telemetry(self) -> None:
        if self.layout.num_buckets == 0:
            return
        metrics = current_metrics()
        t_ready = self._ctrl["t_ready"]
        t_reduced = self._ctrl["t_reduced"]
        latency = metrics.histogram("comms_bucket_latency_seconds",
                                    COMMS_LATENCY_BUCKETS)
        for b in range(self.layout.num_buckets):
            latency.observe(max(0.0, float(t_reduced[b] - t_ready[b])))
        metrics.counter("comms_bytes_reduced").inc(self.layout.total_bytes)
        last_reduced = float(t_reduced.max())
        last_backward = float(self._ctrl["t_bwd_end"].max())
        span = last_reduced - float(t_ready.min())
        if span > 0:
            tail = max(0.0, last_reduced - last_backward)
            overlap = min(1.0, max(0.0, 1.0 - tail / span))
            metrics.gauge("comms_overlap_fraction").set(overlap)

    # ------------------------------------------------------------------
    # Shared
    # ------------------------------------------------------------------

    def _unpack_grads(self, out_buffers: Sequence[np.ndarray],
                      missing: np.ndarray) -> None:
        """Install averaged gradients on the parent model's parameters."""
        reduced_elements = 0
        reduced_bytes = 0
        for i, p in enumerate(self._params):
            slot = self.layout.slots[i]
            if missing[:, i].all():
                # No worker produced a gradient — mirror the in-process
                # engine's p.grad = None.
                p.grad = None
                continue
            flat = out_buffers[slot.bucket][slot.offset:slot.offset + slot.size]
            p.grad = (flat / self.num_workers).reshape(slot.shape)
            reduced_elements += slot.size
            reduced_bytes += slot.size * slot.dtype.itemsize
        metrics = current_metrics()
        metrics.counter("allreduce_elements").inc(reduced_elements)
        metrics.counter("allreduce_bytes").inc(reduced_bytes)

    def step(self, batch: tuple[np.ndarray, ...]) -> float:
        """One global step; returns the mean loss across workers."""
        if self._closed:
            raise RuntimeError("engine is closed")
        tracer = current_tracer()
        start = time.perf_counter()
        with tracer.span("sharded_step", backend=self.backend,
                         algorithm=self.algorithm, num_workers=self.num_workers,
                         batch=len(batch[0])):
            if self.backend == "process":
                loss = self._step_process(batch)
            else:
                loss = self._step_inline(batch)
        current_metrics().histogram("comms_step_seconds").observe(
            time.perf_counter() - start)
        return loss

    def close(self) -> None:
        """Shut down the pool and release shared-memory segments."""
        if self._closed:
            return
        self._closed = True
        if self.backend == "process":
            if self._finalizer is not None:
                self._finalizer()
        else:
            self._writer.close()
        current_events().publish("comms_engine_stop", backend=self.backend,
                                 broken=self._broken)

    def __enter__(self) -> "ShardedDataParallel":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
