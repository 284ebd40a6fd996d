"""Comms micro-benchmark (``repro bench-comms``).

Sweeps worker count × reduction algorithm × bucket size on a fixed MLP
workload and, for every configuration, trains the *same* step sequence as
the in-process :class:`~repro.systems.dataparallel.SynchronousDataParallel`
baseline — so each timing row doubles as a §2.2.4 equivalence check: the
final parameter state and every per-step loss must be bit-identical to
the baseline at the same worker count (which also makes all algorithms
bit-identical to each other).

Timing reports mean seconds per step over the measured window (warmup
steps train but are not timed).  Speedup is baseline-time / sharded-time
at the same worker count.  The payload records ``cpu_count`` because the
speedup a process pool can deliver is a property of the machine, so a
speedup is a fact of the report, never a verdict: a one-sample time ratio
without its dispersion does not decide anything.  The verdict is
``repro bench-diff`` against the committed baseline
(:mod:`repro.telemetry.regress`), which gates ``checks.bit_identical``
exactly.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable

import numpy as np

from ..framework.functional import cross_entropy
from ..framework.layers import Linear
from ..framework.module import Module
from ..framework.optim import SGD
from ..framework.tensor import Tensor
from ..systems.dataparallel import SynchronousDataParallel
from .bucketing import DEFAULT_BUCKET_BYTES
from .engine import ShardedDataParallel, process_backend_available

__all__ = ["bench_comms", "BENCH_SCHEMA"]

BENCH_SCHEMA = "repro.bench_comms.v1"

# (in, hidden, hidden, out) for the bench MLP; batch must divide by every
# swept worker count, so use a multiple of 12.
_FULL_DIMS = (256, 1024, 1024, 64)
_FULL_BATCH = 120
_SMOKE_DIMS = (64, 128, 32)
_SMOKE_BATCH = 24


class _BenchMLP(Module):
    def __init__(self, dims: tuple[int, ...], rng: np.random.Generator):
        super().__init__()
        for i in range(len(dims) - 1):
            act = "relu" if i < len(dims) - 2 else "none"
            setattr(self, f"fc{i}", Linear(dims[i], dims[i + 1], rng, activation=act))
        self._depth = len(dims) - 1

    def forward(self, x: Tensor) -> Tensor:
        for i in range(self._depth):
            x = getattr(self, f"fc{i}")(x)
        return x


def _loss_fn(model: Module, shard: tuple) -> Tensor:
    inputs, labels = shard
    return cross_entropy(model(Tensor(inputs)), labels)


def _make_workload(dims: tuple[int, ...], batch: int, seed: int,
                   num_batches: int):
    rng = np.random.default_rng(seed)
    batches = [
        (rng.standard_normal((batch, dims[0])).astype(np.float32),
         rng.integers(0, dims[-1], size=batch))
        for _ in range(num_batches)
    ]

    def make_model() -> tuple[Module, SGD]:
        model = _BenchMLP(dims, np.random.default_rng(seed + 1))
        return model, SGD(model.parameters(), lr=0.01, momentum=0.9)

    return batches, make_model


def _run(engine_factory: Callable, make_model: Callable, batches: list,
         warmup: int, steps: int) -> tuple[float, list[float], dict]:
    """Train warmup+steps identical steps; time only the last ``steps``."""
    model, optimizer = make_model()
    engine = engine_factory(model, optimizer)
    try:
        losses = []
        for i in range(warmup):
            losses.append(engine.step(batches[i % len(batches)]))
        t0 = time.perf_counter()
        for i in range(warmup, warmup + steps):
            losses.append(engine.step(batches[i % len(batches)]))
        elapsed = time.perf_counter() - t0
        state = model.state_dict()
    finally:
        if hasattr(engine, "close"):
            engine.close()
    return elapsed / steps, losses, state


def _states_equal(a: dict, b: dict) -> bool:
    return set(a) == set(b) and all(
        a[k].dtype == b[k].dtype and np.array_equal(a[k], b[k]) for k in a
    )


def cpu_count() -> int:
    """Usable cores for this process (affinity-aware where supported)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def bench_comms(*, smoke: bool = False,
                workers: list[int] | None = None,
                algorithms: list[str] | None = None,
                bucket_sizes: list[int] | None = None,
                steps: int | None = None, warmup: int | None = None,
                backend: str | None = None, seed: int = 0) -> dict[str, Any]:
    """Sweep workers × algorithm × bucket size; return the payload.

    Every sharded configuration is checked bit-for-bit (final state and
    per-step losses) against ``SynchronousDataParallel`` at the same
    worker count.
    """
    if workers is None:
        workers = [2] if smoke else [2, 3, 4]
    if algorithms is None:
        algorithms = ["flat", "ring"]
    if bucket_sizes is None:
        bucket_sizes = [DEFAULT_BUCKET_BYTES] if smoke else [32 * 1024, DEFAULT_BUCKET_BYTES]
    if steps is None:
        steps = 2 if smoke else 8
    if warmup is None:
        warmup = 1 if smoke else 2
    if backend is None:
        backend = "process" if process_backend_available() else "inline"

    dims = _SMOKE_DIMS if smoke else _FULL_DIMS
    batch = _SMOKE_BATCH if smoke else _FULL_BATCH
    batches, make_model = _make_workload(dims, batch, seed, num_batches=4)

    results: list[dict[str, Any]] = []
    best_speedup: dict[str, float] = {}
    all_identical = True

    for num_workers in workers:
        base_step_s, base_losses, base_state = _run(
            lambda m, o: SynchronousDataParallel(m, o, num_workers, _loss_fn),
            make_model, batches, warmup, steps,
        )
        for algorithm in algorithms:
            for bucket_bytes in bucket_sizes:
                step_s, losses, state = _run(
                    lambda m, o: ShardedDataParallel(
                        m, o, num_workers, _loss_fn, algorithm=algorithm,
                        bucket_bytes=bucket_bytes, backend=backend),
                    make_model, batches, warmup, steps,
                )
                identical = (_states_equal(base_state, state)
                             and losses == base_losses)
                all_identical = all_identical and identical
                speedup = base_step_s / step_s if step_s else float("inf")
                key = str(num_workers)
                best_speedup[key] = max(best_speedup.get(key, 0.0), speedup)
                results.append({
                    "workers": num_workers,
                    "algorithm": algorithm,
                    "bucket_bytes": bucket_bytes,
                    "backend": backend,
                    "step_seconds": step_s,
                    "baseline_step_seconds": base_step_s,
                    "speedup": speedup,
                    "bit_identical_vs_sync": identical,
                })

    return {
        "schema": BENCH_SCHEMA,
        "smoke": smoke,
        "backend": backend,
        "cpu_count": cpu_count(),
        "workload": {"dims": list(dims), "batch": batch,
                     "steps": steps, "warmup": warmup},
        "results": results,
        "checks": {
            "bit_identical": all_identical,
            "best_speedup_by_workers": best_speedup,
        },
    }

