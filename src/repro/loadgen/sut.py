"""System Under Test: a trained model rehydrated from a run artifact.

A :class:`SUT` is the serving side of one completed training run.  It is
built from a ``result_*.txt`` artifact (whose header names the benchmark
and whose ``.params.npz`` sidecar carries the trained weights), rebuilds
the benchmark's session under :func:`~repro.framework.inference_mode` —
so the serving model carries no tape nodes and no ``requires_grad``
anywhere — loads the weights, and exposes a single
``predict(indices) -> float64[n]`` surface over a benchmark-specific
query pool (validation images for image classification, (user, held-out
item) pairs for recommendation, ...).  It keeps the model and the pool,
and nothing of training: the session, its optimizer and data loader, and
the training split are garbage once :func:`load_sut` returns.

Serving runs in the calling process: every latency ``repro loadgen``
reports is a one-query forward, which a process pool could only slow
down by its queue round trips (DESIGN.md, *Measured and removed*).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

import numpy as np

from ..framework import inference_mode
from ..suite.image_classification import classify_logits

__all__ = ["SUT", "SUTInfo", "InferenceAdapter", "ADAPTERS",
           "register_adapter", "load_sut", "train_and_save",
           "virtual_service_times"]


def virtual_service_times(n: int, seed: int, *, base_s: float = 2e-3,
                          sigma: float = 0.25, stream: int = 0,
                          salt: int = 0) -> np.ndarray:
    """Deterministic synthetic per-query service times (lognormal).

    The harness's *virtual* timing mode: instead of measuring the host's
    wall clock (noisy, machine-dependent), per-query service times come
    from this seeded model, making every derived latency statistic —
    percentiles, achieved QPS, the max-QPS search — bit-identical across
    reruns and across machines.  That is what lets CI gate the loadgen
    smoke payload with ``exact`` comparisons.  ``stream`` and ``salt``
    decorrelate scenarios and benchmarks that share a seed.
    """
    rng = np.random.default_rng([int(seed), 7919, int(stream), int(salt)])
    return base_s * np.exp(rng.normal(0.0, sigma, size=int(n)))


# ---------------------------------------------------------------------------
# Benchmark adapters: name -> (session, benchmark) -> query pool + predict
# ---------------------------------------------------------------------------

class InferenceAdapter:
    """Maps query indices onto one benchmark's inference inputs.

    ``pool_size`` is the number of distinct queries the benchmark offers
    (scenarios draw indices uniformly from it); ``predict`` answers a
    batch of indices with one float64 per query — a class id, a ranking
    score, whatever the benchmark's serving output is.  Predictions must
    be a deterministic function of (weights, indices): the harness
    checksums them to prove reruns serve identical answers.  An adapter
    takes what it serves from the session and the benchmark it is built
    from, and keeps a reference to neither.
    """

    pool_size: int = 0

    def predict(self, indices: np.ndarray) -> np.ndarray:
        raise NotImplementedError


ADAPTERS: dict[str, Callable[[Any, Any], InferenceAdapter]] = {}


def register_adapter(name: str):
    def deco(factory):
        ADAPTERS[name] = factory
        return factory
    return deco


@register_adapter("image_classification")
class _ImageClassificationAdapter(InferenceAdapter):
    """Serve top-1 class ids over the validation images.

    The forward is the one ``evaluate`` runs, ``classify_logits``: a batch
    of any size goes through in chunks of the training batch.
    """

    def __init__(self, session, benchmark):
        self.images, _ = benchmark.data.val.arrays
        self.model = session.model
        self.batch = session.hp["batch_size"]
        self.pool_size = len(self.images)

    def predict(self, indices: np.ndarray) -> np.ndarray:
        logits = classify_logits(self.model, self.images[indices], self.batch)
        return np.argmax(logits, axis=1).astype(np.float64)


@register_adapter("recommendation")
class _RecommendationAdapter(InferenceAdapter):
    """Serve NCF scores for each user's held-out (leave-one-out) item."""

    def __init__(self, session, benchmark):
        data = benchmark.data
        self.users = data.all_users
        self.positives = data.eval_positives
        self.model = session.model
        self.pool_size = len(self.users)

    def predict(self, indices: np.ndarray) -> np.ndarray:
        users = self.users[np.asarray(indices, dtype=np.int64)]
        return np.asarray(self.model.score(users, self.positives[users]),
                          dtype=np.float64)


# ---------------------------------------------------------------------------
# The SUT itself
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SUTInfo:
    """Provenance of a serving model: which training run produced it."""

    benchmark: str
    seed: int
    quality: float
    epochs: int
    source: str  # artifact path the weights were loaded from


class SUT:
    """Forward-only serving over one rehydrated trained model."""

    def __init__(self, info: SUTInfo, adapter: InferenceAdapter):
        self.info = info
        self.adapter = adapter

    @property
    def pool_size(self) -> int:
        return self.adapter.pool_size

    def predict(self, indices: np.ndarray) -> np.ndarray:
        """Serve 1-D integer indices in ``[0, pool_size)`` (forward-only, no tape)."""
        idx = np.asarray(indices)
        if idx.ndim == 1 and idx.size == 0:
            return np.zeros(0)
        if (idx.ndim != 1 or idx.dtype.kind not in "iu"
                or idx.astype(np.uint64).max() >= self.adapter.pool_size):
            raise ValueError(f"indices must be 1-D integers in [0, {self.pool_size}), "
                             f"got {idx.dtype} {idx.shape}")
        with inference_mode():
            return self.adapter.predict(idx)

    def close(self) -> None:
        """A no-op: the SUT holds no resource.

        Kept because the ``benchmarks/e2e`` serving workload calls it.
        """


def load_sut(artifact: str | Path, benchmark: str | None = None) -> SUT:
    """Build a SUT from a saved ``result_*.txt`` training artifact.

    The artifact header names the benchmark (older files need it passed
    explicitly) and the ``.params.npz`` sidecar carries the weights.  The
    session is rebuilt under :func:`~repro.framework.inference_mode`, so
    every parameter comes up with ``requires_grad=False`` and the serving
    forward path records nothing.  A sidecar that does not hold exactly
    the model's parameters and buffers (batch norm's running statistics,
    without which a model answers at chance) raises one ``ValueError``
    naming the sidecar and the missing or unexpected names.
    """
    from ..core.artifacts import load_run_result, read_run_header
    from ..suite import create_benchmark

    artifact = Path(artifact)
    result = load_run_result(benchmark, artifact)
    if result.model_state is None:
        raise ValueError(
            f"{artifact}: no trained parameters (.params.npz sidecar "
            "missing) — re-run training with this version to get a "
            "servable artifact")
    if result.benchmark not in ADAPTERS:
        raise ValueError(
            f"no serving adapter for benchmark {result.benchmark!r}; "
            f"available: {sorted(ADAPTERS)}")
    bench = create_benchmark(result.benchmark)
    bench.prepare_data()
    with inference_mode():
        session = bench.create_session(result.seed, result.hyperparameters)
    model = session.model
    try:
        model.load_state_dict(result.model_state)
    except (KeyError, ValueError) as exc:
        sidecar = artifact.with_name(read_run_header(artifact)["model_params"])
        raise ValueError(f"{sidecar}: {exc.args[0]}") from None
    model.eval()
    adapter = ADAPTERS[result.benchmark](session, bench)
    info = SUTInfo(benchmark=result.benchmark, seed=result.seed,
                   quality=result.quality, epochs=result.epochs,
                   source=str(artifact))
    return SUT(info, adapter)


def train_and_save(benchmark_name: str, artifact: str | Path, *, seed: int = 0,
                   max_epochs: int = 1,
                   overrides: Mapping[str, Any] | None = None) -> Path:
    """Train one short run and save a servable artifact at ``artifact``.

    The convenience path behind ``repro loadgen`` when no ``--artifact``
    is given (and the smoke gate's fixture): quality does not need to
    reach the training target for the model to be servable, so
    ``max_epochs`` defaults to one epoch.
    """
    from ..core.artifacts import save_run_result
    from ..core.runner import BenchmarkRunner
    from ..suite import create_benchmark

    bench = create_benchmark(benchmark_name)
    runner = BenchmarkRunner()
    result = runner.run(bench, seed=seed, hyperparameter_overrides=overrides,
                        max_epochs=max_epochs)
    if result.model_state is None:
        raise RuntimeError(
            f"{benchmark_name}: training session exports no model state; "
            "cannot build a servable artifact")
    return save_run_result(Path(artifact), result)
