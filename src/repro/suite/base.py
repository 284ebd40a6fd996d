"""Benchmark abstractions: the executable form of Table 1.

A :class:`Benchmark` bundles what the paper says a benchmark definition
must pin down (§3.4): the dataset, the reference model and training
procedure, the quality metric and threshold, the run count (§3.2.2), and
the hyperparameters — split into *modifiable* (the rules' explicit list)
and fixed ones.

The phases mirror the timing rules of §3.2.1:

- :meth:`Benchmark.prepare_data` — data generation/reformatting, untimed;
- :meth:`Benchmark.create_session` — model creation/compilation, excludable
  from timing up to a cap;
- :meth:`TrainingSession.run_epoch` / :meth:`TrainingSession.evaluate` —
  the timed region, from first data touch to quality target.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

__all__ = ["BenchmarkSpec", "Benchmark", "TrainingSession", "chunked_forward"]


@dataclass(frozen=True)
class BenchmarkSpec:
    """The Table 1 row for one benchmark, plus the rules' HP lists."""

    name: str
    area: str  # vision / language / commerce / research (paper's taxonomy)
    dataset: str
    model: str
    quality_metric: str
    quality_threshold: float
    required_runs: int  # §3.2.2: 5 for vision, 10 for everything else
    max_epochs: int  # safety cap so non-converging runs terminate
    default_hyperparameters: Mapping[str, Any]
    modifiable_hyperparameters: frozenset[str]
    quality_details: Mapping[str, float] = field(default_factory=dict)  # e.g. dual AP thresholds

    def resolve_hyperparameters(self, overrides: Mapping[str, Any] | None) -> dict[str, Any]:
        """Merge overrides into defaults, rejecting unknown keys.

        Modifiability is *not* enforced here — that is division policy,
        checked by :mod:`repro.core.rules` — but unknown keys are always
        an error.
        """
        merged = dict(self.default_hyperparameters)
        if overrides:
            unknown = set(overrides) - set(merged)
            if unknown:
                raise KeyError(f"unknown hyperparameters for {self.name}: {sorted(unknown)}")
            merged.update(overrides)
        return merged


class TrainingSession(ABC):
    """One training run: stateful model + optimizer + data order."""

    @abstractmethod
    def run_epoch(self, epoch: int) -> int | None:
        """Train for one epoch (or one RL iteration); return the samples trained on.

        The runner is the one writer of sample counts: it logs them in the
        epoch's ``tracked_stats``, whatever telemetry is attached.
        ``None`` means the session does not count them.
        """

    def step_executor(self):
        """The session's step driver (lazily created, one per session).

        :meth:`~repro.framework.compile.StepExecutor.step` is the eager
        ``forward(); pre_backward(); loss.backward()`` sequence, as one call
        that telemetry can count and time.
        """
        executor = getattr(self, "_step_executor", None)
        if executor is None:
            from ..framework.compile import StepExecutor

            executor = self._step_executor = StepExecutor(name=type(self).__name__)
        return executor

    @abstractmethod
    def evaluate(self) -> float:
        """Return the current quality metric on the held-out set."""

    def eval_details(self) -> dict[str, float]:
        """Optional extra metrics recorded alongside the primary quality."""
        return {}

    def tracked_stats(self) -> dict[str, float]:
        """Figures the session keeps, logged in each epoch's ``tracked_stats``.

        The runner logs them beside ``epoch_seconds`` and ``samples``,
        whatever telemetry is attached: a data-parallel session reports the
        bytes its engine all-reduced so far, reinforcement the size of its
        replay buffer.  The default reports none.
        """
        return {}

    def export_state(self) -> "dict | None":
        """The trained model's parameters and buffers, keyed by name (or ``None``).

        The runner captures this right after the training loop (before
        :meth:`close`) and persists it in the run artifact, so a serving
        run (``repro loadgen``) can rehydrate any completed training run
        from its ``result_*.txt`` alone.  The default handles the common
        session layout — a ``model`` attribute that is a framework
        :class:`~repro.framework.module.Module`; sessions with a different
        layout override this, and returning ``None`` means the run is not
        servable (nothing is persisted).
        """
        from ..framework.module import Module

        model = getattr(self, "model", None)
        if isinstance(model, Module):
            return model.state_dict()
        return None


def chunked_forward(forward: Callable, inputs, batch: int):
    """``forward`` under ``no_grad``, ``batch`` rows of ``inputs`` at a time, concatenated."""
    # Lazy, as above: at module level these imports doubled vision_ttt's page faults.
    import numpy as np
    from ..framework import no_grad

    with no_grad():
        return np.concatenate([forward(inputs[i:i + batch]) for i in range(0, len(inputs), batch)])


class Benchmark(ABC):
    """A benchmark definition: spec + data + session factory."""

    spec: BenchmarkSpec

    @abstractmethod
    def prepare_data(self) -> None:
        """Generate/load the dataset (untimed reformatting; idempotent)."""

    @abstractmethod
    def create_session(self, seed: int, hyperparameters: Mapping[str, Any]) -> TrainingSession:
        """Build the model/optimizer (the excludable model-creation phase).

        ``hyperparameters`` must already be resolved via
        :meth:`BenchmarkSpec.resolve_hyperparameters`.
        """

    @property
    def name(self) -> str:
        return self.spec.name
