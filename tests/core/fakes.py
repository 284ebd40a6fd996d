"""A fast, deterministic fake benchmark for exercising the harness."""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.suite.base import Benchmark, BenchmarkSpec, TrainingSession

FAKE_SPEC = BenchmarkSpec(
    name="fake_benchmark",
    area="vision",
    dataset="FakeData",
    model="FakeNet",
    quality_metric="accuracy",
    quality_threshold=0.8,
    required_runs=5,
    max_epochs=50,
    default_hyperparameters={
        "batch_size": 32,
        "base_lr": 0.1,
        "momentum": 0.9,
        "learning_speed": 0.1,
    },
    modifiable_hyperparameters=frozenset({"batch_size", "base_lr"}),
)


class FakeSession(TrainingSession):
    """Quality follows a noisy saturating curve; optionally burns fake time."""

    def __init__(self, seed: int, hp: Mapping[str, Any], clock=None, epoch_cost_s: float = 1.0):
        self.rng = np.random.default_rng(seed)
        self.quality = 0.0
        self.speed = hp["learning_speed"]
        self.clock = clock
        self.epoch_cost_s = epoch_cost_s

    def run_epoch(self, epoch: int) -> int:
        gain = self.speed * (1.0 + 0.3 * self.rng.standard_normal())
        self.quality = min(self.quality + max(gain, 0.0), 1.0)
        if self.clock is not None:
            self.clock.advance(self.epoch_cost_s)
        return 32

    def evaluate(self) -> float:
        return self.quality

    def eval_details(self) -> dict[str, float]:
        return {"aux_metric": self.quality / 2}


class FakeBenchmark(Benchmark):
    spec = FAKE_SPEC

    def __init__(self, clock=None, epoch_cost_s: float = 1.0):
        self.prepared = 0
        self.clock = clock
        self.epoch_cost_s = epoch_cost_s

    def prepare_data(self) -> None:
        self.prepared += 1

    def create_session(self, seed: int, hyperparameters: Mapping[str, Any]) -> TrainingSession:
        return FakeSession(seed, hyperparameters, clock=self.clock, epoch_cost_s=self.epoch_cost_s)
