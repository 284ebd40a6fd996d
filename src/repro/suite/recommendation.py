"""Recommendation benchmark: NCF on SyntheticInteractions.

The NCF row of Table 1 (§3.1.5): implicit-feedback training with sampled
negatives, leave-one-out evaluation, quality = HR@10.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from ..datasets import InteractionConfig, SyntheticInteractions
from ..framework import Adam
from ..metrics import leave_one_out_eval
from ..models import NCF
from .base import Benchmark, BenchmarkSpec, TrainingSession

__all__ = ["RecommendationBenchmark"]

_SPEC = BenchmarkSpec(
    name="recommendation",
    area="commerce",
    dataset="SyntheticInteractions",
    model="NCF",
    quality_metric="HR@10",
    quality_threshold=0.65,
    required_runs=10,
    max_epochs=40,
    default_hyperparameters={
        "batch_size": 256,
        "base_lr": 2e-3,
        "num_negatives": 4,
        "gmf_dim": 8,
        "mlp_dim": 16,
        "mlp_hidden": (32, 16),
        # §2.2.2 scale-out: >1 runs each step through SynchronousDataParallel.
        "dp_workers": 1,
    },
    modifiable_hyperparameters=frozenset(
        {"batch_size", "base_lr", "num_negatives", "dp_workers"}
    ),
)


def _dp_loss(model: NCF, shard: tuple) -> "Tensor":
    users, items, labels = shard
    return model.loss(users, items, labels)


class _Session(TrainingSession):
    def __init__(self, benchmark: "RecommendationBenchmark", seed: int, hp: Mapping[str, Any]):
        self.hp = dict(hp)
        self.data = benchmark.data
        cfg = benchmark.data_config
        rng = np.random.default_rng(seed)
        self.model = NCF(
            cfg.num_users, cfg.num_items, rng,
            gmf_dim=hp["gmf_dim"], mlp_dim=hp["mlp_dim"], mlp_hidden=tuple(hp["mlp_hidden"]),
        )
        self.optimizer = Adam(self.model.parameters(), lr=hp["base_lr"])
        self.seed = seed
        self._ndcg = 0.0
        self._engine = None
        workers = int(hp.get("dp_workers", 1))
        if workers > 1:
            if hp["batch_size"] % workers != 0:
                raise ValueError(
                    f"batch_size {hp['batch_size']} not divisible by "
                    f"dp_workers {workers}"
                )
            from ..systems.dataparallel import SynchronousDataParallel

            self._engine = SynchronousDataParallel(
                self.model, self.optimizer, workers, _dp_loss)

    def run_epoch(self, epoch: int) -> int:
        """One pass over the positive interactions with fresh negatives."""
        self.model.train()
        rng = np.random.default_rng((self.seed, epoch))
        n_pos = len(self.data.train_users)
        bs = self.hp["batch_size"]
        seen = 0
        for _ in range(max(n_pos // bs, 1)):
            users, items, labels = self.data.sample_training_batch(
                bs, self.hp["num_negatives"], rng
            )
            if self._engine is not None:
                self._engine.step((users, items, labels))
            else:
                loss = self.step_executor().step(
                    lambda: self.model.loss(users, items, labels),
                    pre_backward=self.model.zero_grad,
                )
                self.optimizer.step()
            seen += len(users)
        return seen

    def evaluate(self) -> float:
        self.model.eval()
        hr, ndcg = leave_one_out_eval(
            self.model.score,
            self.data.eval_positives,
            self.data.eval_negatives,
            self.data.all_users,
            k=10,
        )
        self._ndcg = ndcg
        return hr

    def eval_details(self) -> dict[str, float]:
        return {"ndcg@10": self._ndcg}

    def tracked_stats(self) -> dict[str, float]:
        if self._engine is None:
            return {}
        return {"allreduce_bytes": float(self._engine.allreduce_bytes)}


class RecommendationBenchmark(Benchmark):
    spec = _SPEC

    def __init__(self, data_config: InteractionConfig = InteractionConfig()):
        self.data_config = data_config
        self.data: SyntheticInteractions | None = None

    def prepare_data(self) -> None:
        if self.data is None:
            self.data = SyntheticInteractions(self.data_config)

    def create_session(self, seed: int, hyperparameters: Mapping[str, Any]) -> TrainingSession:
        if self.data is None:
            raise RuntimeError("call prepare_data() before create_session()")
        return _Session(self, seed, hyperparameters)
