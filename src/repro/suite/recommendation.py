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
from ..telemetry import current_metrics, current_tracer
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
        # §2.2.2 scale-out: >1 runs each step through ShardedDataParallel
        # (bit-identical to dp_workers' in-process synchronous semantics).
        "dp_workers": 1,
        "dp_algorithm": "flat",
    },
    modifiable_hyperparameters=frozenset(
        {"batch_size", "base_lr", "num_negatives", "dp_workers", "dp_algorithm"}
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
            from ..comms import ShardedDataParallel

            self._engine = ShardedDataParallel(
                self.model, self.optimizer, workers, _dp_loss,
                algorithm=hp.get("dp_algorithm", "flat"),
            )

    def run_epoch(self, epoch: int) -> None:
        """One pass over the positive interactions with fresh negatives."""
        self.model.train()
        rng = np.random.default_rng((self.seed, epoch))
        n_pos = len(self.data.train_users)
        bs = self.hp["batch_size"]
        tracer = current_tracer()
        samples = current_metrics().counter("samples_seen")
        for _ in range(max(n_pos // bs, 1)):
            with tracer.span("train_step", batch=bs):
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
            samples.inc(len(users))

    def close(self) -> None:
        if self._engine is not None:
            self._engine.close()
            self._engine = None

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
