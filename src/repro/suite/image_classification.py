"""Image classification benchmark: MiniResNet-v1.5 on SyntheticImageNet.

The suite's analog of ResNet-50 v1.5 / ImageNet (§3.1.1, Table 1 row 1):
SGD with momentum, linear-warmup + step-decay LR schedule, random
crop/flip augmentation, quality = top-1 accuracy on the validation set.
The LARS optimizer is available as a hyperparameter — the v0.6 rule change
that enabled large-batch entries (§5).
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from ..datasets import ImageNetConfig, SyntheticImageNet, random_crop_flip
from ..framework import (
    DataLoader,
    LARS,
    SGD,
    Tensor,
    WarmupStepLR,
    functional as F,
)
from ..metrics import top1_accuracy
from ..models import MiniResNet
from .base import Benchmark, BenchmarkSpec, TrainingSession, chunked_forward

__all__ = ["ImageClassificationBenchmark", "classify_logits"]

_SPEC = BenchmarkSpec(
    name="image_classification",
    area="vision",
    dataset="SyntheticImageNet",
    model="MiniResNet-v1.5",
    quality_metric="top1_accuracy",
    quality_threshold=0.90,
    required_runs=5,
    max_epochs=20,
    default_hyperparameters={
        "batch_size": 64,
        "base_lr": 0.10,
        "momentum": 0.9,
        "momentum_style": "torch",
        "weight_decay": 1e-4,
        "warmup_epochs": 1,
        "decay_epochs": (8, 14),
        "optimizer": "sgd",  # "lars" allowed for large-batch entries
        "lars_trust": 0.02,
        "augment": True,
    },
    modifiable_hyperparameters=frozenset(
        {"batch_size", "base_lr", "warmup_epochs", "decay_epochs", "optimizer", "lars_trust"}
    ),
)


def classify_logits(model, images: np.ndarray, batch: int) -> np.ndarray:
    """The inference forward, ``batch`` images at a time (evaluate and serving)."""
    return chunked_forward(lambda x: model(Tensor(x)).data, images, batch)


class _Session(TrainingSession):
    def __init__(self, benchmark: "ImageClassificationBenchmark", seed: int, hp: Mapping[str, Any]):
        self.hp = dict(hp)
        self.data = benchmark.data
        rng = np.random.default_rng(seed)
        self.model = MiniResNet(self.data.config.num_classes, rng, blocks_per_stage=1)
        params = self.model.parameters()
        if hp["optimizer"] == "lars":
            self.optimizer = LARS(
                params, lr=hp["base_lr"], momentum=hp["momentum"],
                weight_decay=hp["weight_decay"], trust_coefficient=hp["lars_trust"],
            )
        elif hp["optimizer"] == "sgd":
            self.optimizer = SGD(
                params, lr=hp["base_lr"], momentum=hp["momentum"],
                weight_decay=hp["weight_decay"], momentum_style=hp["momentum_style"],
            )
        else:
            raise ValueError(f"unknown optimizer {hp['optimizer']!r}")
        steps_per_epoch = max(len(self.data.train) // hp["batch_size"], 1)
        self.scheduler = WarmupStepLR(
            self.optimizer,
            base_lr=hp["base_lr"],
            warmup_steps=hp["warmup_epochs"] * steps_per_epoch,
            milestones=[e * steps_per_epoch for e in hp["decay_epochs"]],
        )
        augment = random_crop_flip if hp["augment"] else None
        self.loader = DataLoader(
            self.data.train, hp["batch_size"], seed=seed, drop_last=True, augment=augment
        )

    def run_epoch(self, epoch: int) -> int:
        self.model.train()
        seen = 0
        for images, labels in self.loader:
            loss = self.step_executor().step(
                lambda: F.cross_entropy(self.model(Tensor(images)), labels),
                pre_backward=self.model.zero_grad,
            )
            self.optimizer.step()
            self.scheduler.step()
            seen += len(images)
        return seen

    def logits(self, images: np.ndarray) -> np.ndarray:
        return classify_logits(self.model, images, self.hp["batch_size"])

    def evaluate(self) -> float:
        self.model.eval()
        images, labels = self.data.val.arrays
        return top1_accuracy(self.logits(images), labels)


class ImageClassificationBenchmark(Benchmark):
    spec = _SPEC

    def __init__(self, data_config: ImageNetConfig = ImageNetConfig()):
        self.data_config = data_config
        self.data: SyntheticImageNet | None = None

    def prepare_data(self) -> None:
        if self.data is None:
            self.data = SyntheticImageNet(self.data_config)

    def create_session(self, seed: int, hyperparameters: Mapping[str, Any]) -> TrainingSession:
        if self.data is None:
            raise RuntimeError("call prepare_data() before create_session()")
        return _Session(self, seed, hyperparameters)
