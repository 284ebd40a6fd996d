"""Lightweight object-detection benchmark: MiniSSD on ShapeScenes.

The SSD row of Table 1 (§3.1.2): single-shot detection representing
real-time applications, quality = mAP on the validation scenes.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from ..datasets import SceneConfig, ShapeScenes
from ..framework import SGD, Tensor, WarmupStepLR
from ..metrics import GroundTruth, mean_average_precision
from ..models import MiniSSD
from .base import Benchmark, BenchmarkSpec, TrainingSession

__all__ = ["ObjectDetectionBenchmark"]

_SPEC = BenchmarkSpec(
    name="object_detection",
    area="vision",
    dataset="ShapeScenes",
    model="MiniSSD",
    quality_metric="mAP@0.5",
    quality_threshold=0.50,
    required_runs=5,
    max_epochs=25,
    default_hyperparameters={
        "batch_size": 16,
        "base_lr": 0.02,
        "momentum": 0.9,
        "momentum_style": "torch",
        "weight_decay": 5e-4,
        "warmup_epochs": 1,
        "decay_epochs": (12, 18),
        "negative_ratio": 3.0,
    },
    modifiable_hyperparameters=frozenset(
        {"batch_size", "base_lr", "warmup_epochs", "decay_epochs"}
    ),
)


class _Session(TrainingSession):
    def __init__(self, benchmark: "ObjectDetectionBenchmark", seed: int, hp: Mapping[str, Any]):
        self.hp = dict(hp)
        self.scenes = benchmark.scenes
        rng = np.random.default_rng(seed)
        cfg = benchmark.scene_config
        self.model = MiniSSD(3, rng, image_size=cfg.image_size)
        self.optimizer = SGD(
            self.model.parameters(), lr=hp["base_lr"], momentum=hp["momentum"],
            weight_decay=hp["weight_decay"], momentum_style=hp["momentum_style"],
        )
        self.steps_per_epoch = max(len(self.scenes.train) // hp["batch_size"], 1)
        self.scheduler = WarmupStepLR(
            self.optimizer, base_lr=hp["base_lr"],
            warmup_steps=hp["warmup_epochs"] * self.steps_per_epoch,
            milestones=[e * self.steps_per_epoch for e in hp["decay_epochs"]],
        )
        self.seed = seed

    def run_epoch(self, epoch: int) -> int:
        self.model.train()
        rng = np.random.default_rng((self.seed, epoch))
        order = rng.permutation(len(self.scenes.train))
        bs = self.hp["batch_size"]
        seen = 0
        for start in range(0, len(order) - bs + 1, bs):
            batch = [self.scenes.train[i] for i in order[start : start + bs]]
            images = Tensor(ShapeScenes.batch_images(batch))
            boxes = [np.stack([o.box for o in s.objects]) for s in batch]
            labels = [np.array([o.label for o in s.objects]) for s in batch]
            loss = self.step_executor().step(
                lambda: self.model.loss(images, boxes, labels,
                                        negative_ratio=self.hp["negative_ratio"]),
                pre_backward=self.model.zero_grad,
            )
            self.optimizer.step()
            self.scheduler.step()
            seen += bs
        return seen

    def evaluate(self) -> float:
        self.model.eval()
        scenes = self.scenes.val
        ground_truths = [
            GroundTruth(image_id=i, box=o.box, label=o.label)
            for i, s in enumerate(scenes)
            for o in s.objects
        ]
        detections = []
        for start in range(0, len(scenes), 32):
            chunk = scenes[start : start + 32]
            images = Tensor(ShapeScenes.batch_images(chunk))
            detections.extend(
                self.model.detect(images, image_ids=list(range(start, start + len(chunk))))
            )
        return mean_average_precision(detections, ground_truths, iou_thresholds=(0.5,))


class ObjectDetectionBenchmark(Benchmark):
    spec = _SPEC

    def __init__(self, scene_config: SceneConfig = SceneConfig()):
        self.scene_config = scene_config
        self.scenes: ShapeScenes | None = None

    def prepare_data(self) -> None:
        if self.scenes is None:
            self.scenes = ShapeScenes(self.scene_config)

    def create_session(self, seed: int, hyperparameters: Mapping[str, Any]) -> TrainingSession:
        if self.scenes is None:
            raise RuntimeError("call prepare_data() before create_session()")
        return _Session(self, seed, hyperparameters)
