"""Heavyweight detection/segmentation benchmark: MiniMaskRCNN on ShapeScenes.

The Mask R-CNN row of Table 1 (§3.1.2).  Like the paper's version it has a
*dual* quality requirement — box AP and mask AP thresholds must both be
met.  The harness tracks a scalar quality, so the primary metric is the
normalized minimum ``min(box_ap / box_thr, mask_ap / mask_thr)`` with
threshold 1.0; both raw APs are reported via :meth:`eval_details` and
logged.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from ..datasets import SceneConfig, ShapeScenes
from ..framework import SGD, Tensor, WarmupStepLR
from ..metrics import GroundTruth, mean_average_precision
from ..models import MiniMaskRCNN
from ..telemetry import current_metrics, current_tracer
from .base import Benchmark, BenchmarkSpec, TrainingSession

__all__ = ["InstanceSegmentationBenchmark"]

BOX_AP_THRESHOLD = 0.50
MASK_AP_THRESHOLD = 0.45

_SPEC = BenchmarkSpec(
    name="instance_segmentation",
    area="vision",
    dataset="ShapeScenes",
    model="MiniMaskRCNN",
    quality_metric="min(boxAP, maskAP)/thresholds",
    quality_threshold=1.0,
    required_runs=5,
    max_epochs=25,
    default_hyperparameters={
        "batch_size": 8,
        "base_lr": 0.02,
        "momentum": 0.9,
        "momentum_style": "torch",
        "weight_decay": 1e-4,
        "warmup_epochs": 1,
        "decay_epochs": (12, 18),
    },
    modifiable_hyperparameters=frozenset(
        {"batch_size", "base_lr", "warmup_epochs", "decay_epochs"}
    ),
    quality_details={"box_ap": BOX_AP_THRESHOLD, "mask_ap": MASK_AP_THRESHOLD},
)


class _Session(TrainingSession):
    def __init__(self, benchmark: "InstanceSegmentationBenchmark", seed: int, hp: Mapping[str, Any]):
        self.hp = dict(hp)
        self.scenes = benchmark.scenes
        rng = np.random.default_rng(seed)
        self.model = MiniMaskRCNN(3, rng, image_size=benchmark.scene_config.image_size)
        self.optimizer = SGD(
            self.model.parameters(), lr=hp["base_lr"], momentum=hp["momentum"],
            weight_decay=hp["weight_decay"], momentum_style=hp["momentum_style"],
        )
        steps = max(len(self.scenes.train) // hp["batch_size"], 1)
        self.scheduler = WarmupStepLR(
            self.optimizer, base_lr=hp["base_lr"],
            warmup_steps=hp["warmup_epochs"] * steps,
            milestones=[e * steps for e in hp["decay_epochs"]],
        )
        self.seed = seed
        self._details: dict[str, float] = {}

    def run_epoch(self, epoch: int) -> None:
        self.model.train()
        rng = np.random.default_rng((self.seed, epoch))
        order = rng.permutation(len(self.scenes.train))
        bs = self.hp["batch_size"]
        tracer = current_tracer()
        samples = current_metrics().counter("samples_seen")
        for start in range(0, len(order) - bs + 1, bs):
            batch = [self.scenes.train[i] for i in order[start : start + bs]]
            with tracer.span("train_step", batch=bs):
                images = Tensor(ShapeScenes.batch_images(batch))
                boxes = [np.stack([o.box for o in s.objects]) for s in batch]
                labels = [np.array([o.label for o in s.objects]) for s in batch]
                masks = [np.stack([o.mask for o in s.objects]) for s in batch]
                loss = self.step_executor().step(
                    lambda: self.model.loss(images, boxes, labels, masks),
                    pre_backward=self.model.zero_grad,
                )
                self.optimizer.step()
                self.scheduler.step()
            samples.inc(bs)

    def evaluate(self) -> float:
        self.model.eval()
        scenes = self.scenes.val
        ground_truths = [
            GroundTruth(image_id=i, box=o.box, label=o.label, mask=o.mask)
            for i, s in enumerate(scenes)
            for o in s.objects
        ]
        detections = []
        for start in range(0, len(scenes), 16):
            chunk = scenes[start : start + 16]
            images = Tensor(ShapeScenes.batch_images(chunk))
            detections.extend(
                self.model.detect(images, image_ids=list(range(start, start + len(chunk))))
            )
        box_ap = mean_average_precision(detections, ground_truths, iou_thresholds=(0.5,))
        mask_ap = mean_average_precision(
            detections, ground_truths, iou_thresholds=(0.5,), use_masks=True
        )
        self._details = {"box_ap": box_ap, "mask_ap": mask_ap}
        return min(box_ap / BOX_AP_THRESHOLD, mask_ap / MASK_AP_THRESHOLD)

    def eval_details(self) -> dict[str, float]:
        return dict(self._details)


class InstanceSegmentationBenchmark(Benchmark):
    spec = _SPEC

    def __init__(self, scene_config: SceneConfig | None = None):
        # Smaller training set than SSD: Mask R-CNN is the heavyweight entry.
        self.scene_config = scene_config or SceneConfig(train_size=240, val_size=60)
        self.scenes: ShapeScenes | None = None

    def prepare_data(self) -> None:
        if self.scenes is None:
            self.scenes = ShapeScenes(self.scene_config)

    def create_session(self, seed: int, hyperparameters: Mapping[str, Any]) -> TrainingSession:
        if self.scenes is None:
            raise RuntimeError("call prepare_data() before create_session()")
        return _Session(self, seed, hyperparameters)
