"""MiniSSD: a single-shot detector over ShapeScenes.

Follows the SSD recipe (Liu et al., 2016) at mini scale: a convolutional
backbone of basic residual blocks (ResNet-34 uses basic blocks — §3.1.2
notes this different block structure is part of the suite's diversity),
a dense grid of anchor boxes over the final feature map, and a multibox
head predicting per-anchor class scores and box offsets.  Training uses
IoU-based anchor matching with hard-negative mining; inference decodes
offsets and applies per-class NMS — covering the detection-specific
compute motifs the paper names (anchors, NMS, sorting).
"""

from __future__ import annotations

import numpy as np

from ..framework import Conv2d, Module, Tensor, functional as F, no_grad
from ..metrics.detection import Detection, box_iou, nms
from .resnet import BasicBlockV15

__all__ = ["AnchorGrid", "MiniSSD", "encode_boxes", "decode_boxes", "match_anchors"]


def encode_boxes(boxes: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """Encode xyxy ``boxes`` as SSD offsets relative to xyxy ``anchors``.

    Offsets are ``(dcx/aw, dcy/ah, log(w/aw), log(h/ah))`` — the standard
    parameterization.
    """
    aw = anchors[:, 2] - anchors[:, 0]
    ah = anchors[:, 3] - anchors[:, 1]
    acx = anchors[:, 0] + 0.5 * aw
    acy = anchors[:, 1] + 0.5 * ah
    bw = boxes[:, 2] - boxes[:, 0]
    bh = boxes[:, 3] - boxes[:, 1]
    bcx = boxes[:, 0] + 0.5 * bw
    bcy = boxes[:, 1] + 0.5 * bh
    return np.stack(
        [(bcx - acx) / aw, (bcy - acy) / ah, np.log(bw / aw), np.log(bh / ah)], axis=1
    ).astype(np.float32)


def decode_boxes(offsets: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """Inverse of :func:`encode_boxes`."""
    aw = anchors[:, 2] - anchors[:, 0]
    ah = anchors[:, 3] - anchors[:, 1]
    acx = anchors[:, 0] + 0.5 * aw
    acy = anchors[:, 1] + 0.5 * ah
    cx = offsets[:, 0] * aw + acx
    cy = offsets[:, 1] * ah + acy
    w = np.exp(np.clip(offsets[:, 2], -4, 4)) * aw
    h = np.exp(np.clip(offsets[:, 3], -4, 4)) * ah
    return np.stack([cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2], axis=1)


class AnchorGrid:
    """A regular grid of square anchors over a feature map."""

    def __init__(self, image_size: int, feature_size: int, scales: tuple[float, ...] = (9.0, 14.0)):
        self.image_size = image_size
        self.feature_size = feature_size
        self.scales = scales
        stride = image_size / feature_size
        centers = (np.arange(feature_size) + 0.5) * stride
        cy, cx = np.meshgrid(centers, centers, indexing="ij")
        anchors = []
        for scale in scales:
            half = scale / 2
            anchors.append(
                np.stack([cx - half, cy - half, cx + half, cy + half], axis=-1).reshape(-1, 4)
            )
        # Layout: (cell-major within scale, scales concatenated) — must match
        # the head's reshape order.
        self.boxes = np.concatenate(anchors, axis=0)

    def __len__(self) -> int:
        return len(self.boxes)


def match_anchors(
    anchors: np.ndarray,
    gt_boxes: np.ndarray,
    gt_labels: np.ndarray,
    iou_threshold: float = 0.5,
    background: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """SSD matching: anchors with IoU ≥ threshold take the GT's label, and
    every GT claims its single best anchor regardless of threshold.

    Returns ``(labels, matched_gt_index)`` where unmatched anchors get
    ``background`` and matched index -1.
    """
    n = len(anchors)
    labels = np.full(n, background, dtype=np.int64)
    matched = np.full(n, -1, dtype=np.int64)
    if len(gt_boxes) == 0:
        return labels, matched
    iou = box_iou(anchors, gt_boxes)  # (A, G)
    best_gt = iou.argmax(axis=1)
    best_iou = iou.max(axis=1)
    positive = best_iou >= iou_threshold
    # Force-match the best anchor for each ground truth.
    forced = iou.argmax(axis=0)
    positive[forced] = True
    best_gt[forced] = np.arange(len(gt_boxes))
    labels[positive] = gt_labels[best_gt[positive]]
    matched[positive] = best_gt[positive]
    return labels, matched


class MiniSSD(Module):
    """Single-shot detector: backbone + shared multibox head.

    Class layout: index 0 is background; shape classes are ``1..num_classes``.
    """

    def __init__(self, num_classes: int, rng: np.random.Generator, image_size: int = 32,
                 in_channels: int = 1, width: int = 32):
        super().__init__()
        self.num_classes = num_classes
        self.image_size = image_size
        # Backbone: stride-4 feature map of basic blocks.
        self.stem = Conv2d(in_channels, width // 2, 3, rng, stride=1, padding=1,
                           activation="relu")
        self.block1 = BasicBlockV15(width // 2, width, stride=2, rng=rng)
        self.block2 = BasicBlockV15(width, width, stride=2, rng=rng)
        self.feature_size = image_size // 4
        self.anchors = AnchorGrid(image_size, self.feature_size)
        k = len(self.anchors.scales)
        self.cls_head = Conv2d(width, k * (num_classes + 1), 3, rng, padding=1)
        self.box_head = Conv2d(width, k * 4, 3, rng, padding=1)

    def forward(self, images: Tensor) -> tuple[Tensor, Tensor]:
        """Return ``(class_logits, box_offsets)`` of shapes
        ``(N, A, num_classes+1)`` and ``(N, A, 4)``."""
        feat = self.stem(images)
        feat = self.block1(feat)
        feat = self.block2(feat)
        n = images.shape[0]
        k = len(self.anchors.scales)
        c = self.num_classes + 1
        # (N, k*c, H, W) -> (N, k, c, H*W) -> (N, k, H*W, c) -> (N, A, c)
        # with A laid out scale-major then cell-major, matching AnchorGrid.
        cls = self.cls_head(feat).reshape(n, k, c, -1).transpose(0, 1, 3, 2).reshape(n, -1, c)
        box = self.box_head(feat).reshape(n, k, 4, -1).transpose(0, 1, 3, 2).reshape(n, -1, 4)
        return cls, box

    # -- training ------------------------------------------------------------
    def loss(
        self,
        images: Tensor,
        gt_boxes: list[np.ndarray],
        gt_labels: list[np.ndarray],
        negative_ratio: float = 3.0,
    ) -> Tensor:
        """Multibox loss: CE over mined classes + smooth-L1 on positives.

        ``gt_labels`` uses shape-class ids ``0..num_classes-1``; they are
        shifted by +1 internally (0 = background).
        """
        cls_logits, box_offsets = self.forward(images)
        n, a, _ = cls_logits.shape
        anchor_boxes = self.anchors.boxes

        target_labels = np.zeros((n, a), dtype=np.int64)
        target_offsets = np.zeros((n, a, 4), dtype=np.float32)
        positive_mask = np.zeros((n, a), dtype=bool)
        for i in range(n):
            labels, matched = match_anchors(anchor_boxes, gt_boxes[i], gt_labels[i] + 1)
            target_labels[i] = labels
            pos = matched >= 0
            positive_mask[i] = pos
            if pos.any():
                target_offsets[i, pos] = encode_boxes(gt_boxes[i][matched[pos]], anchor_boxes[pos])

        # Hard-negative mining: keep the highest-loss negatives at
        # ``negative_ratio`` per positive (computed on detached logits).
        logits_detached = cls_logits.data
        log_z = np.log(np.exp(logits_detached - logits_detached.max(-1, keepdims=True)).sum(-1))
        neg_loss = log_z - (logits_detached - logits_detached.max(-1, keepdims=True))[..., 0]
        neg_loss[positive_mask] = -np.inf
        n_pos = max(int(positive_mask.sum()), 1)
        n_neg = min(int(negative_ratio * n_pos), int((~positive_mask).sum()))
        flat = neg_loss.reshape(-1)
        neg_idx = np.argpartition(-flat, n_neg - 1)[:n_neg] if n_neg > 0 else np.array([], int)
        selected = positive_mask.copy().reshape(-1)
        selected[neg_idx] = True

        flat_logits = cls_logits.reshape(-1, self.num_classes + 1)
        flat_labels = target_labels.reshape(-1).copy()
        flat_labels[~selected] = -1  # ignore unselected anchors
        cls_loss = F.cross_entropy(flat_logits, flat_labels, ignore_index=-1, reduction="sum") * (
            1.0 / n_pos
        )

        if positive_mask.any():
            pos_idx = np.nonzero(positive_mask.reshape(-1))[0]
            pred = box_offsets.reshape(-1, 4)[pos_idx]
            box_loss = F.smooth_l1_loss(
                pred, target_offsets.reshape(-1, 4)[pos_idx], reduction="sum"
            ) * (1.0 / n_pos)
            return cls_loss + box_loss
        return cls_loss

    # -- inference --------------------------------------------------------------
    def detect(
        self,
        images: Tensor,
        score_threshold: float = 0.35,
        nms_iou: float = 0.45,
        image_ids: list[int] | None = None,
        max_detections: int = 8,
    ) -> list[Detection]:
        """Decode predictions into :class:`Detection` objects (no graph)."""
        with no_grad():
            cls_logits, box_offsets = self.forward(images)
        n = cls_logits.shape[0]
        ids = image_ids if image_ids is not None else list(range(n))
        probs = np.exp(cls_logits.data - cls_logits.data.max(-1, keepdims=True))
        probs = probs / probs.sum(-1, keepdims=True)
        detections: list[Detection] = []
        for i in range(n):
            boxes = decode_boxes(box_offsets.data[i], self.anchors.boxes)
            boxes = np.clip(boxes, 0, self.image_size)
            for cls in range(1, self.num_classes + 1):
                scores = probs[i, :, cls]
                keep = scores > score_threshold
                if not keep.any():
                    continue
                kept_boxes = boxes[keep]
                kept_scores = scores[keep]
                order = nms(kept_boxes, kept_scores, nms_iou)[:max_detections]
                for j in order:
                    detections.append(
                        Detection(
                            image_id=ids[i],
                            box=kept_boxes[j],
                            label=cls - 1,  # back to shape-class ids
                            score=float(kept_scores[j]),
                        )
                    )
        return detections
