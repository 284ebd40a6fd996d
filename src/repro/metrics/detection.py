"""Object-detection and instance-segmentation metrics: IoU, NMS, AP, mAP.

Implements the COCO-style evaluation protocol at mini scale: detections are
matched to ground truth greedily in descending score order at a given IoU
threshold; average precision is the area under the interpolated
precision-recall curve; mAP averages AP over classes (and optionally over a
range of IoU thresholds, as COCO does).  Mask AP replaces box IoU with
pixelwise mask IoU.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Detection",
    "GroundTruth",
    "box_iou",
    "mask_iou",
    "nms",
    "average_precision",
    "mean_average_precision",
    "COCO_IOU_THRESHOLDS",
]

# COCO averages AP over IoU in {0.50, 0.55, ..., 0.95}.
COCO_IOU_THRESHOLDS = tuple(np.round(np.arange(0.5, 1.0, 0.05), 2))


@dataclass
class Detection:
    """One predicted object: box ``(x1, y1, x2, y2)``, class id, confidence."""

    image_id: int
    box: np.ndarray
    label: int
    score: float
    mask: np.ndarray | None = None


@dataclass
class GroundTruth:
    """One annotated object."""

    image_id: int
    box: np.ndarray
    label: int
    mask: np.ndarray | None = None


def box_iou(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between ``(N,4)`` and ``(M,4)`` xyxy boxes -> ``(N,M)``."""
    boxes_a = np.atleast_2d(np.asarray(boxes_a, dtype=np.float64))
    boxes_b = np.atleast_2d(np.asarray(boxes_b, dtype=np.float64))
    x1 = np.maximum(boxes_a[:, None, 0], boxes_b[None, :, 0])
    y1 = np.maximum(boxes_a[:, None, 1], boxes_b[None, :, 1])
    x2 = np.minimum(boxes_a[:, None, 2], boxes_b[None, :, 2])
    y2 = np.minimum(boxes_a[:, None, 3], boxes_b[None, :, 3])
    inter = np.clip(x2 - x1, 0, None) * np.clip(y2 - y1, 0, None)
    area_a = (boxes_a[:, 2] - boxes_a[:, 0]) * (boxes_a[:, 3] - boxes_a[:, 1])
    area_b = (boxes_b[:, 2] - boxes_b[:, 0]) * (boxes_b[:, 3] - boxes_b[:, 1])
    union = area_a[:, None] + area_b[None, :] - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        iou = np.where(union > 0, inter / union, 0.0)
    return iou


def mask_iou(masks_a: np.ndarray, masks_b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between boolean mask stacks ``(N,H,W)`` and ``(M,H,W)``."""
    a = np.asarray(masks_a, dtype=bool).reshape(len(masks_a), -1)
    b = np.asarray(masks_b, dtype=bool).reshape(len(masks_b), -1)
    inter = (a[:, None, :] & b[None, :, :]).sum(axis=2).astype(np.float64)
    union = (a[:, None, :] | b[None, :, :]).sum(axis=2).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(union > 0, inter / union, 0.0)


def nms(boxes: np.ndarray, scores: np.ndarray, iou_threshold: float = 0.5) -> np.ndarray:
    """Greedy non-maximum suppression; returns kept indices, best first.

    One of the detection-specific layer types (§3.1.2: "NMS, sorting") the
    paper cites as distinguishing detection compute from classification.
    """
    boxes = np.asarray(boxes, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    if len(boxes) != len(scores):
        raise ValueError(f"{len(boxes)} boxes but {len(scores)} scores")
    order = np.argsort(-scores)
    if order.size == 0:
        return np.empty(0, dtype=np.int64)
    # One pairwise matrix over the score-ranked boxes, then a greedy walk:
    # a kept box leaves alive only the boxes it does not overlap.  ``<=``
    # is False for a NaN IoU, so NaN suppresses.
    ranked = boxes[order]
    clear = box_iou(ranked, ranked) <= iou_threshold
    alive = np.ones(order.size, dtype=bool)
    keep: list[int] = []
    for i in range(order.size):
        if alive[i]:
            keep.append(i)
            alive &= clear[i]
    return order[keep].astype(np.int64, copy=False)


def _match_detections(
    detections: list[Detection],
    ground_truths: list[GroundTruth],
    iou_threshold: float,
    use_masks: bool,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Greedy matching for one class: returns (tp_flags, scores, n_gt)."""
    dets = sorted(detections, key=lambda d: -d.score)
    gts_by_image: dict[int, list[GroundTruth]] = {}
    for gt in ground_truths:
        gts_by_image.setdefault(gt.image_id, []).append(gt)
    matched: dict[int, set[int]] = {img: set() for img in gts_by_image}

    tp = np.zeros(len(dets), dtype=bool)
    scores = np.array([d.score for d in dets], dtype=np.float64)
    for i, det in enumerate(dets):
        candidates = gts_by_image.get(det.image_id, [])
        if not candidates:
            continue
        if use_masks:
            ious = mask_iou(det.mask[None], np.stack([g.mask for g in candidates]))[0]
        else:
            ious = box_iou(det.box[None], np.stack([g.box for g in candidates]))[0]
        best = int(np.argmax(ious))
        if ious[best] >= iou_threshold and best not in matched[det.image_id]:
            tp[i] = True
            matched[det.image_id].add(best)
    return tp, scores, len(ground_truths)


def average_precision(
    detections: list[Detection],
    ground_truths: list[GroundTruth],
    iou_threshold: float = 0.5,
    use_masks: bool = False,
) -> float:
    """AP for a single class at one IoU threshold (all-point interpolation)."""
    if not ground_truths:
        return 0.0
    tp, _, n_gt = _match_detections(detections, ground_truths, iou_threshold, use_masks)
    if len(tp) == 0:
        return 0.0
    cum_tp = np.cumsum(tp)
    cum_fp = np.cumsum(~tp)
    recall = cum_tp / n_gt
    precision = cum_tp / (cum_tp + cum_fp)
    # Interpolated precision: running max from the right.
    precision = np.maximum.accumulate(precision[::-1])[::-1]
    # Area under PR curve over recall increments.
    recall = np.concatenate([[0.0], recall])
    precision = np.concatenate([[precision[0] if len(precision) else 0.0], precision])
    return float(np.sum((recall[1:] - recall[:-1]) * precision[1:]))


def mean_average_precision(
    detections: list[Detection],
    ground_truths: list[GroundTruth],
    iou_thresholds: tuple[float, ...] = (0.5,),
    use_masks: bool = False,
) -> float:
    """mAP: mean AP over classes present in the ground truth, then over
    IoU thresholds.  Pass ``COCO_IOU_THRESHOLDS`` for COCO-style AP."""
    labels = sorted({gt.label for gt in ground_truths})
    if not labels:
        return 0.0
    per_threshold = []
    for thr in iou_thresholds:
        aps = []
        for label in labels:
            dets = [d for d in detections if d.label == label]
            gts = [g for g in ground_truths if g.label == label]
            aps.append(average_precision(dets, gts, thr, use_masks))
        per_threshold.append(float(np.mean(aps)))
    return float(np.mean(per_threshold))
