"""MiniMaskRCNN: a two-stage detector with box and mask heads.

Retains the defining structure of Mask R-CNN (He et al., 2017a) that §3.1.2
describes: "a two-stage model, with the first stage proposing regions of
interest, and the second stage processing those regions to compute bounding
boxes and segmentation masks."

- **Stage 1** is a dense proposal network over the backbone feature map:
  per-anchor objectness + box deltas, decoded and NMS-filtered into a small
  set of proposals.
- **Stage 2** RoIAligns each proposal and runs two heads: a box head
  (classification over shape classes + background, plus box refinement)
  and a mask head (per-RoI binary mask logits, class-agnostic at this
  scale).

Quality is measured as (box AP, mask AP) with dual thresholds, mirroring
Table 1's "0.377 Box min AP, 0.339 Mask min AP".
"""

from __future__ import annotations

import numpy as np

from ..framework import Conv2d, Linear, Module, Tensor, functional as F, no_grad
from ..metrics.detection import Detection, box_iou, nms
from .resnet import BasicBlockV15
from .roi import roi_align
from .ssd import AnchorGrid, decode_boxes, encode_boxes

__all__ = ["MiniMaskRCNN"]


class MiniMaskRCNN(Module):
    """Two-stage detector/segmenter over ShapeScenes."""

    ROI_SIZE = 7
    MASK_SIZE = 14

    def __init__(self, num_classes: int, rng: np.random.Generator, image_size: int = 32,
                 in_channels: int = 1, width: int = 32, proposals_per_image: int = 6):
        super().__init__()
        self.num_classes = num_classes
        self.image_size = image_size
        self.proposals_per_image = proposals_per_image
        # Backbone (stride 4), shared by both stages.
        self.stem = Conv2d(in_channels, width // 2, 3, rng, stride=1, padding=1,
                           activation="relu")
        self.block1 = BasicBlockV15(width // 2, width, stride=2, rng=rng)
        self.block2 = BasicBlockV15(width, width, stride=2, rng=rng)
        self.stride = 4
        feature_size = image_size // self.stride
        self.anchors = AnchorGrid(image_size, feature_size, scales=(10.0,))
        # Stage 1: proposal head.
        self.rpn_conv = Conv2d(width, width, 3, rng, padding=1, activation="relu")
        self.rpn_obj = Conv2d(width, 1, 1, rng)
        self.rpn_box = Conv2d(width, 4, 1, rng)
        # Stage 2: box head.
        roi_feat = width * self.ROI_SIZE * self.ROI_SIZE
        self.box_fc = Linear(roi_feat, 64, rng, activation="relu")
        self.cls_out = Linear(64, num_classes + 1, rng)
        self.box_out = Linear(64, 4, rng)
        # Stage 2: mask head (conv, then 2x nearest upsample, then 1x1).
        self.mask_conv1 = Conv2d(width, width, 3, rng, padding=1, activation="relu")
        self.mask_conv2 = Conv2d(width, width, 3, rng, padding=1, activation="relu")
        self.mask_out = Conv2d(width, 1, 1, rng)

    # -- shared pieces ------------------------------------------------------
    def backbone(self, images: Tensor) -> Tensor:
        feat = self.stem(images)
        feat = self.block1(feat)
        return self.block2(feat)

    def rpn(self, feat: Tensor) -> tuple[Tensor, Tensor]:
        """Return per-anchor objectness logits ``(N, A)`` and deltas ``(N, A, 4)``."""
        h = self.rpn_conv(feat)
        n = feat.shape[0]
        obj = self.rpn_obj(h).reshape(n, -1)
        box = self.rpn_box(h).reshape(n, 4, -1).transpose(0, 2, 1)
        return obj, box

    def propose(self, obj_logits: np.ndarray, box_deltas: np.ndarray,
                max_proposals: int | None = None) -> list[np.ndarray]:
        """Decode + NMS the proposal stage into per-image box arrays."""
        max_proposals = max_proposals or self.proposals_per_image
        proposals: list[np.ndarray] = []
        for i in range(len(obj_logits)):
            boxes = decode_boxes(box_deltas[i], self.anchors.boxes)
            boxes = np.clip(boxes, 0, self.image_size)
            # Degenerate boxes break RoIAlign; enforce a minimum extent.
            boxes[:, 2] = np.maximum(boxes[:, 2], boxes[:, 0] + 2.0)
            boxes[:, 3] = np.maximum(boxes[:, 3], boxes[:, 1] + 2.0)
            keep = nms(boxes, obj_logits[i], iou_threshold=0.5)[:max_proposals]
            proposals.append(boxes[keep])
        return proposals

    def _upsample2x(self, x: Tensor) -> Tensor:
        """Nearest-neighbour 2x spatial upsample (one graph node)."""
        out = np.repeat(np.repeat(x.data, 2, axis=2), 2, axis=3)

        def backward(result: Tensor) -> None:
            # Each input pixel's gradient is the sum of its 2x2 outputs,
            # columns first, then rows: the order a scatter into zeros adds
            # them in.  The scatter's leading zero shows only in the sign of
            # a zero result (``0.0 + -0.0`` is ``+0.0``); adding it in the
            # rows step covers the columns step too, whose zeros it absorbs.
            g = result.grad
            cols = g[..., 0::2] + g[..., 1::2]
            grad = np.empty_like(x.data)
            np.add(cols[:, :, 0::2], 0.0, out=grad)
            grad += cols[:, :, 1::2]
            x._accumulate(grad, owned=True)

        return Tensor._make(out, (x,), backward)

    def mask_head(self, roi_feats: Tensor) -> Tensor:
        h = self.mask_conv1(roi_feats)
        h = self.mask_conv2(h)
        h = self._upsample2x(h)
        return self.mask_out(h)[:, 0]  # (K, 2*ROI, 2*ROI) logits

    def box_head(self, roi_feats: Tensor) -> tuple[Tensor, Tensor]:
        flat = roi_feats.reshape(roi_feats.shape[0], -1)
        h = self.box_fc(flat)
        return self.cls_out(h), self.box_out(h)

    # -- training ---------------------------------------------------------------
    def loss(self, images: Tensor, gt_boxes: list[np.ndarray], gt_labels: list[np.ndarray],
             gt_masks: list[np.ndarray]) -> Tensor:
        feat = self.backbone(images)
        obj_logits, box_deltas = self.rpn(feat)
        n = images.shape[0]
        anchor_boxes = self.anchors.boxes

        # --- Stage-1 targets: anchor-level objectness + regression ---
        obj_targets = np.zeros((n, len(anchor_boxes)), dtype=np.float32)
        reg_targets = np.zeros((n, len(anchor_boxes), 4), dtype=np.float32)
        reg_mask = np.zeros((n, len(anchor_boxes)), dtype=bool)
        for i in range(n):
            if len(gt_boxes[i]) == 0:
                continue
            iou = box_iou(anchor_boxes, gt_boxes[i])
            best_gt = iou.argmax(axis=1)
            positive = iou.max(axis=1) >= 0.4
            positive[iou.argmax(axis=0)] = True
            obj_targets[i, positive] = 1.0
            reg_mask[i, positive] = True
            reg_targets[i, positive] = encode_boxes(
                gt_boxes[i][best_gt[positive]], anchor_boxes[positive]
            )

        rpn_cls = F.binary_cross_entropy_with_logits(obj_logits, obj_targets)
        n_pos = max(int(reg_mask.sum()), 1)
        pos_idx = np.nonzero(reg_mask.reshape(-1))[0]
        if len(pos_idx):
            rpn_reg = F.smooth_l1_loss(
                box_deltas.reshape(-1, 4)[pos_idx],
                reg_targets.reshape(-1, 4)[pos_idx],
                reduction="sum",
            ) * (1.0 / n_pos)
        else:
            rpn_reg = Tensor(np.float32(0.0))

        # --- Stage-2: sample proposals (mix of decoded proposals and GT
        # boxes, the standard training trick to guarantee positives) ---
        proposals = self.propose(obj_logits.data, box_deltas.data)
        roi_boxes: list[np.ndarray] = []
        roi_batch: list[int] = []
        roi_labels: list[int] = []
        roi_reg: list[np.ndarray] = []
        roi_mask_targets: list[np.ndarray | None] = []
        for i in range(n):
            cand = np.concatenate([proposals[i], gt_boxes[i]]) if len(gt_boxes[i]) else proposals[i]
            if len(cand) == 0:
                continue
            iou = box_iou(cand, gt_boxes[i]) if len(gt_boxes[i]) else np.zeros((len(cand), 1))
            best = iou.argmax(axis=1)
            best_iou = iou.max(axis=1)
            for j, box in enumerate(cand):
                roi_boxes.append(box)
                roi_batch.append(i)
                if best_iou[j] >= 0.5:
                    g = best[j]
                    roi_labels.append(int(gt_labels[i][g]) + 1)
                    roi_reg.append(encode_boxes(gt_boxes[i][g : g + 1], box[None])[0])
                    roi_mask_targets.append(self._crop_mask(gt_masks[i][g], box))
                else:
                    roi_labels.append(0)
                    roi_reg.append(np.zeros(4, dtype=np.float32))
                    roi_mask_targets.append(None)

        if not roi_boxes:
            return rpn_cls + rpn_reg

        boxes_arr = np.stack(roi_boxes)
        batch_arr = np.array(roi_batch)
        labels_arr = np.array(roi_labels)
        roi_feats = roi_align(feat, boxes_arr, batch_arr, self.ROI_SIZE, 1.0 / self.stride)
        cls_logits, box_refine = self.box_head(roi_feats)
        head_cls = F.cross_entropy(cls_logits, labels_arr)

        pos = labels_arr > 0
        if pos.any():
            pos_idx2 = np.nonzero(pos)[0]
            head_reg = F.smooth_l1_loss(
                box_refine[pos_idx2], np.stack([roi_reg[j] for j in pos_idx2]), reduction="sum"
            ) * (1.0 / len(pos_idx2))
            mask_logits = self.mask_head(roi_feats[pos_idx2])
            mask_targets = np.stack([roi_mask_targets[j] for j in pos_idx2])
            mask_loss = F.binary_cross_entropy_with_logits(mask_logits, mask_targets)
        else:
            head_reg = Tensor(np.float32(0.0))
            mask_loss = Tensor(np.float32(0.0))

        return rpn_cls + rpn_reg + head_cls + head_reg + mask_loss

    def _crop_mask(self, mask: np.ndarray, box: np.ndarray) -> np.ndarray:
        """Resample a GT mask inside ``box`` to the mask-head output grid."""
        size = self.MASK_SIZE
        x1, y1, x2, y2 = box
        ys = np.clip(
            np.floor(np.linspace(y1, y2, size, endpoint=False) + (y2 - y1) / (2 * size)).astype(int),
            0, mask.shape[0] - 1,
        )
        xs = np.clip(
            np.floor(np.linspace(x1, x2, size, endpoint=False) + (x2 - x1) / (2 * size)).astype(int),
            0, mask.shape[1] - 1,
        )
        return mask[np.ix_(ys, xs)].astype(np.float32)

    def _paste_mask(self, mask_prob: np.ndarray, box: np.ndarray) -> np.ndarray:
        """Paste a mask-head output back into image coordinates (boolean)."""
        out = np.zeros((self.image_size, self.image_size), dtype=bool)
        x1, y1, x2, y2 = np.clip(box, 0, self.image_size)
        if x2 <= x1 + 1 or y2 <= y1 + 1:
            return out
        ys = np.arange(int(np.floor(y1)), int(np.ceil(y2)))
        xs = np.arange(int(np.floor(x1)), int(np.ceil(x2)))
        ys = ys[(ys >= 0) & (ys < self.image_size)]
        xs = xs[(xs >= 0) & (xs < self.image_size)]
        if len(ys) == 0 or len(xs) == 0:
            return out
        src_y = np.clip(((ys - y1) / (y2 - y1) * self.MASK_SIZE).astype(int), 0, self.MASK_SIZE - 1)
        src_x = np.clip(((xs - x1) / (x2 - x1) * self.MASK_SIZE).astype(int), 0, self.MASK_SIZE - 1)
        out[np.ix_(ys, xs)] = mask_prob[np.ix_(src_y, src_x)] > 0.5
        return out

    # -- inference -----------------------------------------------------------------
    def detect(self, images: Tensor, score_threshold: float = 0.5,
               image_ids: list[int] | None = None) -> list[Detection]:
        """Full two-stage inference producing boxes, labels, scores, masks
        (no graph)."""
        with no_grad():
            feat = self.backbone(images)
            obj_logits, box_deltas = self.rpn(feat)
            proposals = self.propose(obj_logits.data, box_deltas.data)
            n = images.shape[0]
            ids = image_ids if image_ids is not None else list(range(n))
            detections: list[Detection] = []
            boxes_all = [p for p in proposals if len(p)]
            if not boxes_all:
                return detections
            boxes_arr = np.concatenate(boxes_all)
            batch_arr = np.concatenate([np.full(len(p), i) for i, p in enumerate(proposals) if len(p)])
            roi_feats = roi_align(feat, boxes_arr, batch_arr, self.ROI_SIZE, 1.0 / self.stride)
            cls_logits, box_refine = self.box_head(roi_feats)
            mask_logits = self.mask_head(roi_feats)
            probs = np.exp(cls_logits.data - cls_logits.data.max(-1, keepdims=True))
            probs /= probs.sum(-1, keepdims=True)
            mask_probs = 1.0 / (1.0 + np.exp(-mask_logits.data))
            for j in range(len(boxes_arr)):
                cls = int(probs[j, 1:].argmax()) + 1
                score = float(probs[j, cls])
                if score < score_threshold:
                    continue
                refined = decode_boxes(box_refine.data[j : j + 1], boxes_arr[j : j + 1])[0]
                refined = np.clip(refined, 0, self.image_size)
                detections.append(
                    Detection(
                        image_id=ids[int(batch_arr[j])],
                        box=refined,
                        label=cls - 1,
                        score=score,
                        mask=self._paste_mask(mask_probs[j], refined),
                    )
                )
            # Cross-proposal NMS per image & class.
            final: list[Detection] = []
            for img in set(d.image_id for d in detections):
                for lbl in set(d.label for d in detections if d.image_id == img):
                    group = [d for d in detections if d.image_id == img and d.label == lbl]
                    keep = nms(np.stack([d.box for d in group]), np.array([d.score for d in group]), 0.4)
                    final.extend(group[k] for k in keep)
            return final
