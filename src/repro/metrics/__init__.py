"""Quality metrics for the seven benchmarks, plus run statistics.

Each benchmark's Table 1 quality metric lives here: top-1 accuracy
(image classification), mAP (detection/segmentation), BLEU (translation),
HR@10 (recommendation), and move-match rate (MiniGo).
"""

from .classification import move_match_rate, top1_accuracy, top_k_accuracy
from .bleu import corpus_bleu, ngram_counts, sentence_bleu
from .detection import (
    COCO_IOU_THRESHOLDS,
    Detection,
    GroundTruth,
    average_precision,
    box_iou,
    mask_iou,
    mean_average_precision,
    nms,
)
from .ranking import hit_rate_at_k, leave_one_out_eval, ndcg_at_k
from .stats import RunDispersion, dispersion, epochs_to_target_histogram, fraction_within
from .curves import curve_spread

__all__ = [
    "move_match_rate",
    "top1_accuracy",
    "top_k_accuracy",
    "corpus_bleu",
    "ngram_counts",
    "sentence_bleu",
    "COCO_IOU_THRESHOLDS",
    "Detection",
    "GroundTruth",
    "average_precision",
    "box_iou",
    "mask_iou",
    "mean_average_precision",
    "nms",
    "hit_rate_at_k",
    "leave_one_out_eval",
    "ndcg_at_k",
    "RunDispersion",
    "dispersion",
    "epochs_to_target_histogram",
    "fraction_within",
    "curve_spread",
]
