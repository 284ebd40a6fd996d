"""Detection metrics: IoU, NMS, AP/mAP matching semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import (
    Detection,
    GroundTruth,
    average_precision,
    box_iou,
    mask_iou,
    mean_average_precision,
    nms,
)

box = st.tuples(
    st.floats(0, 50), st.floats(0, 50), st.floats(1, 50), st.floats(1, 50)
).map(lambda t: np.array([min(t[0], t[0] + t[2]), min(t[1], t[1] + t[3]),
                          t[0] + t[2], t[1] + t[3]]))


def det(image_id, box_coords, label=0, score=1.0, mask=None):
    return Detection(image_id, np.asarray(box_coords, dtype=float), label, score, mask)


def gt(image_id, box_coords, label=0, mask=None):
    return GroundTruth(image_id, np.asarray(box_coords, dtype=float), label, mask)


class TestBoxIoU:
    def test_identical(self):
        b = np.array([[0, 0, 10, 10]])
        np.testing.assert_allclose(box_iou(b, b), [[1.0]])

    def test_disjoint(self):
        a = np.array([[0, 0, 5, 5]])
        b = np.array([[10, 10, 20, 20]])
        np.testing.assert_allclose(box_iou(a, b), [[0.0]])

    def test_half_overlap(self):
        a = np.array([[0, 0, 10, 10]])
        b = np.array([[5, 0, 15, 10]])
        np.testing.assert_allclose(box_iou(a, b), [[50 / 150]])

    def test_contained(self):
        a = np.array([[0, 0, 10, 10]])
        b = np.array([[2, 2, 4, 4]])
        np.testing.assert_allclose(box_iou(a, b), [[4 / 100]])

    def test_pairwise_shape(self):
        a = np.zeros((3, 4))
        b = np.zeros((5, 4))
        assert box_iou(a, b).shape == (3, 5)

    def test_degenerate_box_zero(self):
        a = np.array([[5, 5, 5, 5]])
        np.testing.assert_allclose(box_iou(a, a), [[0.0]])

    @given(box, box)
    @settings(max_examples=50, deadline=None)
    def test_symmetry_and_range(self, a, b):
        ab = box_iou(a[None], b[None])[0, 0]
        ba = box_iou(b[None], a[None])[0, 0]
        assert ab == pytest.approx(ba)
        assert 0.0 <= ab <= 1.0 + 1e-9


class TestMaskIoU:
    def test_identical(self):
        m = np.zeros((1, 4, 4), dtype=bool)
        m[0, :2, :2] = True
        np.testing.assert_allclose(mask_iou(m, m), [[1.0]])

    def test_disjoint(self):
        a = np.zeros((1, 4, 4), dtype=bool)
        b = np.zeros((1, 4, 4), dtype=bool)
        a[0, 0, 0] = True
        b[0, 3, 3] = True
        np.testing.assert_allclose(mask_iou(a, b), [[0.0]])

    def test_quarter_overlap(self):
        a = np.zeros((1, 4, 4), dtype=bool)
        b = np.zeros((1, 4, 4), dtype=bool)
        a[0, :2, :] = True  # 8 px
        b[0, 1:3, :] = True  # 8 px, overlap 4
        np.testing.assert_allclose(mask_iou(a, b), [[4 / 12]])

    def test_empty_masks(self):
        z = np.zeros((1, 4, 4), dtype=bool)
        np.testing.assert_allclose(mask_iou(z, z), [[0.0]])


class TestNMS:
    def test_keeps_best_suppresses_overlap(self):
        boxes = np.array([[0, 0, 10, 10], [1, 1, 11, 11], [20, 20, 30, 30]])
        scores = np.array([0.9, 0.8, 0.7])
        keep = nms(boxes, scores, iou_threshold=0.5)
        np.testing.assert_array_equal(keep, [0, 2])

    def test_keeps_all_disjoint(self):
        boxes = np.array([[0, 0, 5, 5], [10, 10, 15, 15], [20, 20, 25, 25]])
        scores = np.array([0.1, 0.9, 0.5])
        keep = nms(boxes, scores, 0.5)
        assert set(keep.tolist()) == {0, 1, 2}
        assert keep[0] == 1  # ordered by score

    def test_empty(self):
        assert nms(np.zeros((0, 4)), np.zeros(0)).size == 0

    def test_threshold_extremes(self):
        boxes = np.array([[0, 0, 10, 10], [1, 1, 11, 11]])
        scores = np.array([0.9, 0.8])
        assert len(nms(boxes, scores, iou_threshold=0.99)) == 2
        assert len(nms(boxes, scores, iou_threshold=0.1)) == 1


def _nms_per_box_loop(boxes, scores, iou_threshold=0.5):
    """``nms`` as it was before the one-matrix rewrite, verbatim: the oracle."""
    boxes = np.asarray(boxes, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    order = np.argsort(-scores)
    keep: list[int] = []
    while order.size > 0:
        best = order[0]
        keep.append(int(best))
        if order.size == 1:
            break
        rest = order[1:]
        ious = box_iou(boxes[best : best + 1], boxes[rest])[0]
        order = rest[ious <= iou_threshold]
    return np.array(keep, dtype=np.int64)


def _random_boxes(rng, count, extent=40.0):
    xy = rng.uniform(0, extent, size=(count, 2))
    wh = rng.uniform(1, extent / 2, size=(count, 2))
    return np.concatenate([xy, xy + wh], axis=1)


class TestNMSMatchesPerBoxLoop:
    """One IoU matrix + a greedy walk keeps exactly what the loop kept."""

    THRESHOLDS = (0.0, 0.5, 1.0)

    def _check(self, boxes, scores):
        for thr in self.THRESHOLDS:
            with np.errstate(invalid="ignore"):
                want = _nms_per_box_loop(boxes, scores, thr)
                got = nms(boxes, scores, thr)
            assert got.dtype == want.dtype == np.int64
            assert np.array_equal(got, want), f"threshold {thr}"

    @pytest.mark.parametrize("count", [2, 3, 17, 64, 300])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeded_random_boxes(self, count, seed):
        rng = np.random.default_rng(1000 * seed + count)
        self._check(_random_boxes(rng, count), rng.standard_normal(count))

    def test_float32_inputs(self):
        rng = np.random.default_rng(5)
        self._check(_random_boxes(rng, 50).astype(np.float32),
                    rng.standard_normal(50).astype(np.float32))

    def test_tied_scores(self):
        rng = np.random.default_rng(6)
        boxes = _random_boxes(rng, 80)
        self._check(boxes, rng.integers(0, 4, size=80).astype(np.float64))
        self._check(boxes, np.zeros(80))

    def test_duplicate_boxes(self):
        rng = np.random.default_rng(7)
        boxes = np.repeat(_random_boxes(rng, 20), 3, axis=0)
        self._check(boxes, rng.standard_normal(60))

    def test_zero_area_boxes(self):
        # IoU of a degenerate box with itself is 0/0 -> 0: never suppressed.
        rng = np.random.default_rng(8)
        boxes = _random_boxes(rng, 40)
        boxes[::3, 2:] = boxes[::3, :2]          # points
        boxes[1::7, 2] = boxes[1::7, 0]          # vertical segments
        self._check(boxes, rng.standard_normal(40))
        self._check(np.zeros((5, 4)), np.arange(5.0))

    def test_nan_score_and_nan_box(self):
        rng = np.random.default_rng(9)
        boxes = _random_boxes(rng, 30)
        scores = rng.standard_normal(30)
        scores[4] = np.nan                        # sorts last
        self._check(boxes, scores)
        boxes[11] = np.nan                        # NaN IoU: suppresses
        self._check(boxes, scores)

    def test_empty_and_single(self):
        self._check(np.zeros((0, 4)), np.zeros(0))
        self._check(np.array([[1.0, 2.0, 5.0, 9.0]]), np.array([0.3]))
        assert nms(np.zeros((0, 4)), np.zeros(0)).dtype == np.int64

    def test_length_mismatch_raises(self):
        # Three boxes with two scores used to answer [0 1].
        with pytest.raises(ValueError, match="3 boxes but 2 scores"):
            nms(np.zeros((3, 4)), np.zeros(2))
        with pytest.raises(ValueError):
            nms(np.zeros((0, 4)), np.zeros(1))


class TestAP:
    def test_perfect_detection(self):
        gts = [gt(0, [0, 0, 10, 10])]
        dets = [det(0, [0, 0, 10, 10], score=0.9)]
        assert average_precision(dets, gts) == pytest.approx(1.0)

    def test_no_detections(self):
        assert average_precision([], [gt(0, [0, 0, 5, 5])]) == 0.0

    def test_no_ground_truth(self):
        assert average_precision([det(0, [0, 0, 5, 5])], []) == 0.0

    def test_false_positive_lowers_ap(self):
        gts = [gt(0, [0, 0, 10, 10])]
        dets = [
            det(0, [50, 50, 60, 60], score=0.95),  # FP ranked first
            det(0, [0, 0, 10, 10], score=0.9),
        ]
        ap = average_precision(dets, gts)
        assert ap == pytest.approx(0.5)

    def test_duplicate_detection_counts_once(self):
        gts = [gt(0, [0, 0, 10, 10])]
        dets = [
            det(0, [0, 0, 10, 10], score=0.9),
            det(0, [0, 0, 10, 10], score=0.8),  # duplicate => FP
        ]
        ap = average_precision(dets, gts)
        assert ap == pytest.approx(1.0)  # recall reached at rank 1; dup after

    def test_iou_threshold_gates_match(self):
        gts = [gt(0, [0, 0, 10, 10])]
        dets = [det(0, [4, 0, 14, 10], score=0.9)]  # IoU = 6/14 ≈ 0.43
        assert average_precision(dets, gts, iou_threshold=0.5) == 0.0
        assert average_precision(dets, gts, iou_threshold=0.4) == pytest.approx(1.0)

    def test_cross_image_isolation(self):
        gts = [gt(0, [0, 0, 10, 10]), gt(1, [0, 0, 10, 10])]
        dets = [det(0, [0, 0, 10, 10], score=0.9)]  # only image 0 detected
        assert average_precision(dets, gts) == pytest.approx(0.5)

    def test_mask_ap(self):
        m = np.zeros((8, 8), dtype=bool)
        m[:4, :4] = True
        gts = [gt(0, [0, 0, 4, 4], mask=m)]
        dets = [det(0, [0, 0, 4, 4], score=0.9, mask=m.copy())]
        assert average_precision(dets, gts, use_masks=True) == pytest.approx(1.0)


class TestMAP:
    def test_averages_over_classes(self):
        gts = [gt(0, [0, 0, 10, 10], label=0), gt(0, [20, 20, 30, 30], label=1)]
        dets = [det(0, [0, 0, 10, 10], label=0, score=0.9)]  # class 1 missed
        assert mean_average_precision(dets, gts) == pytest.approx(0.5)

    def test_wrong_class_no_credit(self):
        gts = [gt(0, [0, 0, 10, 10], label=0)]
        dets = [det(0, [0, 0, 10, 10], label=1, score=0.9)]
        assert mean_average_precision(dets, gts) == 0.0

    def test_multiple_thresholds_average(self):
        gts = [gt(0, [0, 0, 10, 10])]
        dets = [det(0, [2, 0, 12, 10], score=0.9)]  # IoU = 8/12 ≈ 0.667
        strict = mean_average_precision(dets, gts, iou_thresholds=(0.5, 0.75))
        assert strict == pytest.approx(0.5)  # hits at 0.5, misses at 0.75

    def test_empty_ground_truth(self):
        assert mean_average_precision([], []) == 0.0
