"""MiniSSD and MiniMaskRCNN: encoding, matching, RoIAlign, training step."""

import numpy as np
import pytest

from repro.datasets import SceneConfig, ShapeScenes
from repro.framework import SGD, Tensor
from repro.models import (
    MiniMaskRCNN,
    MiniSSD,
    decode_boxes,
    encode_boxes,
    match_anchors,
    roi_align,
)
from repro.models.ssd import AnchorGrid
from repro.telemetry import Telemetry

RNG = np.random.default_rng(0)


@pytest.fixture(scope="module")
def scenes():
    return ShapeScenes(SceneConfig(train_size=8, val_size=2))


def scene_targets(scene_list):
    boxes = [np.stack([o.box for o in s.objects]) for s in scene_list]
    labels = [np.array([o.label for o in s.objects]) for s in scene_list]
    masks = [np.stack([o.mask for o in s.objects]) for s in scene_list]
    return boxes, labels, masks


class TestBoxCodec:
    def test_roundtrip(self):
        anchors = np.array([[4.0, 4.0, 12.0, 12.0], [10.0, 10.0, 20.0, 24.0]])
        boxes = np.array([[5.0, 3.0, 13.0, 11.0], [8.0, 12.0, 22.0, 26.0]])
        np.testing.assert_allclose(decode_boxes(encode_boxes(boxes, anchors), anchors),
                                   boxes, atol=1e-4)

    def test_identity_encoding_is_zero(self):
        anchors = np.array([[4.0, 4.0, 12.0, 12.0]])
        np.testing.assert_allclose(encode_boxes(anchors, anchors), 0.0, atol=1e-7)

    def test_decode_clips_extreme_scales(self):
        anchors = np.array([[0.0, 0.0, 8.0, 8.0]])
        offsets = np.array([[0.0, 0.0, 100.0, 100.0]], dtype=np.float32)
        out = decode_boxes(offsets, anchors)
        assert np.isfinite(out).all()


class TestAnchorGrid:
    def test_count(self):
        grid = AnchorGrid(32, 8, scales=(9.0, 14.0))
        assert len(grid) == 8 * 8 * 2

    def test_centers_cover_image(self):
        grid = AnchorGrid(32, 8, scales=(9.0,))
        centers_x = (grid.boxes[:, 0] + grid.boxes[:, 2]) / 2
        assert centers_x.min() == pytest.approx(2.0)
        assert centers_x.max() == pytest.approx(30.0)


class TestMatching:
    def test_high_iou_positive(self):
        anchors = np.array([[0.0, 0.0, 10.0, 10.0], [20.0, 20.0, 30.0, 30.0]])
        gt = np.array([[1.0, 1.0, 11.0, 11.0]])
        labels, matched = match_anchors(anchors, gt, np.array([2]))
        assert labels[0] == 2
        assert matched[0] == 0

    def test_best_anchor_forced_match(self):
        # GT overlapping no anchor above threshold still claims its best.
        anchors = np.array([[0.0, 0.0, 10.0, 10.0], [16.0, 16.0, 26.0, 26.0]])
        gt = np.array([[8.0, 8.0, 18.0, 18.0]])  # weak IoU with both
        labels, matched = match_anchors(anchors, gt, np.array([1]), iou_threshold=0.9)
        assert (labels != 0).sum() == 1

    def test_empty_gt(self):
        anchors = np.array([[0.0, 0.0, 10.0, 10.0]])
        labels, matched = match_anchors(anchors, np.zeros((0, 4)), np.zeros(0, dtype=int))
        assert labels[0] == 0
        assert matched[0] == -1


class TestRoIAlign:
    def test_shapes(self):
        feat = Tensor(RNG.normal(size=(2, 4, 8, 8)).astype(np.float32))
        boxes = np.array([[0.0, 0.0, 16.0, 16.0], [8.0, 8.0, 32.0, 32.0]])
        out = roi_align(feat, boxes, np.array([0, 1]), output_size=4, spatial_scale=0.25)
        assert out.shape == (2, 4, 4, 4)

    def test_constant_feature_map(self):
        feat = Tensor(np.full((1, 2, 8, 8), 3.0, dtype=np.float32))
        out = roi_align(feat, np.array([[4.0, 4.0, 20.0, 20.0]]), np.array([0]), 3, 0.25)
        np.testing.assert_allclose(out.data, 3.0, atol=1e-6)

    def test_empty_boxes(self):
        feat = Tensor(RNG.normal(size=(1, 2, 8, 8)).astype(np.float32))
        out = roi_align(feat, np.zeros((0, 4)), np.zeros(0, dtype=int), 3, 0.25)
        assert out.shape == (0, 2, 3, 3)

    def test_gradient_flows_to_features(self):
        feat = Tensor(RNG.normal(size=(1, 2, 8, 8)).astype(np.float32), requires_grad=True)
        out = roi_align(feat, np.array([[0.0, 0.0, 16.0, 16.0]]), np.array([0]), 4, 0.25)
        out.sum().backward()
        assert feat.grad is not None
        assert np.abs(feat.grad).sum() > 0

    def test_selects_correct_batch_element(self):
        data = np.zeros((2, 1, 4, 4), dtype=np.float32)
        data[1] = 7.0
        feat = Tensor(data)
        out = roi_align(feat, np.array([[0.0, 0.0, 16.0, 16.0]]), np.array([1]), 2, 0.25)
        np.testing.assert_allclose(out.data, 7.0)

    def test_profiler_charges_forward_and_gather_adjoints_to_one_row(self):
        def run():
            data = np.random.default_rng(3).normal(size=(1, 2, 8, 8))
            feat = Tensor(data.astype(np.float32), requires_grad=True)
            out = roi_align(feat, np.array([[0.0, 0.0, 16.0, 16.0]]), np.array([0]), 4, 0.25)
            (out * out).sum().backward()
            return out.data, feat.grad

        plain = run()
        tele = Telemetry(profile="full")
        with tele.activate():
            profiled = run()
        ops = tele.profiler.snapshot()["ops"]
        assert ops["forward"]["roi_align"]["calls"] == 1
        # One graph node: the four corner scatters run in its one adjoint.
        assert ops["backward"]["roi_align"]["calls"] == 1
        for a, b in zip(plain, profiled):
            assert np.array_equal(a, b)

    def test_is_one_graph_node(self):
        feat = Tensor(RNG.normal(size=(1, 2, 8, 8)).astype(np.float32), requires_grad=True)
        out = roi_align(feat, np.array([[0.0, 0.0, 16.0, 16.0]]), np.array([0]), 4, 0.25)
        assert out._prev == (feat,)

    @pytest.mark.parametrize("layout", ["nchw", "nhwc"])
    @pytest.mark.parametrize("second_consumer", [None, "first", "last"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_four_gather_composition(self, layout, second_consumer, dtype):
        """Output and ``features.grad`` equal the four-getitem graph's bits,
        at the suite's shape (K=60 boxes over an (8, 32, 8, 8) map, S=7),
        with the map also read by another op whose adjoint lands before or
        after RoIAlign's, and with an NHWC-backed map."""
        rng = np.random.default_rng(4)
        k = 60
        data = rng.normal(size=(8, 32, 8, 8)).astype(dtype)
        if layout == "nhwc":
            data = np.ascontiguousarray(data.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        corner = rng.uniform(-4, 28, size=(k, 2))
        boxes = np.concatenate([corner, corner + rng.uniform(0.5, 12, size=(k, 2))], axis=1)
        batch = rng.integers(0, 8, size=k)
        seed = rng.normal(size=(k, 32, 7, 7)).astype(dtype)
        results = []
        for fn in (_roi_align_gathers, roi_align):
            leaf = Tensor(data.copy(), requires_grad=True)
            feat = leaf * 1.5  # interior: its gradient accumulates
            out = fn(feat, boxes, batch, 7, 0.25)
            loss = (out * Tensor(seed)).sum()
            if second_consumer == "first":
                loss = (feat * feat).sum() + loss
            elif second_consumer == "last":
                loss = loss + (feat * feat).sum()
            loss.backward()
            results.append((out.data, leaf.grad))
        (ref_out, ref_grad), (out, grad) = results
        assert np.array_equal(ref_out, out)
        assert out.strides == ref_out.strides
        assert np.array_equal(ref_grad, grad)
        assert np.array_equal(np.signbit(ref_grad), np.signbit(grad))


def _roi_align_gathers(features, boxes, batch_indices, output_size, spatial_scale):
    """RoIAlign as four ``Tensor`` gathers and a blend: the oracle for the
    one-node kernel (each gather's adjoint is ``np.add.at`` into zeros)."""
    boxes = np.asarray(boxes, dtype=np.float64)
    batch_indices = np.asarray(batch_indices, dtype=np.int64)
    k = len(boxes)
    _, c, h, w = features.shape
    s = output_size
    x1, y1, x2, y2 = (boxes[:, i] * spatial_scale for i in range(4))
    bin_w = (x2 - x1) / s
    bin_h = (y2 - y1) / s
    grid = np.arange(s) + 0.5
    xs = x1[:, None] + bin_w[:, None] * grid[None, :]
    ys = y1[:, None] + bin_h[:, None] * grid[None, :]
    sample_x = np.broadcast_to(xs[:, None, :], (k, s, s)) - 0.5
    sample_y = np.broadcast_to(ys[:, :, None], (k, s, s)) - 0.5
    x0 = np.clip(np.floor(sample_x), 0, w - 1).astype(np.int64)
    y0 = np.clip(np.floor(sample_y), 0, h - 1).astype(np.int64)
    x1i = np.clip(x0 + 1, 0, w - 1)
    y1i = np.clip(y0 + 1, 0, h - 1)
    fx = np.clip(sample_x - x0, 0.0, 1.0).astype(np.float32)
    fy = np.clip(sample_y - y0, 0.0, 1.0).astype(np.float32)
    b = np.broadcast_to(batch_indices[:, None, None], (k, s, s))
    v00 = features[b, :, y0, x0]
    v01 = features[b, :, y0, x1i]
    v10 = features[b, :, y1i, x0]
    v11 = features[b, :, y1i, x1i]
    w00 = Tensor(((1 - fy) * (1 - fx))[..., None])
    w01 = Tensor(((1 - fy) * fx)[..., None])
    w10 = Tensor((fy * (1 - fx))[..., None])
    w11 = Tensor((fy * fx)[..., None])
    out = v00 * w00 + v01 * w01 + v10 * w10 + v11 * w11
    return out.transpose(0, 3, 1, 2)


class TestMiniSSD:
    def test_head_shapes(self):
        ssd = MiniSSD(3, RNG)
        cls, box = ssd(Tensor(RNG.normal(size=(2, 1, 32, 32)).astype(np.float32)))
        assert cls.shape == (2, len(ssd.anchors), 4)
        assert box.shape == (2, len(ssd.anchors), 4)

    def test_loss_backward(self, scenes):
        ssd = MiniSSD(3, np.random.default_rng(1))
        imgs = Tensor(ShapeScenes.batch_images(scenes.train[:4]))
        boxes, labels, _ = scene_targets(scenes.train[:4])
        loss = ssd.loss(imgs, boxes, labels)
        loss.backward()
        assert np.isfinite(loss.data)
        assert all(p.grad is not None for p in ssd.parameters())

    def test_loss_decreases_with_training(self, scenes):
        rng = np.random.default_rng(2)
        ssd = MiniSSD(3, rng)
        imgs = Tensor(ShapeScenes.batch_images(scenes.train[:4]))
        boxes, labels, _ = scene_targets(scenes.train[:4])
        opt = SGD(ssd.parameters(), lr=0.01, momentum=0.9)
        first = None
        for step in range(12):
            loss = ssd.loss(imgs, boxes, labels)
            if step == 0:
                first = float(loss.data)
            ssd.zero_grad()
            loss.backward()
            opt.step()
        assert float(loss.data) < first

    def test_detect_returns_valid_detections(self, scenes):
        ssd = MiniSSD(3, np.random.default_rng(3)).eval()
        imgs = Tensor(ShapeScenes.batch_images(scenes.val))
        dets = ssd.detect(imgs, score_threshold=0.0, image_ids=[10, 11])
        for d in dets:
            assert d.image_id in (10, 11)
            assert 0 <= d.label < 3
            assert 0.0 <= d.score <= 1.0
            assert d.box.shape == (4,)
            assert (d.box >= 0).all() and (d.box <= 32).all()

    def test_empty_gt_image_loss_finite(self):
        ssd = MiniSSD(3, np.random.default_rng(4))
        imgs = Tensor(RNG.normal(size=(1, 1, 32, 32)).astype(np.float32))
        loss = ssd.loss(imgs, [np.zeros((0, 4))], [np.zeros(0, dtype=int)])
        assert np.isfinite(loss.data)


class TestMiniMaskRCNN:
    def test_loss_backward(self, scenes):
        model = MiniMaskRCNN(3, np.random.default_rng(5))
        imgs = Tensor(ShapeScenes.batch_images(scenes.train[:2]))
        boxes, labels, masks = scene_targets(scenes.train[:2])
        loss = model.loss(imgs, boxes, labels, masks)
        loss.backward()
        assert np.isfinite(loss.data)

    def test_two_stage_structure(self):
        model = MiniMaskRCNN(3, np.random.default_rng(6))
        imgs = Tensor(RNG.normal(size=(2, 1, 32, 32)).astype(np.float32))
        feat = model.backbone(imgs)
        obj, deltas = model.rpn(feat)
        assert obj.shape == (2, len(model.anchors))
        proposals = model.propose(obj.data, deltas.data)
        assert len(proposals) == 2
        for p in proposals:
            assert p.shape[1] == 4
            assert len(p) <= model.proposals_per_image

    def test_detect_produces_masks(self, scenes):
        model = MiniMaskRCNN(3, np.random.default_rng(7)).eval()
        imgs = Tensor(ShapeScenes.batch_images(scenes.val))
        dets = model.detect(imgs, score_threshold=0.0)
        assert len(dets) > 0
        for d in dets:
            assert d.mask is not None
            assert d.mask.shape == (32, 32)
            assert d.mask.dtype == bool

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("second_consumer", [False, True])
    def test_upsample2x_matches_index_gather(self, dtype, second_consumer):
        # The oracle is the two fancy-index gathers the layer used to be,
        # whose adjoint is np.add.at into zeros: same values, same
        # gradient, bit for bit — including the sign of a zero.
        model = MiniMaskRCNN(3, np.random.default_rng(8))
        n, c, h, w = 3, 2, 5, 7  # odd, H != W
        rows, cols = np.repeat(np.arange(h), 2), np.repeat(np.arange(w), 2)
        x0 = RNG.normal(size=(n, c, h, w)).astype(dtype)
        g = RNG.normal(size=(n, c, 2 * h, 2 * w)).astype(dtype)
        g[0, 0, :4, :4] = -0.0    # -0.0 + -0.0 stays -0.0 unless a +0.0 leads
        g[0, 1, 0, :2] = [0.0, -0.0]

        def run(upsample):
            x = Tensor(x0.copy(), requires_grad=True)
            out = upsample(x)
            if second_consumer:
                (x * x).backward(np.ones_like(x0))
            out.backward(g.copy())
            return out.data, x.grad

        want = run(lambda x: x[:, :, rows][:, :, :, cols])
        got = run(model._upsample2x)
        for a, b in zip(want, got):
            assert a.dtype == b.dtype == dtype and a.shape == b.shape
            assert np.array_equal(a, b)
            assert np.array_equal(np.signbit(a), np.signbit(b))
        assert got[1].flags.c_contiguous

    def test_upsample2x_without_grad_builds_no_node(self):
        model = MiniMaskRCNN(3, np.random.default_rng(8))
        out = model._upsample2x(Tensor(np.ones((1, 1, 2, 3), dtype=np.float32)))
        assert out.shape == (1, 1, 4, 6) and not out.requires_grad

    def test_mask_crop_roundtrip(self):
        model = MiniMaskRCNN(3, np.random.default_rng(8))
        mask = np.zeros((32, 32), dtype=bool)
        mask[8:16, 8:16] = True
        box = np.array([8.0, 8.0, 16.0, 16.0])
        crop = model._crop_mask(mask, box)
        assert crop.shape == (model.MASK_SIZE, model.MASK_SIZE)
        assert crop.mean() > 0.9  # box exactly covers the mask
        pasted = model._paste_mask(crop, box)
        inter = (pasted & mask).sum()
        union = (pasted | mask).sum()
        assert inter / union > 0.7

    def test_training_step_reduces_loss(self, scenes):
        rng = np.random.default_rng(9)
        model = MiniMaskRCNN(3, rng)
        imgs = Tensor(ShapeScenes.batch_images(scenes.train[:2]))
        boxes, labels, masks = scene_targets(scenes.train[:2])
        opt = SGD(model.parameters(), lr=0.02, momentum=0.9)
        first = None
        for step in range(10):
            loss = model.loss(imgs, boxes, labels, masks)
            if step == 0:
                first = float(loss.data)
            model.zero_grad()
            loss.backward()
            opt.step()
        assert float(loss.data) < first
