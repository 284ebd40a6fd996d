"""MiniResNet: v1.5 architectural details and trainability."""

import numpy as np
import pytest

from repro.framework import SGD, Tensor, functional as F, no_grad
from repro.models import BasicBlockV15, MiniResNet
from tests.go.test_selfplay_identity import HOST_PROBE, _host_probe


RNG = np.random.default_rng(0)


class TestBasicBlock:
    def test_identity_skip_when_shapes_match(self):
        """v1.5: no 1x1 conv in the skip of a same-shape block."""
        block = BasicBlockV15(16, 16, stride=1, rng=RNG)
        assert block.shortcut is None

    def test_projection_skip_on_downsample(self):
        block = BasicBlockV15(16, 32, stride=2, rng=RNG)
        assert block.shortcut is not None

    def test_downsample_stride_on_3x3(self):
        """v1.5: the stride-2 lives in the 3x3 conv, not the 1x1."""
        block = BasicBlockV15(16, 32, stride=2, rng=RNG)
        assert block.conv1.stride == 2
        assert block.conv1.weight.shape[-1] == 3

    def test_output_shape_stride2(self):
        block = BasicBlockV15(8, 16, stride=2, rng=RNG)
        x = Tensor(RNG.normal(size=(2, 8, 8, 8)).astype(np.float32))
        assert block(x).shape == (2, 16, 4, 4)

    def test_residual_add_after_bn(self):
        """The skip joins after bn2 — with gamma=0 on bn2, output is
        relu(skip), proving the add happens post-BN."""
        block = BasicBlockV15(4, 4, stride=1, rng=RNG)
        block.bn2.gamma.data[:] = 0.0
        block.bn2.beta.data[:] = 0.0
        x = Tensor(np.abs(RNG.normal(size=(2, 4, 6, 6))).astype(np.float32))
        out = block(x)
        np.testing.assert_allclose(out.data, np.maximum(x.data, 0), atol=1e-6)


class TestMiniResNet:
    def test_output_shape(self):
        net = MiniResNet(10, RNG)
        x = Tensor(RNG.normal(size=(4, 3, 16, 16)).astype(np.float32))
        assert net(x).shape == (4, 10)

    def test_first_block_identity_skip(self):
        """First residual block of the first stage keeps channels: identity."""
        net = MiniResNet(10, RNG)
        assert net.blocks[0].shortcut is None

    def test_spatial_reduction(self):
        net = MiniResNet(10, RNG, widths=(8, 16, 32))
        x = Tensor(RNG.normal(size=(1, 3, 16, 16)).astype(np.float32))
        feat = net.features(x)
        assert feat.shape == (1, 32, 4, 4)  # two stride-2 stages

    def test_all_parameters_receive_gradients(self):
        net = MiniResNet(5, RNG)
        x = Tensor(RNG.normal(size=(2, 3, 16, 16)).astype(np.float32))
        loss = F.cross_entropy(net(x), np.array([0, 1]))
        loss.backward()
        for name, p in net.named_parameters():
            assert p.grad is not None, f"{name} got no gradient"

    def test_eval_mode_deterministic(self):
        net = MiniResNet(5, RNG).eval()
        x = Tensor(RNG.normal(size=(2, 3, 16, 16)).astype(np.float32))
        np.testing.assert_array_equal(net(x).data, net(x).data)

    def test_eval_chunk_size_keeps_features_and_predictions(self, reference_kernels):
        """Evaluation chunks by the training batch (64) instead of 256.

        Every conv and norm layer gives the same bits at either chunk size.
        The 10-way head does not: OpenBLAS runs the 64-row GEMM through its
        small-matrix kernel, which rounds differently from the 256-row one
        (last bits of float32).  Top-1 predictions, which are what
        evaluation scores, are the same.
        """
        if _host_probe(reference_kernels) != HOST_PROBE:
            pytest.skip("BLAS rounds differently here than on the host that recorded the probe")
        rng = np.random.default_rng(2)
        net = MiniResNet(10, rng, blocks_per_stage=1).eval()
        images = rng.normal(size=(256, 3, 16, 16)).astype(np.float32)

        def forward(x):
            features = net.pool(net.features(Tensor(x)))
            return features.data, net.fc(features).data

        with no_grad():
            whole = forward(images)
            chunks = [forward(images[s : s + 64]) for s in range(0, 256, 64)]
        features, logits = (np.concatenate(part) for part in zip(*chunks))
        assert np.array_equal(features, whole[0])
        np.testing.assert_allclose(logits, whole[1], rtol=1e-5, atol=1e-5)
        assert np.array_equal(logits.argmax(axis=1), whole[1].argmax(axis=1))

    def test_can_overfit_tiny_batch(self):
        """Sanity: the model + optimizer can drive loss to ~0 on 8 images."""
        rng = np.random.default_rng(1)
        net = MiniResNet(4, rng, widths=(8, 16, 16), blocks_per_stage=1)
        x = Tensor(rng.normal(size=(8, 3, 16, 16)).astype(np.float32))
        y = np.arange(8) % 4
        opt = SGD(net.parameters(), lr=0.1, momentum=0.9)
        for _ in range(60):
            loss = F.cross_entropy(net(x), y)
            net.zero_grad()
            loss.backward()
            opt.step()
        assert float(loss.data) < 0.1
