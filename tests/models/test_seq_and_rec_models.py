"""GNMT, Transformer, NCF, and MiniGoNet behaviour."""

import numpy as np
import pytest

from repro.datasets import SyntheticTranslation, TranslationConfig
from repro.datasets.translation import PAD
from repro.framework import Adam, SGD, Tensor, no_grad
from repro.go import GoBoard
from repro.models import NCF, MiniGNMT, MiniGoNet, MiniTransformer

RNG = np.random.default_rng(0)


@pytest.fixture(scope="module")
def corpus():
    return SyntheticTranslation(TranslationConfig(train_size=60, test_size=10))


def batch(corpus, n=8, offset=0):
    pairs = corpus.train_pairs[offset : offset + n]
    src = corpus.encoder_inputs([s for s, _ in pairs])
    dec_in, dec_out = corpus.decoder_io([t for _, t in pairs])
    return src, dec_in, dec_out


class TestMiniGNMT:
    def test_logit_shapes(self, corpus):
        model = MiniGNMT(corpus.vocab.size, np.random.default_rng(1))
        src, dec_in, dec_out = batch(corpus, 4)
        logits = model(src, dec_in)
        assert logits.shape == (4, dec_in.shape[1], corpus.vocab.size)

    def test_loss_finite_and_backward(self, corpus):
        model = MiniGNMT(corpus.vocab.size, np.random.default_rng(2))
        src, dec_in, dec_out = batch(corpus, 4)
        loss = model.loss(src, dec_in, dec_out)
        loss.backward()
        assert np.isfinite(loss.data)
        assert all(p.grad is not None for p in model.parameters())

    def test_initial_loss_near_uniform(self, corpus):
        model = MiniGNMT(corpus.vocab.size, np.random.default_rng(3))
        src, dec_in, dec_out = batch(corpus, 8)
        loss = model.loss(src, dec_in, dec_out)
        assert abs(float(loss.data) - np.log(corpus.vocab.size)) < 0.6

    def test_greedy_decode_terminates(self, corpus):
        model = MiniGNMT(corpus.vocab.size, np.random.default_rng(4))
        src, _, _ = batch(corpus, 3)
        outs = model.greedy_decode(src, max_len=10)
        assert len(outs) == 3
        assert all(len(o) <= 10 for o in outs)

    def test_pad_positions_ignored_in_loss(self, corpus):
        # Doubling padding on the decoder side must not change the loss.
        model = MiniGNMT(corpus.vocab.size, np.random.default_rng(5))
        src, dec_in, dec_out = batch(corpus, 4)
        extra_in = np.concatenate([dec_in, np.full((4, 3), PAD, dtype=np.int64)], axis=1)
        extra_out = np.concatenate([dec_out, np.full((4, 3), PAD, dtype=np.int64)], axis=1)
        base = float(model.loss(src, dec_in, dec_out).data)
        padded = float(model.loss(src, extra_in, extra_out).data)
        assert base == pytest.approx(padded, rel=1e-3)

    def test_learns_single_pair(self, corpus):
        rng = np.random.default_rng(6)
        model = MiniGNMT(corpus.vocab.size, rng, embed_dim=32, hidden=48)
        src, dec_in, dec_out = batch(corpus, 2)
        opt = Adam(model.parameters(), lr=5e-3)
        for _ in range(60):
            loss = model.loss(src, dec_in, dec_out)
            model.zero_grad()
            loss.backward()
            opt.step()
        assert float(loss.data) < 0.3


class TestMiniTransformer:
    def test_logit_shapes(self, corpus):
        model = MiniTransformer(corpus.vocab.size, np.random.default_rng(1))
        src, dec_in, dec_out = batch(corpus, 4)
        logits = model(src, dec_in)
        assert logits.shape == (4, dec_in.shape[1], corpus.vocab.size)

    def test_causality(self, corpus):
        """Changing a later target token must not affect earlier logits."""
        model = MiniTransformer(corpus.vocab.size, np.random.default_rng(2)).eval()
        src, dec_in, _ = batch(corpus, 1)
        base = model(src, dec_in).data
        perturbed = dec_in.copy()
        perturbed[0, -1] = (perturbed[0, -1] + 1) % corpus.vocab.size
        out = model(src, perturbed).data
        np.testing.assert_allclose(base[0, :-1], out[0, :-1], atol=1e-4)

    def test_loss_backward(self, corpus):
        model = MiniTransformer(corpus.vocab.size, np.random.default_rng(3))
        src, dec_in, dec_out = batch(corpus, 4)
        loss = model.loss(src, dec_in, dec_out)
        loss.backward()
        assert np.isfinite(loss.data)

    def test_greedy_decode_stops_at_eos(self, corpus):
        model = MiniTransformer(corpus.vocab.size, np.random.default_rng(4))
        src, _, _ = batch(corpus, 2)
        outs = model.greedy_decode(src, max_len=12)
        assert len(outs) == 2
        from repro.datasets.translation import EOS

        for o in outs:
            assert EOS not in o

    def test_learns_single_pair(self, corpus):
        rng = np.random.default_rng(5)
        model = MiniTransformer(corpus.vocab.size, rng, d_model=32, d_ff=64)
        src, dec_in, dec_out = batch(corpus, 2)
        opt = Adam(model.parameters(), lr=3e-3)
        for _ in range(80):
            loss = model.loss(src, dec_in, dec_out, label_smoothing=0.0)
            model.zero_grad()
            loss.backward()
            opt.step()
        assert float(loss.data) < 0.3


class TestNCF:
    def test_logit_shape(self):
        model = NCF(10, 20, np.random.default_rng(1))
        out = model(np.array([0, 1, 2]), np.array([3, 4, 5]))
        assert out.shape == (3,)

    def test_loss_backward(self):
        model = NCF(10, 20, np.random.default_rng(2))
        users = np.array([0, 1, 2, 3])
        items = np.array([0, 5, 10, 15])
        labels = np.array([1.0, 0.0, 1.0, 0.0], dtype=np.float32)
        loss = model.loss(users, items, labels)
        loss.backward()
        assert np.isfinite(loss.data)
        assert all(p.grad is not None for p in model.parameters())

    def test_score_has_no_graph(self):
        model = NCF(10, 20, np.random.default_rng(3))
        s = model.score(np.array([0]), np.array([0]))
        assert isinstance(s, np.ndarray)

    def test_no_grad_forward_builds_no_graph(self):
        # The parameters require grad; the kernels must still return bare
        # tensors when no_grad is on (the serving path).
        model = NCF(10, 20, np.random.default_rng(3))
        with no_grad():
            out = model(np.array([0, 4]), np.array([7, 19]))
        assert out._prev == () and out._backward is None
        assert not out.requires_grad

    def test_learns_simple_preference(self):
        """Can memorize a deterministic user-item rule."""
        rng = np.random.default_rng(4)
        model = NCF(8, 8, rng)
        users, items = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
        users, items = users.reshape(-1), items.reshape(-1)
        labels = (users == items).astype(np.float32)  # diagonal preference
        opt = Adam(model.parameters(), lr=1e-2)
        for _ in range(150):
            loss = model.loss(users, items, labels)
            model.zero_grad()
            loss.backward()
            opt.step()
        scores = model.score(users, items)
        auc_proxy = scores[labels == 1].mean() - scores[labels == 0].mean()
        assert auc_proxy > 1.0


class TestMiniGoNet:
    def test_output_shapes(self):
        net = MiniGoNet(5, np.random.default_rng(1))
        planes = np.stack([GoBoard(5).feature_planes() for _ in range(3)])
        policy, value = net(planes)
        assert policy.shape == (3, 26)
        assert value.shape == (3,)

    def test_value_bounded(self):
        net = MiniGoNet(5, np.random.default_rng(2))
        planes = RNG.normal(size=(4, 3, 5, 5)).astype(np.float32)
        _, value = net(planes)
        assert np.all(np.abs(value.data) <= 1.0)

    def test_evaluate_returns_distribution(self):
        net = MiniGoNet(5, np.random.default_rng(3))
        p, v = net.evaluate(GoBoard(5))
        np.testing.assert_allclose(p.sum(), 1.0, rtol=1e-5)
        assert -1.0 <= v <= 1.0

    def test_loss_backward(self):
        net = MiniGoNet(5, np.random.default_rng(4))
        planes = np.stack([GoBoard(5).feature_planes() for _ in range(2)])
        policy = np.full((2, 26), 1 / 26)
        value = np.array([1.0, -1.0])
        loss = net.loss(planes, policy, value)
        loss.backward()
        assert np.isfinite(loss.data)
        for name, p in net.named_parameters():
            assert p.grad is not None, name

    def test_tower_params_registered(self):
        net = MiniGoNet(5, np.random.default_rng(5), blocks=2)
        names = {n for n, _ in net.named_parameters()}
        assert any("tower_conv0" in n for n in names)
        assert any("tower_conv1" in n for n in names)

    def test_can_learn_fixed_policy(self):
        """Overfit to a fixed target policy on a few positions."""
        rng = np.random.default_rng(6)
        net = MiniGoNet(4, rng, width=16, blocks=1)
        planes = rng.normal(size=(4, 3, 4, 4)).astype(np.float32)
        target_policy = np.zeros((4, 17), dtype=np.float32)
        target_policy[np.arange(4), [0, 5, 10, 16]] = 1.0
        target_value = np.array([1.0, -1.0, 1.0, -1.0])
        opt = Adam(net.parameters(), lr=3e-3)
        for _ in range(120):
            loss = net.loss(planes, target_policy, target_value)
            net.zero_grad()
            loss.backward()
            opt.step()
        logits, value = net(planes)
        assert (logits.data.argmax(axis=1) == [0, 5, 10, 16]).all()
