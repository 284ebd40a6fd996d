"""Synthetic dataset generators: determinism, structure, invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import (
    ImageNetConfig,
    InteractionConfig,
    SceneConfig,
    ShapeScenes,
    SyntheticImageNet,
    SyntheticInteractions,
    SyntheticTranslation,
    TranslationConfig,
    random_crop_flip,
)
from repro.datasets.translation import BOS, EOS, PAD, SEP


@pytest.fixture(scope="module")
def imagenet():
    return SyntheticImageNet(ImageNetConfig(train_size=100, val_size=30))


@pytest.fixture(scope="module")
def scenes():
    return ShapeScenes(SceneConfig(train_size=20, val_size=5))


@pytest.fixture(scope="module")
def corpus():
    return SyntheticTranslation(TranslationConfig(train_size=50, test_size=20))


def _setdiff1d_interactions(config):
    """The generator as it was written with ``np.setdiff1d``: the oracle for
    (train_users, train_items, eval_positives, eval_negatives)."""
    rng = np.random.default_rng(config.seed)
    user_factors = rng.normal(0, 1.0, size=(config.num_users, config.latent_dim))
    item_factors = rng.normal(0, 1.0, size=(config.num_items, config.latent_dim))
    popularity = (np.arange(1, config.num_items + 1, dtype=np.float64)
                  ** -config.popularity_exponent)
    rng.shuffle(popularity)
    affinity = user_factors @ item_factors.T + 2.0 * np.log(popularity)[None, :]
    users, items = [], []
    positives = np.empty(config.num_users, dtype=np.int64)
    negatives = np.empty((config.num_users, config.num_eval_negatives), dtype=np.int64)
    for u in range(config.num_users):
        probs = np.exp(affinity[u] - affinity[u].max())
        probs /= probs.sum()
        chosen = rng.choice(config.num_items, size=config.interactions_per_user,
                            replace=False, p=probs)
        positives[u] = chosen[-1]
        users += [u] * (len(chosen) - 1)
        items += [int(i) for i in chosen[:-1]]
        unseen = np.setdiff1d(np.arange(config.num_items), chosen)
        negatives[u] = rng.choice(unseen, size=config.num_eval_negatives, replace=False)
    return (np.array(users, dtype=np.int64), np.array(items, dtype=np.int64),
            positives, negatives)


@pytest.fixture(scope="module")
def interactions():
    return SyntheticInteractions(InteractionConfig(num_users=30, num_items=120, num_eval_negatives=30))


class TestSyntheticImageNet:
    def test_shapes_and_dtypes(self, imagenet):
        images, labels = imagenet.train.arrays
        assert images.shape == (100, 3, 16, 16)
        assert images.dtype == np.float32
        assert labels.dtype == np.int64

    def test_labels_in_range(self, imagenet):
        _, labels = imagenet.train.arrays
        assert labels.min() >= 0
        assert labels.max() < 10

    def test_deterministic(self):
        cfg = ImageNetConfig(train_size=20, val_size=5)
        a = SyntheticImageNet(cfg)
        b = SyntheticImageNet(cfg)
        np.testing.assert_array_equal(a.train.arrays[0], b.train.arrays[0])
        np.testing.assert_array_equal(a.val.arrays[1], b.val.arrays[1])

    def test_seed_changes_data(self):
        a = SyntheticImageNet(ImageNetConfig(train_size=20, val_size=5, seed=1))
        b = SyntheticImageNet(ImageNetConfig(train_size=20, val_size=5, seed=2))
        assert not np.array_equal(a.train.arrays[0], b.train.arrays[0])

    def test_classes_are_separable_by_prototype_correlation(self, imagenet):
        # Nearest-prototype classification should beat chance by a wide
        # margin — the labels carry real signal.
        images, labels = imagenet.val.arrays
        size = imagenet.config.image_size
        shift = imagenet.config.max_shift
        protos = imagenet.prototypes[:, :, shift : shift + size, shift : shift + size]
        flat_p = protos.reshape(len(protos), -1)
        flat_p = flat_p - flat_p.mean(axis=1, keepdims=True)
        flat_x = images.reshape(len(images), -1)
        flat_x = flat_x - flat_x.mean(axis=1, keepdims=True)
        sims = flat_x @ flat_p.T
        acc = (sims.argmax(axis=1) == labels).mean()
        assert acc > 0.5  # chance is 0.1

    def test_augmentation_preserves_shapes_and_labels(self, imagenet):
        images, labels = imagenet.train.arrays
        rng = np.random.default_rng(0)
        aug, lab = random_crop_flip(images[:8], labels[:8], rng)
        assert aug.shape == images[:8].shape
        np.testing.assert_array_equal(lab, labels[:8])

    def test_augmentation_changes_pixels(self, imagenet):
        images, labels = imagenet.train.arrays
        rng = np.random.default_rng(0)
        aug, _ = random_crop_flip(images[:8], labels[:8], rng)
        assert not np.array_equal(aug, images[:8])


class TestShapeScenes:
    def test_sizes(self, scenes):
        assert len(scenes.train) == 20
        assert len(scenes.val) == 5

    def test_every_scene_has_objects(self, scenes):
        for scene in scenes.train + scenes.val:
            assert 1 <= len(scene.objects) <= 3

    def test_boxes_tight_on_masks(self, scenes):
        for scene in scenes.train:
            for obj in scene.objects:
                ys, xs = np.nonzero(obj.mask)
                x1, y1, x2, y2 = obj.box
                assert x1 == xs.min() and y1 == ys.min()
                assert x2 == xs.max() + 1 and y2 == ys.max() + 1

    def test_masks_within_image(self, scenes):
        size = scenes.config.image_size
        for scene in scenes.train:
            for obj in scene.objects:
                assert obj.mask.shape == (size, size)
                assert obj.mask.any()

    def test_labels_valid(self, scenes):
        for scene in scenes.train:
            for obj in scene.objects:
                assert 0 <= obj.label <= 2

    def test_objects_brighter_than_background(self, scenes):
        for scene in scenes.train[:5]:
            img = scene.image[0]
            for obj in scene.objects:
                inside = img[obj.mask].mean()
                outside = img[~obj.mask].mean()
                assert inside > outside

    def test_deterministic(self):
        a = ShapeScenes(SceneConfig(train_size=5, val_size=2))
        b = ShapeScenes(SceneConfig(train_size=5, val_size=2))
        np.testing.assert_array_equal(a.train[0].image, b.train[0].image)

    def test_batch_images(self, scenes):
        batch = ShapeScenes.batch_images(scenes.val)
        assert batch.shape == (5, 1, 32, 32)


class TestSyntheticTranslation:
    def test_train_test_disjoint(self, corpus):
        train = {tuple(s) for s, _ in corpus.train_pairs}
        test = {tuple(s) for s, _ in corpus.test_pairs}
        assert not train & test

    def test_translation_deterministic_function(self, corpus):
        src, tgt = corpus.train_pairs[0]
        assert corpus.translate(src) == tgt

    def test_single_clause_reversal(self, corpus):
        v = corpus.vocab
        src = [v.source_start, v.source_start + 1, v.source_start + 2]
        tgt = corpus.translate(src)
        mapped = [v.map_token(t) for t in src]
        assert tgt[:-1] == mapped[::-1]
        assert tgt[-1] == v.marker_odd  # length 3 is odd

    def test_even_length_marker(self, corpus):
        v = corpus.vocab
        src = [v.source_start, v.source_start + 5]
        assert corpus.translate(src)[-1] == v.marker_even

    def test_two_clause_structure(self, corpus):
        v = corpus.vocab
        a, b = v.source_start, v.source_start + 1
        src = [a, b, SEP, a]
        tgt = corpus.translate(src)
        assert SEP in tgt
        sep_idx = tgt.index(SEP)
        # First clause: reversed mapping + even marker.
        assert tgt[:sep_idx] == [v.map_token(b), v.map_token(a), v.marker_even]
        assert tgt[sep_idx + 1 :] == [v.map_token(a), v.marker_odd]

    def test_target_tokens_in_target_space(self, corpus):
        v = corpus.vocab
        for _, tgt in corpus.train_pairs:
            for tok in tgt:
                assert tok == SEP or tok >= v.target_start

    def test_pad_batch(self, corpus):
        padded = corpus.pad_batch([[5, 6], [7]])
        np.testing.assert_array_equal(padded, [[5, 6], [7, PAD]])

    def test_decoder_io_alignment(self, corpus):
        dec_in, dec_out = corpus.decoder_io([[10, 11]])
        np.testing.assert_array_equal(dec_in[0], [BOS, 10, 11])
        np.testing.assert_array_equal(dec_out[0], [10, 11, EOS])

    def test_vocab_size_covers_all_tokens(self, corpus):
        v = corpus.vocab
        max_tok = max(max(t) for _, t in corpus.train_pairs)
        assert max_tok < v.size

    @given(st.lists(st.integers(0, 27), min_size=1, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_translate_length_relation(self, rel_tokens):
        corpus = SyntheticTranslation(TranslationConfig(train_size=2, test_size=1))
        v = corpus.vocab
        src = [v.source_start + t for t in rel_tokens]
        tgt = corpus.translate(src)
        assert len(tgt) == len(src) + 1  # one clause => one marker


class TestSyntheticInteractions:
    def test_train_arrays_aligned(self, interactions):
        assert len(interactions.train_users) == len(interactions.train_items)

    def test_expected_interaction_count(self, interactions):
        cfg = interactions.config
        assert len(interactions.train_users) == cfg.num_users * (cfg.interactions_per_user - 1)

    def test_eval_positive_not_in_train(self, interactions):
        for u in range(interactions.config.num_users):
            items_u = interactions.train_items[interactions.train_users == u]
            assert interactions.eval_positives[u] not in items_u

    def test_eval_negatives_unseen(self, interactions):
        for u in range(interactions.config.num_users):
            seen = interactions._seen[u]
            for item in interactions.eval_negatives[u]:
                assert int(item) not in seen

    def test_popularity_long_tail(self, interactions):
        counts = np.bincount(interactions.train_items, minlength=interactions.config.num_items)
        top_decile = np.sort(counts)[-len(counts) // 10 :].sum()
        assert top_decile > counts.sum() * 0.2  # popular head dominates

    def test_training_batch_shapes_and_labels(self, interactions):
        rng = np.random.default_rng(0)
        users, items, labels = interactions.sample_training_batch(16, 4, rng)
        assert len(users) == len(items) == len(labels) == 16 * 5
        assert set(np.unique(labels)) == {0.0, 1.0}
        assert labels.sum() == 16

    def test_deterministic(self):
        cfg = InteractionConfig(num_users=10, num_items=120, num_eval_negatives=30)
        a, b = SyntheticInteractions(cfg), SyntheticInteractions(cfg)
        np.testing.assert_array_equal(a.train_items, b.train_items)
        np.testing.assert_array_equal(a.eval_negatives, b.eval_negatives)

    @pytest.mark.parametrize("cfg", [
        InteractionConfig(),
        InteractionConfig(num_users=30, num_items=120, num_eval_negatives=30),
        InteractionConfig(num_users=12, num_items=75, interactions_per_user=25,
                          num_eval_negatives=50, seed=7),
    ], ids=["default", "small", "tight"])
    def test_arrays_equal_the_setdiff1d_generator(self, cfg):
        data = SyntheticInteractions(cfg)
        for name, expected in zip(
                ("train_users", "train_items", "eval_positives", "eval_negatives"),
                _setdiff1d_interactions(cfg), strict=True):
            actual = getattr(data, name)
            assert actual.dtype == expected.dtype and np.array_equal(actual, expected), name

    def test_generation_does_not_import_numpy_ma(self):
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        code = ("import sys; from repro.suite import create_benchmark; "
                "create_benchmark('recommendation').prepare_data(); "
                "print('numpy.ma' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
        assert done.stdout.strip() == "False"

    def test_infeasible_config_rejected(self):
        with pytest.raises(ValueError):
            SyntheticInteractions(
                InteractionConfig(num_users=5, num_items=30, interactions_per_user=20,
                                  num_eval_negatives=50)
            )
