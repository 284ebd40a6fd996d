"""LR schedules and the seeded data pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.framework import (
    ArrayDataset,
    ConstantLR,
    CosineLR,
    DataLoader,
    NoamLR,
    Parameter,
    SGD,
    StepDecayLR,
    WarmupStepLR,
    linear_scaled_lr,
    train_val_split,
)


def make_opt():
    return SGD([Parameter(np.zeros(2))], lr=1.0)


class TestSchedules:
    def test_constant(self):
        sched = ConstantLR(make_opt(), lr=0.3)
        assert sched.lr_at(0) == sched.lr_at(1000) == 0.3

    def test_step_decay(self):
        sched = StepDecayLR(make_opt(), base_lr=1.0, milestones=[10, 20], gamma=0.1)
        assert sched.lr_at(5) == 1.0
        assert sched.lr_at(10) == pytest.approx(0.1)
        assert sched.lr_at(25) == pytest.approx(0.01)

    def test_warmup_ramps_linearly(self):
        sched = WarmupStepLR(make_opt(), base_lr=1.0, warmup_steps=10, milestones=[100])
        assert sched.lr_at(0) == pytest.approx(0.1)
        assert sched.lr_at(4) == pytest.approx(0.5)
        assert sched.lr_at(10) == 1.0

    def test_warmup_then_decay(self):
        sched = WarmupStepLR(make_opt(), base_lr=1.0, warmup_steps=5, milestones=[20], gamma=0.5)
        assert sched.lr_at(20) == pytest.approx(0.5)

    def test_cosine_endpoints(self):
        sched = CosineLR(make_opt(), base_lr=1.0, total_steps=100, min_lr=0.1)
        assert sched.lr_at(0) == pytest.approx(1.0)
        assert sched.lr_at(100) == pytest.approx(0.1)
        assert sched.lr_at(50) == pytest.approx(0.55)

    def test_cosine_monotone_decreasing(self):
        sched = CosineLR(make_opt(), base_lr=1.0, total_steps=50)
        lrs = [sched.lr_at(s) for s in range(51)]
        assert all(a >= b - 1e-12 for a, b in zip(lrs, lrs[1:]))

    def test_noam_peak_at_warmup(self):
        sched = NoamLR(make_opt(), d_model=64, warmup_steps=100)
        lrs = [sched.lr_at(s) for s in range(1, 400)]
        assert int(np.argmax(lrs)) + 1 == 100

    def test_step_applies_to_optimizer(self):
        opt = make_opt()
        sched = StepDecayLR(opt, base_lr=1.0, milestones=[1], gamma=0.5)
        assert opt.lr == 1.0
        sched.step()
        assert opt.lr == 0.5

    def test_linear_scaling_rule(self):
        assert linear_scaled_lr(0.1, 1024, 256) == pytest.approx(0.4)
        with pytest.raises(ValueError):
            linear_scaled_lr(0.1, 0, 256)

    @given(st.integers(1, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_noam_always_positive(self, step):
        sched = NoamLR(make_opt(), d_model=32, warmup_steps=50)
        assert sched.lr_at(step) > 0


class TestArrayDataset:
    def test_length_and_indexing(self):
        x = np.arange(10)
        y = np.arange(10) * 2
        ds = ArrayDataset(x, y)
        assert len(ds) == 10
        xi, yi = ds[np.array([1, 3])]
        np.testing.assert_array_equal(xi, [1, 3])
        np.testing.assert_array_equal(yi, [2, 6])

    def test_single_array(self):
        ds = ArrayDataset(np.arange(5))
        np.testing.assert_array_equal(ds[np.array([0, 4])], [0, 4])

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            ArrayDataset(np.arange(3), np.arange(4))

    def test_split_partitions(self):
        ds = ArrayDataset(np.arange(100))
        rng = np.random.default_rng(0)
        train, val = train_val_split(ds, 0.2, rng)
        assert len(train) == 80
        assert len(val) == 20
        combined = np.sort(np.concatenate([train.arrays[0], val.arrays[0]]))
        np.testing.assert_array_equal(combined, np.arange(100))

    def test_split_invalid_fraction(self):
        with pytest.raises(ValueError):
            train_val_split(ArrayDataset(np.arange(4)), 1.5, np.random.default_rng(0))


class TestDataLoader:
    def test_covers_all_samples(self):
        ds = ArrayDataset(np.arange(23))
        loader = DataLoader(ds, batch_size=5, seed=1)
        seen = np.concatenate([b for b in loader])
        np.testing.assert_array_equal(np.sort(seen), np.arange(23))

    def test_len(self):
        ds = ArrayDataset(np.arange(23))
        assert len(DataLoader(ds, batch_size=5)) == 5
        assert len(DataLoader(ds, batch_size=5, drop_last=True)) == 4

    def test_drop_last(self):
        ds = ArrayDataset(np.arange(23))
        loader = DataLoader(ds, batch_size=5, drop_last=True)
        batches = list(loader)
        assert all(len(b) == 5 for b in batches)
        assert len(batches) == 4

    def test_same_seed_same_order(self):
        ds = ArrayDataset(np.arange(50))
        a = np.concatenate(list(DataLoader(ds, 10, seed=7)))
        b = np.concatenate(list(DataLoader(ds, 10, seed=7)))
        np.testing.assert_array_equal(a, b)

    def test_different_seed_different_order(self):
        ds = ArrayDataset(np.arange(50))
        a = np.concatenate(list(DataLoader(ds, 10, seed=7)))
        b = np.concatenate(list(DataLoader(ds, 10, seed=8)))
        assert not np.array_equal(a, b)

    def test_epochs_reshuffle(self):
        ds = ArrayDataset(np.arange(50))
        loader = DataLoader(ds, 10, seed=7)
        first = np.concatenate(list(loader))
        second = np.concatenate(list(loader))
        assert not np.array_equal(first, second)

    def test_no_shuffle_preserves_order(self):
        ds = ArrayDataset(np.arange(10))
        loader = DataLoader(ds, 4, shuffle=False)
        batches = list(loader)
        np.testing.assert_array_equal(batches[0], [0, 1, 2, 3])

    def test_augment_runs_per_batch(self):
        calls = []

        def aug(x, rng):
            calls.append(len(x))
            return (x + 100,)

        ds = ArrayDataset(np.arange(8))
        out = list(DataLoader(ds, 4, shuffle=False, augment=aug))
        assert calls == [4, 4]
        assert np.all(out[0] >= 100)


class TestDataLoaderEpochSemantics:
    """A partial traversal must not burn an epoch's shuffle seed."""

    def test_full_pass_advances_epoch(self):
        loader = DataLoader(ArrayDataset(np.arange(10)), 5, seed=1)
        assert loader.epoch == 0
        list(loader)
        assert loader.epoch == 1

    def test_abandoned_iterator_does_not_advance(self):
        ds = ArrayDataset(np.arange(20))
        loader = DataLoader(ds, 5, seed=1)
        for _ in loader:
            break  # peek at one batch, then abandon the pass
        assert loader.epoch == 0
        replay = np.concatenate(list(loader))
        fresh = np.concatenate(list(DataLoader(ds, 5, seed=1)))
        np.testing.assert_array_equal(replay, fresh)

    def test_drop_last_tail_still_completes_epoch(self):
        loader = DataLoader(ArrayDataset(np.arange(23)), 5, seed=1, drop_last=True)
        list(loader)
        assert loader.epoch == 1

    def test_set_epoch_positions_schedule(self):
        ds = ArrayDataset(np.arange(30))
        sequential = DataLoader(ds, 6, seed=9)
        for _ in range(3):
            list(sequential)
        jumped = DataLoader(ds, 6, seed=9)
        jumped.set_epoch(3)
        np.testing.assert_array_equal(
            np.concatenate(list(jumped)), np.concatenate(list(sequential)))

    def test_multi_array_batches(self):
        ds = ArrayDataset(np.arange(6), np.arange(6) * 10)
        x, y = next(iter(DataLoader(ds, 3, shuffle=False)))
        np.testing.assert_array_equal(y, x * 10)

    def test_invalid_batch_size(self):
        # A float is refused, not truncated into a different batch size.
        for bad in (0, -1, 0.5, 2.5, True):
            with pytest.raises(ValueError, match=f"got {bad!r}"):
                DataLoader(ArrayDataset(np.arange(4)), bad)

    def test_numpy_integer_batch_size(self):
        loader = DataLoader(ArrayDataset(np.arange(4)), np.int64(2))
        assert loader.batch_size == 2 and len(loader) == 2
