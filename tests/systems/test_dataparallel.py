"""Executable data-parallel semantics: sync equivalence, async variance."""

import numpy as np
import pytest

from repro.framework import (Linear, Module, Parameter, ReLU, SGD, Sequential, Tensor,
                             functional as F)
from repro.models import MiniResNet
from repro.systems.dataparallel import (
    AsynchronousDataParallel,
    SynchronousDataParallel,
    shard_batch,
)


def loss_fn(model, shard):
    x, y = shard
    return F.cross_entropy(model(Tensor(x)), y)


class _DeadHead(Module):
    """One parameter no loss reaches: its gradient never materialises."""

    def __init__(self, rng):
        super().__init__()
        self.live = Linear(8, 4, rng)
        self.dead = Parameter(np.ones(3, dtype=np.float32))

    def forward(self, x):
        return self.live(x)


def make_model(seed=0):
    rng = np.random.default_rng(seed)
    return Sequential(Linear(8, 16, rng), ReLU(), Linear(16, 4, rng))


def make_batch(n=32, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 8)).astype(np.float32)
    y = rng.integers(0, 4, size=n)
    return x, y


class TestShardBatch:
    def test_even_split(self):
        x, y = make_batch(32)
        shards = shard_batch((x, y), 4)
        assert len(shards) == 4
        assert all(len(s[0]) == 8 for s in shards)
        np.testing.assert_array_equal(np.concatenate([s[0] for s in shards]), x)

    def test_indivisible_rejected(self):
        x, y = make_batch(30)
        with pytest.raises(ValueError, match="divisible"):
            shard_batch((x, y), 4)

    def test_zero_workers_rejected(self):
        x, y = make_batch(8)
        with pytest.raises(ValueError, match="at least one worker"):
            shard_batch((x, y), 0)

    def test_negative_workers_rejected(self):
        x, y = make_batch(8)
        with pytest.raises(ValueError, match="at least one worker"):
            shard_batch((x, y), -2)

    def test_empty_batch_tuple_rejected(self):
        with pytest.raises(ValueError, match="empty batch"):
            shard_batch((), 2)

    def test_mismatched_array_lengths_rejected(self):
        x, _ = make_batch(16)
        _, y = make_batch(8)
        with pytest.raises(ValueError, match="disagree on length"):
            shard_batch((x, y), 2)

    def test_single_worker_is_identity(self):
        x, y = make_batch(8)
        shards = shard_batch((x, y), 1)
        assert len(shards) == 1
        np.testing.assert_array_equal(shards[0][0], x)
        np.testing.assert_array_equal(shards[0][1], y)


class TestSynchronous:
    def test_equivalent_to_single_worker(self):
        """W-worker sync SGD == single-step large batch (up to fp order)."""
        batch = make_batch(32)
        # Single worker reference.
        ref_model = make_model(1)
        ref = SynchronousDataParallel(ref_model, SGD(ref_model.parameters(), lr=0.1),
                                      num_workers=1, loss_fn=loss_fn)
        # Four workers.
        dp_model = make_model(1)
        dp = SynchronousDataParallel(dp_model, SGD(dp_model.parameters(), lr=0.1),
                                     num_workers=4, loss_fn=loss_fn)
        for _ in range(5):
            ref.step(batch)
            dp.step(batch)
        for p_ref, p_dp in zip(ref_model.parameters(), dp_model.parameters()):
            np.testing.assert_allclose(p_ref.data, p_dp.data, rtol=1e-4, atol=1e-6)

    def test_deterministic(self):
        batch = make_batch(16)
        results = []
        for _ in range(2):
            model = make_model(2)
            dp = SynchronousDataParallel(model, SGD(model.parameters(), lr=0.1), 4, loss_fn)
            dp.step(batch)
            results.append(model.state_dict())
        for name in results[0]:
            np.testing.assert_array_equal(results[0][name], results[1][name])

    def test_loss_decreases(self):
        batch = make_batch(32)
        model = make_model(3)
        dp = SynchronousDataParallel(model, SGD(model.parameters(), lr=0.2), 4, loss_fn)
        first = dp.step(batch)
        for _ in range(30):
            last = dp.step(batch)
        assert last < first

    def test_works_with_conv_model(self):
        rng = np.random.default_rng(4)
        model = MiniResNet(4, rng, widths=(8, 8), blocks_per_stage=1)
        x = rng.normal(size=(8, 3, 16, 16)).astype(np.float32)
        y = rng.integers(0, 4, size=8)
        dp = SynchronousDataParallel(model, SGD(model.parameters(), lr=0.05), 2, loss_fn)
        loss = dp.step((x, y))
        assert np.isfinite(loss)

    def test_invalid_worker_count(self):
        model = make_model()
        with pytest.raises(ValueError):
            SynchronousDataParallel(model, SGD(model.parameters(), lr=0.1), 0, loss_fn)

    def test_matches_canonical_order_reference(self):
        """§2.2.4: shard grads summed in ascending order, divided once, bit for bit."""
        batch = make_batch(24)
        ref_model, dp_model = make_model(7), make_model(7)
        ref_opt = SGD(ref_model.parameters(), lr=0.1, momentum=0.9)
        dp = SynchronousDataParallel(
            dp_model, SGD(dp_model.parameters(), lr=0.1, momentum=0.9), 3, loss_fn)
        for _ in range(3):
            losses, sums = [], None
            for shard in shard_batch(batch, 3):
                ref_model.zero_grad()
                loss = loss_fn(ref_model, shard)
                loss.backward()
                losses.append(float(loss.data))
                grads = [p.grad for p in ref_model.parameters()]
                sums = [g.copy() for g in grads] if sums is None else \
                    [acc + g for acc, g in zip(sums, grads)]
            for p, total in zip(ref_model.parameters(), sums):
                p.grad = total / 3
            ref_opt.step()
            ref_model.zero_grad()
            assert dp.step(batch) == (losses[0] + losses[1] + losses[2]) / 3
        for p_ref, p_dp in zip(ref_model.parameters(), dp_model.parameters()):
            assert np.array_equal(p_ref.data, p_dp.data)

    def test_unreached_parameter_keeps_no_grad(self):
        from repro.telemetry import Telemetry

        model = _DeadHead(np.random.default_rng(0))
        dead = model.dead.data.copy()
        dp = SynchronousDataParallel(
            model, SGD(model.parameters(), lr=0.1, momentum=0.9), 2, loss_fn)
        telemetry = Telemetry()
        with telemetry.activate():
            dp.step(make_batch(8))
        assert model.dead.grad is None and model.live.weight.grad is None
        assert np.array_equal(model.dead.data, dead)
        live = [model.live.weight, model.live.bias]
        snap = telemetry.metrics.snapshot()
        assert snap["allreduce_elements"]["value"] == sum(p.data.size for p in live)
        assert snap["allreduce_bytes"]["value"] == sum(p.data.nbytes for p in live)


class TestAsynchronous:
    def test_seed_changes_trajectory(self):
        """§2.2.3: async accumulation order is a genuine variance source."""
        batch = make_batch(32)
        states = []
        for seed in (0, 1):
            model = make_model(5)
            dp = AsynchronousDataParallel(
                model, SGD(model.parameters(), lr=0.1), 4, loss_fn,
                rng=np.random.default_rng(seed), max_staleness=2,
            )
            for _ in range(4):
                dp.step(batch)
            states.append(np.concatenate([p.data.reshape(-1) for p in model.parameters()]))
        assert not np.allclose(states[0], states[1])

    def test_zero_staleness_same_data_still_trains(self):
        batch = make_batch(32)
        model = make_model(6)
        dp = AsynchronousDataParallel(
            model, SGD(model.parameters(), lr=0.2), 4, loss_fn,
            rng=np.random.default_rng(0), max_staleness=0,
        )
        first = dp.step(batch)
        for _ in range(30):
            last = dp.step(batch)
        assert last < first

    def test_async_differs_from_sync(self):
        batch = make_batch(32)
        sync_model = make_model(7)
        sync = SynchronousDataParallel(sync_model, SGD(sync_model.parameters(), lr=0.1),
                                       4, loss_fn)
        async_model = make_model(7)
        asyn = AsynchronousDataParallel(
            async_model, SGD(async_model.parameters(), lr=0.1), 4, loss_fn,
            rng=np.random.default_rng(0), max_staleness=2,
        )
        for _ in range(3):
            sync.step(batch)
            asyn.step(batch)
        a = np.concatenate([p.data.reshape(-1) for p in sync_model.parameters()])
        b = np.concatenate([p.data.reshape(-1) for p in async_model.parameters()])
        assert not np.allclose(a, b)

    def test_validation(self):
        model = make_model()
        with pytest.raises(ValueError):
            AsynchronousDataParallel(model, SGD(model.parameters(), lr=0.1), 2, loss_fn,
                                     rng=np.random.default_rng(0), max_staleness=-1)


class TestAsynchronousStalenessBookkeeping:
    """The snapshot window is the staleness bound — it must never grow past it."""

    def _make(self, max_staleness, num_workers=4, seed=8):
        model = make_model(seed)
        return model, AsynchronousDataParallel(
            model, SGD(model.parameters(), lr=0.1), num_workers, loss_fn,
            rng=np.random.default_rng(0), max_staleness=max_staleness,
        )

    @pytest.mark.parametrize("max_staleness", [0, 1, 3])
    def test_snapshot_window_bounded(self, max_staleness):
        batch = make_batch(32)
        _, dp = self._make(max_staleness)
        assert dp._snapshots == []
        for _ in range(5):
            dp.step(batch)
            assert len(dp._snapshots) <= max_staleness + 1

    def test_snapshot_window_holds_latest_state(self):
        """After a step the newest snapshot is the live post-update weights."""
        batch = make_batch(32)
        model, dp = self._make(max_staleness=2)
        dp.step(batch)
        live = model.state_dict()
        newest = dp._snapshots[-1]
        assert set(newest) == set(live)
        for name in live:
            np.testing.assert_array_equal(newest[name], live[name])

    def test_zero_staleness_single_worker_equals_plain_sgd(self):
        """With a window of one snapshot, 'stale' is always the live state:
        async with one worker degenerates to plain sequential SGD."""
        batch = make_batch(16)
        ref_model = make_model(9)
        ref_opt = SGD(ref_model.parameters(), lr=0.1)
        model, dp = self._make(max_staleness=0, num_workers=1, seed=9)
        for _ in range(5):
            ref_model.zero_grad()
            loss = loss_fn(ref_model, batch)
            loss.backward()
            ref_opt.step()
            ref_model.zero_grad()
            dp.step(batch)
        for p_ref, p_async in zip(ref_model.parameters(), model.parameters()):
            np.testing.assert_allclose(p_ref.data, p_async.data, rtol=1e-6, atol=1e-7)

    def test_higher_staleness_diverges_from_fresh(self):
        """The staleness knob is live: window size changes the trajectory."""
        batch = make_batch(32)
        states = []
        for max_staleness in (0, 3):
            model, dp = self._make(max_staleness)
            for _ in range(4):
                dp.step(batch)
            states.append(np.concatenate(
                [p.data.reshape(-1) for p in model.parameters()]))
        assert not np.allclose(states[0], states[1])


class TestAllReduceAccounting:
    def test_counters_track_elements_and_bytes(self):
        from repro.telemetry import Telemetry

        model = make_model(3)
        dp = SynchronousDataParallel(
            model, SGD(model.parameters(), lr=0.1), 4, loss_fn)
        telemetry = Telemetry()
        with telemetry.activate():
            dp.step(make_batch(32))
            dp.step(make_batch(32, seed=1))
        snap = telemetry.metrics.snapshot()
        n_elements = sum(p.data.size for p in model.parameters())
        n_bytes = sum(p.data.size * p.data.itemsize for p in model.parameters())
        assert snap["allreduce_elements"]["value"] == 2 * n_elements
        assert snap["allreduce_bytes"]["value"] == 2 * n_bytes


class TestAsynchronousSnapshotReuse:
    """Evicted snapshot dicts are recycled, not re-allocated each step."""

    def _run(self, steps, seed=8):
        model = make_model(seed)
        dp = AsynchronousDataParallel(
            model, SGD(model.parameters(), lr=0.1), 4, loss_fn,
            rng=np.random.default_rng(0), max_staleness=1,
        )
        batch = make_batch(32)
        losses = [dp.step(batch) for _ in range(steps)]
        return model, dp, losses

    def test_buffers_are_recycled_after_window_fills(self):
        _, dp, _ = self._run(steps=4)
        # Window = 2 snapshots; evictions land on the free list and steady
        # state keeps one spare in rotation.
        assert len(dp._snapshots) == 2
        assert len(dp._retired) >= 1
        pool = {id(d) for d in dp._snapshots} | {id(d) for d in dp._retired}
        dp.step(make_batch(32))
        # Every snapshot in play came from the existing pool: a step in
        # steady state allocates no new snapshot dicts.
        after = {id(d) for d in dp._snapshots} | {id(d) for d in dp._retired}
        assert after <= pool

    def test_snapshots_do_not_alias_each_other(self):
        _, dp, _ = self._run(steps=5)
        a, b = dp._snapshots[-2], dp._snapshots[-1]
        for name in a:
            assert a[name] is not b[name]

    def test_trajectory_matches_fresh_copy_semantics(self):
        """Recycling is an allocation optimisation only: the training
        trajectory must be identical to snapshotting via state_dict()."""
        model, dp, losses = self._run(steps=6)

        ref_model = make_model(8)
        ref = AsynchronousDataParallel(
            ref_model, SGD(ref_model.parameters(), lr=0.1), 4, loss_fn,
            rng=np.random.default_rng(0), max_staleness=1,
        )
        ref._snapshot = ref_model.state_dict  # bypass buffer recycling
        batch = make_batch(32)
        ref_losses = [ref.step(batch) for _ in range(6)]

        assert losses == ref_losses
        for p, p_ref in zip(model.parameters(), ref_model.parameters()):
            np.testing.assert_array_equal(p.data, p_ref.data)
