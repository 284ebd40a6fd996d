"""Executable data-parallel semantics: synchronous equivalence and determinism."""

import numpy as np
import pytest

from repro.framework import (Linear, Module, Parameter, ReLU, SGD, Sequential, Tensor,
                             functional as F)
from repro.models import MiniResNet
from repro.systems.dataparallel import SynchronousDataParallel, shard_batch


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
