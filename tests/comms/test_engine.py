"""ShardedDataParallel vs SynchronousDataParallel: §2.2.4 bit-identity.

The mathematical-equivalence requirement, enforced: every reduction
algorithm, backend, and worker count must reproduce the in-process
engine's losses and final parameter state bit-for-bit — including odd
parameter counts, non-power-of-two worker counts, and parameters whose
gradient never materializes.
"""

import numpy as np
import pytest

from repro.comms import ShardedDataParallel, process_backend_available
from repro.framework.functional import cross_entropy
from repro.framework.layers import Linear
from repro.framework.module import Module, Parameter
from repro.framework.optim import SGD
from repro.framework.tensor import Tensor
from repro.systems.dataparallel import SynchronousDataParallel
from repro.telemetry import Telemetry

ALGORITHMS = ["flat", "ring"]
BACKENDS = ["inline"] + (["process"] if process_backend_available() else [])


class _MLP(Module):
    """Five parameters (odd count): 2x Linear with bias, plus a lone scale."""

    def __init__(self, rng):
        super().__init__()
        self.fc1 = Linear(6, 8, rng, activation="relu")
        self.fc2 = Linear(8, 4, rng)
        self.scale = Parameter(np.ones(1))

    def forward(self, x: Tensor) -> Tensor:
        return self.fc2(self.fc1(x)) * self.scale


class _DeadHead(Module):
    """One parameter is unreachable from the loss: its grad stays None."""

    def __init__(self, rng):
        super().__init__()
        self.live = Linear(6, 4, rng)
        self.dead = Parameter(np.ones(3))

    def forward(self, x: Tensor) -> Tensor:
        return self.live(x)


def _loss_fn(model, shard):
    x, y = shard
    return cross_entropy(model(Tensor(x)), y)


def _batches(num, batch, seed=0):
    rng = np.random.default_rng(seed)
    return [(rng.standard_normal((batch, 6)), rng.integers(0, 4, batch))
            for _ in range(num)]


def _train(model_cls, engine_factory, batches):
    model = model_cls(np.random.default_rng(42))
    optimizer = SGD(model.parameters(), lr=0.1, momentum=0.9)
    engine = engine_factory(model, optimizer)
    try:
        losses = [engine.step(b) for b in batches]
    finally:
        if hasattr(engine, "close"):
            engine.close()
    return losses, model.state_dict()


def _assert_same(ref, got):
    ref_losses, ref_state = ref
    got_losses, got_state = got
    assert got_losses == ref_losses  # float equality: same summation chain
    for key in ref_state:
        assert np.array_equal(ref_state[key], got_state[key]), key


class TestBitIdentity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_matches_synchronous_engine(self, backend, algorithm, workers):
        batches = _batches(3, batch=12)
        ref = _train(_MLP, lambda m, o: SynchronousDataParallel(
            m, o, workers, _loss_fn), batches)
        got = _train(_MLP, lambda m, o: ShardedDataParallel(
            m, o, workers, _loss_fn, algorithm=algorithm, backend=backend,
            bucket_bytes=256), batches)
        _assert_same(ref, got)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_single_worker_degenerate_case(self, backend):
        batches = _batches(2, batch=8)
        ref = _train(_MLP, lambda m, o: SynchronousDataParallel(
            m, o, 1, _loss_fn), batches)
        got = _train(_MLP, lambda m, o: ShardedDataParallel(
            m, o, 1, _loss_fn, backend=backend), batches)
        _assert_same(ref, got)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_grad_none_param_stays_none(self, backend, algorithm):
        batches = _batches(2, batch=6)
        ref = _train(_DeadHead, lambda m, o: SynchronousDataParallel(
            m, o, 3, _loss_fn), batches)
        got = _train(_DeadHead, lambda m, o: ShardedDataParallel(
            m, o, 3, _loss_fn, algorithm=algorithm, backend=backend), batches)
        _assert_same(ref, got)

    def test_grad_none_installed_as_none(self):
        model = _DeadHead(np.random.default_rng(0))
        optimizer = SGD(model.parameters(), lr=0.1)
        engine = ShardedDataParallel(model, optimizer, 2, _loss_fn,
                                     backend="inline")
        engine.step(_batches(1, batch=4)[0])
        assert model.dead.grad is None
        assert model.live.weight.grad is None  # zeroed after the step
        engine.close()

    def test_bucket_size_does_not_change_results(self):
        batches = _batches(2, batch=12)
        runs = [
            _train(_MLP, lambda m, o: ShardedDataParallel(
                m, o, 3, _loss_fn, backend="inline", bucket_bytes=bb), batches)
            for bb in (64, 1024, 10**6)
        ]
        _assert_same(runs[0], runs[1])
        _assert_same(runs[0], runs[2])


class TestEngineBehaviour:
    def test_indivisible_batch_raises(self):
        model = _MLP(np.random.default_rng(0))
        engine = ShardedDataParallel(model, SGD(model.parameters(), lr=0.1),
                                     3, _loss_fn, backend="inline")
        with pytest.raises(ValueError, match="not divisible"):
            engine.step(_batches(1, batch=10)[0])
        engine.close()

    def test_bad_backend_and_algorithm_raise(self):
        model = _MLP(np.random.default_rng(0))
        opt = SGD(model.parameters(), lr=0.1)
        with pytest.raises(ValueError, match="unknown backend"):
            ShardedDataParallel(model, opt, 2, _loss_fn, backend="gpu")
        with pytest.raises(ValueError, match="unknown reduction algorithm"):
            ShardedDataParallel(model, opt, 2, _loss_fn, algorithm="nope")

    def test_step_after_close_raises(self):
        model = _MLP(np.random.default_rng(0))
        engine = ShardedDataParallel(model, SGD(model.parameters(), lr=0.1),
                                     2, _loss_fn, backend="inline")
        engine.close()
        engine.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            engine.step(_batches(1, batch=4)[0])

    def test_telemetry_counters_flow(self):
        telemetry = Telemetry()
        model = _MLP(np.random.default_rng(0))
        engine = ShardedDataParallel(model, SGD(model.parameters(), lr=0.1),
                                     2, _loss_fn, backend="inline")
        with telemetry.activate():
            engine.step(_batches(1, batch=4)[0])
        engine.close()
        snap = telemetry.metrics.snapshot()
        n_elements = sum(p.data.size for p in model.parameters())
        assert snap["allreduce_elements"]["value"] == n_elements
        assert snap["allreduce_bytes"]["value"] == sum(
            p.data.size * p.data.itemsize for p in model.parameters())
        assert snap["comms_step_seconds"]["count"] == 1

    @pytest.mark.skipif(not process_backend_available(),
                        reason="fork start method unavailable")
    def test_process_backend_overlap_telemetry(self):
        telemetry = Telemetry()
        model = _MLP(np.random.default_rng(0))
        engine = ShardedDataParallel(model, SGD(model.parameters(), lr=0.1),
                                     2, _loss_fn, backend="process",
                                     bucket_bytes=256)
        with telemetry.activate():
            engine.step(_batches(1, batch=4)[0])
            engine.step(_batches(1, batch=4)[0])
        engine.close()
        snap = telemetry.metrics.snapshot()
        assert snap["comms_bytes_reduced"]["value"] == 2 * engine.layout.total_bytes
        assert snap["comms_bucket_latency_seconds"]["count"] == \
            2 * engine.layout.num_buckets
        assert 0.0 <= snap["comms_overlap_fraction"]["value"] <= 1.0

    @pytest.mark.skipif(not process_backend_available(),
                        reason="fork start method unavailable")
    def test_worker_failure_surfaces_in_parent(self):
        def exploding_loss(model, shard):
            raise RuntimeError("boom in worker")

        model = _MLP(np.random.default_rng(0))
        engine = ShardedDataParallel(model, SGD(model.parameters(), lr=0.1),
                                     2, exploding_loss, backend="process",
                                     timeout=20.0)
        try:
            with pytest.raises(RuntimeError, match="boom in worker"):
                engine.step(_batches(1, batch=4)[0])
            with pytest.raises(RuntimeError, match="broken"):
                engine.step(_batches(1, batch=4)[0])
        finally:
            engine.close()
