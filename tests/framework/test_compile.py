"""Capture/compile/replay executor: bit-identity, caching, and fallbacks.

``REPRO_KERNEL_MODE=compiled`` promises *mathematical identity* with the
eager modes (§2.2.4 discipline: ``array_equal``, never ``allclose``) while
replaying a pre-resolved plan on steps whose graph fingerprint repeats.
These tests pin the contract edges the suite runs don't isolate: shared
subgraphs, per-shape plan caching (partial batches), the plan-cap and
uncompilable fallbacks, grad-hook delivery during replay, tape release,
and the deep RNN / attention tapes whose permuted-layout gradients are
the historical divergence hazard (multi-axis reductions are sensitive to
memory order, so replay must preserve eager layouts bit-for-bit).
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.framework import (
    Parameter,
    SGD,
    Tensor,
    linear_bias_act,
    use_kernel_mode,
)
from repro.framework.compile import StepExecutor
from repro.framework.workspace import arena

RNG = np.random.default_rng(7)

EAGER_MODES = ("naive", "reuse", "fused")


def _mlp_params(seed=0):
    rng = np.random.default_rng(seed)
    w1 = Parameter((rng.normal(size=(16, 12)) * 0.2).astype(np.float32))
    b1 = Parameter(np.zeros(16, dtype=np.float32))
    w2 = Parameter((rng.normal(size=(4, 16)) * 0.2).astype(np.float32))
    b2 = Parameter(np.zeros(4, dtype=np.float32))
    return [w1, b1, w2, b2]


def _mlp_loss(params, batch):
    w1, b1, w2, b2 = params
    x = Tensor(batch)
    h = linear_bias_act(x, w1, b1, act="relu")
    y = linear_bias_act(h, w2, b2, act="none")
    return (y * y).mean()


def _zero_grads(params):
    for p in params:
        p.grad = None


def _train(mode, batches, *, seed=0, executor=None, loss_fn=_mlp_loss,
           param_fn=_mlp_params):
    """Run the same multi-step horizon under ``mode``; return the trace.

    The trace is bitwise: per-step loss, every per-step parameter
    gradient, and the final parameter values.
    """
    execu = executor if executor is not None else StepExecutor()
    with use_kernel_mode(mode):
        params = param_fn(seed)
        opt = SGD(params, lr=1e-2, momentum=0.9)
        trace = []
        for batch in batches:
            loss = execu.step(lambda: loss_fn(params, batch),
                              pre_backward=lambda: _zero_grads(params))
            trace.append((loss.data.copy(),
                          tuple(p.grad.copy() for p in params)))
            opt.step()
        finals = tuple(p.data.copy() for p in params)
    return trace, finals, execu


def _assert_traces_identical(ref, got, context):
    (ref_trace, ref_finals, _), (got_trace, got_finals, _) = ref, got
    for step, ((rl, rg), (gl, gg)) in enumerate(zip(ref_trace, got_trace)):
        assert np.array_equal(rl, gl), f"{context}: loss diverged at step {step}"
        for i, (r, g) in enumerate(zip(rg, gg)):
            assert np.array_equal(r, g), \
                f"{context}: grad[{i}] diverged at step {step}"
    for i, (r, g) in enumerate(zip(ref_finals, got_finals)):
        assert np.array_equal(r, g), f"{context}: final param[{i}] diverged"


def _batches(n, shape=(8, 12), seed=3):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=shape).astype(np.float32) for _ in range(n)]


class TestMultiStepBitIdentity:
    @pytest.mark.parametrize("ref_mode", EAGER_MODES)
    def test_mlp_horizon_matches_eager(self, ref_mode):
        batches = _batches(5)
        ref = _train(ref_mode, batches)
        got = _train("compiled", batches)
        _assert_traces_identical(ref, got, f"compiled-vs-{ref_mode}")
        stats = got[2].stats()
        assert stats == got[2].stats()  # stats() is pure
        assert stats["misses"] == 1 and stats["hits"] == len(batches) - 1
        assert stats["fallbacks"] == 0 and stats["plans"] == 1

    def test_plan_keeps_its_arena_borrows(self):
        # A plan's entries hold views *derived* from its arena borrows
        # (slab slices, reshapes).  The borrows themselves must outlive the
        # builder, or the arena repools their bytes under the live plan and
        # the next borrow of the size class scribbles over its gradients.
        batches = _batches(4)
        ref = _train("fused", batches)
        execu = StepExecutor()
        _train("compiled", batches[:1], executor=execu)
        gc.collect()
        ws = arena()
        (plan,) = execu._plans.values()
        assert plan.borrows and plan.slab_bytes
        assert all(id(b) in ws._live for b in plan.borrows)
        scribbled = [ws.take((b.nbytes,), np.uint8) for b in plan.borrows]
        for buf, borrow in zip(scribbled, plan.borrows):
            assert not np.shares_memory(buf, borrow)
            buf[...] = 0xFF
        got = _train("compiled", batches, executor=execu)
        ws.release_all(scribbled)
        _assert_traces_identical(ref, got, "plan-borrows")
        assert got[2].stats()["hits"] == len(batches)

    def test_shared_subgraph(self):
        # One hidden activation feeds two branches whose losses are
        # combined: the shared node must accumulate both adjoints in
        # eager order during replay.
        def loss_fn(params, batch):
            w1, b1, w2, b2 = params
            h = linear_bias_act(Tensor(batch), w1, b1, act="relu")
            ya = linear_bias_act(h, w2, b2, act="none")
            yb = (h * h).sum()
            return (ya * ya).mean() + yb * 1e-3

        batches = _batches(4)
        ref = _train("fused", batches, loss_fn=loss_fn)
        got = _train("compiled", batches, loss_fn=loss_fn)
        _assert_traces_identical(ref, got, "shared-subgraph")
        assert got[2].stats()["hits"] == len(batches) - 1

    def test_deep_rnn_tape(self):
        # A long unrolled recurrence: hundreds of tape nodes, elementwise
        # chains eligible for fusion, shared weight reused every timestep.
        def param_fn(seed):
            rng = np.random.default_rng(seed)
            wx = Parameter((rng.normal(size=(10, 6)) * 0.3).astype(np.float32))
            wh = Parameter((rng.normal(size=(10, 10)) * 0.3).astype(np.float32))
            b = Parameter(np.zeros(10, dtype=np.float32))
            return [wx, wh, b]

        def loss_fn(params, batch):
            wx, wh, b = params
            h = Tensor(np.zeros((batch.shape[0], 10), dtype=np.float32))
            for t in range(batch.shape[1]):
                xt = Tensor(np.ascontiguousarray(batch[:, t]))
                h = (linear_bias_act(xt, wx, b, act="none")
                     + linear_bias_act(h, wh, None, act="none")).tanh()
            return (h * h).mean()

        batches = _batches(4, shape=(4, 9, 6), seed=11)
        ref = _train("fused", batches, loss_fn=loss_fn, param_fn=param_fn)
        got = _train("compiled", batches, loss_fn=loss_fn, param_fn=param_fn)
        _assert_traces_identical(ref, got, "deep-rnn")

    def test_attention_tape_permuted_layouts(self):
        # Regression for the layout hazard: transpose/reshape adjoints
        # hand permuted-layout gradient views to matmul and to the
        # broadcast-reduction in bias/weight accumulation.  NumPy's
        # pairwise summation blocks by memory order, so a replay that
        # silently made these C-contiguous would change low bits.
        B, T, D, heads = 3, 5, 8, 2
        dh = D // heads

        def param_fn(seed):
            rng = np.random.default_rng(seed)
            mk = lambda *s: Parameter(
                (rng.normal(size=s) * (1.0 / np.sqrt(s[-1]))).astype(np.float32))
            return [mk(D, D), mk(D, D), mk(D, D), mk(D, D)]

        def loss_fn(params, batch):
            wq, wk, wv, wo = params
            x = Tensor(batch)

            def split(w):
                y = linear_bias_act(x, w, None, act="none")
                return y.reshape((B, T, heads, dh)).transpose((0, 2, 1, 3))

            q, k, v = split(wq), split(wk), split(wv)
            attn = ((q @ k.transpose((0, 1, 3, 2))) * (1.0 / np.sqrt(dh))).tanh()
            ctx = (attn @ v).transpose((0, 2, 1, 3)).reshape((B, T, D))
            out = linear_bias_act(ctx, wo, None, act="none")
            return (out * out).mean()

        batches = _batches(4, shape=(B, T, D), seed=13)
        ref = _train("fused", batches, loss_fn=loss_fn, param_fn=param_fn)
        got = _train("compiled", batches, loss_fn=loss_fn, param_fn=param_fn)
        _assert_traces_identical(ref, got, "attention-layouts")
        assert got[2].stats()["fallbacks"] == 0


class TestPlanCache:
    def test_partial_batch_gets_its_own_plan(self):
        # A trailing partial batch changes every shape in the graph: new
        # fingerprint, second compiled plan — never a silent corruption
        # of the full-batch plan.
        batches = _batches(4) + _batches(2, shape=(3, 12), seed=5)
        ref = _train("fused", batches)
        got = _train("compiled", batches)
        _assert_traces_identical(ref, got, "partial-batch")
        stats = got[2].stats()
        assert stats["plans"] == 2
        assert stats["misses"] == 2 and stats["fallbacks"] == 0
        assert stats["hits"] == len(batches) - 2

    def test_plan_cap_falls_back_eagerly(self):
        executor = StepExecutor()
        executor.MAX_PLANS = 0
        batches = _batches(3)
        ref = _train("fused", batches)
        got = _train("compiled", batches, executor=executor)
        _assert_traces_identical(ref, got, "plan-cap")
        stats = executor.stats()
        assert stats["fallbacks"] == len(batches)
        assert stats["plans"] == 0 and stats["hits"] == 0

    def test_eager_modes_pass_through(self):
        executor = StepExecutor()
        _train("fused", _batches(3), executor=executor)
        stats = executor.stats()
        assert (stats["hits"], stats["misses"], stats["fallbacks"]) == (0, 0, 0)


class TestHooksAndRelease:
    def test_grad_hooks_fire_with_final_grads(self):
        # The comms engine overlaps reduction with backward via grad
        # hooks; replay must fire them once per step, in the same leaf
        # order as eager, with the finalized gradient bits.
        def run(mode):
            order, grads = [], []
            with use_kernel_mode(mode):
                params = _mlp_params()
                for i, p in enumerate(params):
                    def hook(node, i=i):
                        order.append(i)
                        grads.append(node.grad.copy())
                    p.register_grad_hook(hook)
                execu = StepExecutor()
                for batch in _batches(3):
                    execu.step(lambda: _mlp_loss(params, batch),
                               pre_backward=lambda: _zero_grads(params))
                eager_grads = tuple(p.grad.copy() for p in params)
            return order, grads, eager_grads

        ref_order, ref_grads, ref_final = run("fused")
        got_order, got_grads, got_final = run("compiled")
        assert got_order == ref_order
        assert len(got_grads) == len(ref_grads)
        for r, g in zip(ref_grads, got_grads):
            assert np.array_equal(r, g)
        for r, g in zip(ref_final, got_final):
            assert np.array_equal(r, g)

    @pytest.mark.parametrize("release", [True, False])
    def test_release_tape(self, release):
        executor = StepExecutor(release_tape=release)
        with use_kernel_mode("compiled"):
            params = _mlp_params()
            for batch in _batches(2):
                loss = executor.step(lambda: _mlp_loss(params, batch),
                                     pre_backward=lambda: _zero_grads(params))
        if release:
            # Both the miss (compile) and hit (replay) paths sever the
            # traversed graph so intermediates free immediately.
            assert loss._backward is None and loss._prev == ()
        else:
            assert loss._prev != ()


class TestStepBenchPayload:
    def test_smoke_payload_and_gate(self):
        from repro.framework.microbench import (
            STEP_BENCH_SCHEMA,
            bench_step,
            gate_step_failures,
        )

        payload = bench_step(smoke=True, repeats=2, warmup=1, identity_steps=3)
        assert payload["schema"] == STEP_BENCH_SCHEMA
        assert payload["checks"]["bit_identical"] is True
        assert payload["checks"]["fallbacks"] == 0
        assert payload["checks"]["hit_rate_after_first"] == 1.0
        for wl in payload["workloads"].values():
            assert wl["bit_identical"] is True
            assert wl["executor"]["plans"] >= 1
        # Timing on a shared test host is noise: gate only the
        # mechanism invariants, exactly as the CI smoke job does.
        assert gate_step_failures(payload, min_speedup=None) == []
        doctored = {
            **payload,
            "checks": {**payload["checks"], "fallbacks": 1},
            "workloads": {
                name: {**wl, "bit_identical": False}
                for name, wl in payload["workloads"].items()
            },
        }
        failures = gate_step_failures(doctored, min_speedup=None)
        assert any("bit-identical" in f for f in failures)
        assert any("fallback" in f for f in failures)
