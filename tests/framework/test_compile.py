"""``StepExecutor.step`` is the eager training-step idiom as one call."""

from __future__ import annotations

import numpy as np
import pytest

from repro.framework import Parameter, Tensor
from repro.framework.compile import StepExecutor


def _params():
    rng = np.random.default_rng(0)
    return [Parameter((rng.normal(size=shape) * 0.2).astype(np.float32))
            for shape in ((6, 5), (6,))]


@pytest.mark.parametrize("seeded", [False, True])
def test_step_is_forward_pre_backward_backward(seeded, monkeypatch):
    rng = np.random.default_rng(1)
    batch = rng.normal(size=(4, 5)).astype(np.float32)
    seed = rng.normal(size=(4, 6)).astype(np.float32) if seeded else None
    backward = Tensor.backward

    def run(step):
        params = _params()
        for p in params:  # a stale gradient pre_backward must clear
            p.grad = np.ones_like(p.data)
        calls = []

        def forward():
            calls.append("forward")
            w, b = params
            out = (Tensor(batch) @ w.T + b).tanh()
            return out if seeded else out.mean()

        def pre_backward():
            calls.append("pre_backward")
            for p in params:
                p.grad = None

        def counted_backward(self, *args, **kwargs):
            calls.append("backward")
            return backward(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "backward", counted_backward)
        out = step(forward, pre_backward)
        return calls, out, [p.grad for p in params]

    def eager(forward, pre_backward):
        out = forward()
        pre_backward()
        out.backward(seed, release_tape=True)
        return out

    executor = StepExecutor()
    ref_calls, ref_out, ref_grads = run(eager)
    calls, out, grads = run(
        lambda forward, pre: executor.step(forward, seed, pre_backward=pre))
    assert calls == ref_calls == ["forward", "pre_backward", "backward"]
    assert np.array_equal(out.data, ref_out.data)
    assert all(np.array_equal(a, c) for a, c in zip(ref_grads, grads))
    assert out._prev == () == ref_out._prev

