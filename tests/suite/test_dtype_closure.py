"""Dtype closure: a float32 model builds a float32 graph, on the fast path.

One strongly typed NumPy scalar in a layer's arithmetic widens every tensor
downstream of it, and every kernel the wide tensors then reach sees mixed
dtypes and quietly runs its composed reference instead.  Nothing fails and
no output differs, so only a test that looks at the tensors themselves can
see it.  For each of the seven benchmarks this runs
one training step and one evaluation batch and checks every tensor built
and every kernel fallback counted on the way.  The entry points that run on
the kernels' array functions build no tensor, so their outputs are checked.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.framework import (
    MultiHeadAttention,
    Tensor,
    TransformerDecoderLayer,
)
from repro.suite import REGISTRY, create_benchmark
from repro.telemetry import Telemetry

# Self-play is the reinforcement benchmark's set-up for a step, not the step.
_FAST_HP = {"reinforcement": dict(games_per_iteration=1, mcts_simulations=2)}
# What a session's evaluate() calls once per batch, by model.
_EVAL_ENTRY_POINTS = ("greedy_decode", "detect", "score")
# Entry points that build no ``Tensor``: NCF's scores (evaluation) and
# MiniGo's self-play evaluations (the training step's set-up).
_ARRAY_ENTRY_POINTS = ("score", "evaluate")


class _Stop(Exception):
    """Raised by the wrappers below once the wanted steps / batches have run."""


def _stop_after_calls(owner, attr, calls=1):
    real = getattr(owner, attr)

    def counted(*args, **kwargs):
        nonlocal calls
        real(*args, **kwargs)
        calls -= 1
        if not calls:
            raise _Stop

    setattr(owner, attr, counted)


@pytest.fixture
def built_dtypes(monkeypatch):
    """Every dtype a ``Tensor`` is constructed with while the test runs."""
    seen: set[np.dtype] = set()
    init = Tensor.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        seen.add(self.data.dtype)

    monkeypatch.setattr(Tensor, "__init__", recording_init)
    return seen


def _record_output_dtypes(model, seen):
    """Note the dtype of each array entry point's (first) output in ``seen``."""
    for attr in _ARRAY_ENTRY_POINTS:
        if hasattr(model, attr):
            def recorded(*args, _real=getattr(model, attr), **kwargs):
                out = _real(*args, **kwargs)
                seen.add((out[0] if isinstance(out, tuple) else out).dtype)
                return out

            setattr(model, attr, recorded)


def _session(name):
    bench = create_benchmark(name)
    bench.prepare_data()
    hp = bench.spec.resolve_hyperparameters(_FAST_HP.get(name))
    return bench.create_session(seed=0, hyperparameters=hp)


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_step_and_eval_batch_stay_in_parameter_dtype(name, built_dtypes):
    session = _session(name)
    model = session.model
    widest = max(p.dtype.itemsize for p in model.parameters())
    assert widest == 4, "the suite's models are float32"
    built_dtypes.clear()  # what building the model constructed is not the graph
    outputs: set[np.dtype] = set()
    _record_output_dtypes(model, outputs)

    _stop_after_calls(session.step_executor(), "step")
    telemetry = Telemetry()
    with telemetry.activate():
        with pytest.raises(_Stop):
            session.run_epoch(0)
        # Installed after the step: a model without an eval entry point
        # stops at its first top-level forward, which training also calls.
        entry = next((a for a in _EVAL_ENTRY_POINTS if hasattr(model, a)), "forward")
        _stop_after_calls(model, entry)
        with pytest.raises(_Stop):
            session.evaluate()

    assert built_dtypes, "the hook saw no tensor"
    wide = sorted(str(dt) for dt in built_dtypes if dt.kind != "f" or dt.itemsize > widest)
    assert not wide, f"{name}: tensors of dtype {wide} in a float32 model"
    if any(hasattr(model, attr) for attr in _ARRAY_ENTRY_POINTS):
        assert outputs == {np.dtype(np.float32)}, f"{name}: entry points returned {outputs}"
    fallbacks = [k for k in telemetry.metrics.snapshot() if k.startswith("kernel_fallbacks")]
    assert not fallbacks, f"{name}: {fallbacks}"


def test_attention_keeps_float32():
    rng = np.random.default_rng(0)
    attn = MultiHeadAttention(16, 4, rng)
    x = Tensor(rng.normal(size=(2, 5, 16)).astype(np.float32), requires_grad=True)
    mask = np.tril(np.ones((5, 5), dtype=bool))[None, None]
    out = attn(x, x, x, mask=mask)
    assert out.dtype == np.float32
    out.backward(np.ones_like(out.data))
    assert x.grad.dtype == np.float32
    assert isinstance(attn.scale, float) and not isinstance(attn.scale, np.generic)


def test_decoder_layer_step_uses_the_layer_norm_kernel(built_dtypes):
    """A composed LayerNorm shows as its ``sqrt`` node; the kernel builds
    none.  (At the parent commit the float64 scores reached
    two of the three norms with mixed dtypes.)"""
    rng = np.random.default_rng(1)
    layer = TransformerDecoderLayer(16, 4, 32, rng)
    x = Tensor(rng.normal(size=(2, 5, 16)).astype(np.float32), requires_grad=True)
    memory = Tensor(rng.normal(size=(2, 7, 16)).astype(np.float32))
    sqrt_nodes = []
    real_sqrt = Tensor.sqrt

    def counting_sqrt(self):
        sqrt_nodes.append(self)
        return real_sqrt(self)

    telemetry = Telemetry()
    with telemetry.activate():
        Tensor.sqrt = counting_sqrt
        try:
            out = layer(x, memory, tgt_mask=np.tril(np.ones((5, 5), dtype=bool))[None, None])
            (out * out).mean().backward()
        finally:
            Tensor.sqrt = real_sqrt
    assert not sqrt_nodes
    assert built_dtypes == {np.dtype(np.float32)}
    assert not [k for k in telemetry.metrics.snapshot() if k.startswith("kernel_fallbacks")]
