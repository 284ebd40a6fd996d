"""Micro-benchmarks for the framework hot path (``repro bench-kernels``).

DAWNBench-style timing breakdowns argue that end-to-end numbers need
per-kernel decompositions to be actionable; this module times the kernels
the §3.2.1 timed region actually spends its wall clock in — conv2d
forward+backward at two sizes and forward on one Go board, the fused
linear, the LSTM cell, multi-head attention and batch norm closing a
residual block — and, as each row's baseline, the ``_<op>_reference``
composition that kernel falls back to, so every report carries its own
baseline.  Every reference has a row (enforced by tests).

Each benchmark is a closure that runs one forward (+backward); timing
takes the *minimum* over repeats after a warmup, the standard micro-bench
estimator for the noise-free cost.

The same closures double as the bit-identity oracle: every kernel's
outputs and gradients are compared bit for bit with its reference's, and
``checks.bit_identical`` records the verdict.  The
report states facts and returns no verdict: ``repro bench-diff`` gates it
against the committed baseline (:mod:`repro.telemetry.regress`), where
``checks.bit_identical`` must match exactly and each speedup row keeps a
band.
"""

from __future__ import annotations

import time
from typing import Any, Callable

import numpy as np

from .attention import attention_bias, causal_mask
from .conv import _conv2d_reference, conv2d
from .fused import (_attention_reference, _conv2d_bias_relu_reference, _linear_reference,
                    _lstm_cell_reference, _normalize_reference, attention, conv2d_bias_relu,
                    linear_bias_act, lstm_cell, normalize)
from .module import Parameter
from .tensor import Tensor, no_grad

__all__ = ["bench_kernels", "BENCH_SCHEMA"]

BENCH_SCHEMA = "repro.bench_kernels.v1"

# A "step" returns the arrays in which a kernel must equal its reference.
StepFn = Callable[[], tuple[np.ndarray, ...]]


def _time_ns(step: StepFn, repeats: int, warmup: int) -> float:
    for _ in range(warmup):
        step()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        step()
        t1 = time.perf_counter_ns()
        best = min(best, float(t1 - t0))
    return best


def _conv_step(rng: np.random.Generator, op: Callable,
               shape: tuple[int, int, int, int] = (8, 8, 16, 16)) -> StepFn:
    x0 = rng.standard_normal(shape).astype(np.float32)
    w0 = (rng.standard_normal((16, shape[1], 3, 3)) * 0.1).astype(np.float32)
    b0 = rng.standard_normal(16).astype(np.float32)
    g0: np.ndarray | None = None

    def step() -> tuple[np.ndarray, ...]:
        nonlocal g0
        x = Tensor(x0, requires_grad=True)
        w = Parameter(w0)
        b = Parameter(b0)
        out = op(x, w, b, 1, 1)
        if g0 is None:
            g0 = rng.standard_normal(out.shape).astype(np.float32)
        out.backward(g0)
        return out.data, x.grad, w.grad, b.grad

    return step


def _conv_resnet_step(rng: np.random.Generator, op: Callable) -> StepFn:
    """The suite's dominant conv (ResNet stage 1): a 9.4 MB patch matrix.

    ``_conv_step``'s 590 KB one fits in L2, so it times arithmetic; this
    one times the data movement the end-to-end ledger is bound by.
    """
    return _conv_step(rng, op, shape=(64, 16, 16, 16))


def _conv_board_step(rng: np.random.Generator, op: Callable) -> StepFn:
    """A MiniGo tower conv on one board, forward only under ``no_grad``.

    Self-play evaluates one position per call, so this row times the
    per-call cost of the unfold, not arithmetic.
    """
    x0 = rng.standard_normal((1, 24, 5, 5)).astype(np.float32)
    w0 = (rng.standard_normal((24, 24, 3, 3)) * 0.1).astype(np.float32)

    def step() -> tuple[np.ndarray, ...]:
        with no_grad():
            return (op(Tensor(x0), Tensor(w0), None, 1, 1).data,)

    return step


def _linear_step(rng: np.random.Generator, op: Callable) -> StepFn:
    x0 = rng.standard_normal((128, 256)).astype(np.float32)
    w0 = (rng.standard_normal((256, 256)) * 0.05).astype(np.float32)
    b0 = rng.standard_normal(256).astype(np.float32)
    g0 = rng.standard_normal((128, 256)).astype(np.float32)

    def step() -> tuple[np.ndarray, ...]:
        x = Tensor(x0, requires_grad=True)
        w = Parameter(w0)
        b = Parameter(b0)
        out = op(x, w, b, "relu")
        out.backward(g0)
        return out.data, x.grad, w.grad, b.grad

    return step


def _lstm_cell_step(rng: np.random.Generator, op: Callable) -> StepFn:
    """Two chained LSTM steps at GNMT's width, the second over a padded batch."""
    n, e, hs = 32, 48, 64
    xs = rng.standard_normal((2, n, e)).astype(np.float32)
    h0 = rng.standard_normal((n, hs)).astype(np.float32)
    c0 = rng.standard_normal((n, hs)).astype(np.float32)
    wx0 = (rng.standard_normal((4 * hs, e)) * 0.1).astype(np.float32)
    wh0 = (rng.standard_normal((4 * hs, hs)) * 0.1).astype(np.float32)
    b0 = rng.standard_normal(4 * hs).astype(np.float32)
    g0 = rng.standard_normal((n, hs)).astype(np.float32)
    mask = (np.arange(n) % 4 != 0).astype(np.float32)[:, None]

    def step() -> tuple[np.ndarray, ...]:
        x = Tensor(xs, requires_grad=True)
        h, c = Tensor(h0, requires_grad=True), Tensor(c0)
        w_x, w_h, b = Parameter(wx0), Parameter(wh0), Parameter(b0)
        state = op(x[0], h, c, w_x, w_h, b, None)
        out, cell = op(x[1], *state, w_x, w_h, b, mask)
        (out + cell).backward(g0)
        return out.data, cell.data, x.grad, h.grad, w_x.grad, w_h.grad, b.grad

    return step


def _attention_step(rng: np.random.Generator, op: Callable) -> StepFn:
    """Causal self-attention at the Transformer's training shape: a batch of
    32 sentences of 16 tokens, ``d_model`` 64 in 4 heads, additive mask."""
    n, t, d, heads = 32, 16, 64, 4
    q0, k0, v0, g0 = (rng.standard_normal((n, t, d)).astype(np.float32) for _ in range(4))
    bias = attention_bias(causal_mask(t))[None, None]
    scale = 1.0 / float(np.sqrt(d // heads))

    def step() -> tuple[np.ndarray, ...]:
        q, k, v = (Tensor(a, requires_grad=True) for a in (q0, k0, v0))
        out = op(q, k, v, bias, scale, heads, None)
        out.backward(g0)
        return out.data, q.grad, k.grad, v.grad

    return step


def _normalize_step(rng: np.random.Generator, op: Callable, residual: bool) -> StepFn:
    """Training-mode batch norm → (+ skip) → ReLU at ResNet stage 1's shape,
    where the suite spends its batch-norm time."""
    shape = (64, 16, 16, 16)
    x0, s0, g0 = (rng.standard_normal(shape).astype(np.float32) for _ in range(3))
    gamma0 = rng.normal(1.0, 0.2, 16).astype(np.float32)
    beta0 = rng.normal(0.0, 0.2, 16).astype(np.float32)

    def step() -> tuple[np.ndarray, ...]:
        x = Tensor(x0, requires_grad=True)
        skip = Tensor(s0, requires_grad=True) if residual else None
        gamma, beta = Parameter(gamma0), Parameter(beta0)
        out = op(x, (0, 2, 3), gamma, beta, 1e-5, (1, 16, 1, 1), None, None,
                 residual=skip, act="relu")
        out.backward(g0)
        grads = (x.grad, gamma.grad, beta.grad) + ((skip.grad,) if residual else ())
        return (out.data, *grads)

    return step


# Per row: the step factory, the kernel it times and the kernel's reference.
_KERNELS: dict[str, tuple[Callable[..., StepFn], Callable, Callable]] = {
    "conv2d_fwd_bwd": (_conv_step, conv2d_bias_relu, _conv2d_bias_relu_reference),
    "conv2d_resnet_fwd_bwd": (_conv_resnet_step, conv2d_bias_relu,
                              _conv2d_bias_relu_reference),
    "conv2d_board_fwd": (_conv_board_step, conv2d, _conv2d_reference),
    "linear_fwd_bwd": (_linear_step, linear_bias_act, _linear_reference),
    "lstm_cell_fwd_bwd": (_lstm_cell_step, lstm_cell, _lstm_cell_reference),
    "attention_fwd_bwd": (_attention_step, attention, _attention_reference),
    "normalize_relu_fwd_bwd": (lambda rng, op: _normalize_step(rng, op, residual=False),
                               normalize, _normalize_reference),
    "normalize_residual_relu_fwd_bwd": (
        lambda rng, op: _normalize_step(rng, op, residual=True),
        normalize, _normalize_reference),
}


def _bit_identical(a: tuple[np.ndarray, ...], b: tuple[np.ndarray, ...]) -> bool:
    return len(a) == len(b) and all(
        x.shape == y.shape and x.dtype == y.dtype and np.array_equal(x, y)
        for x, y in zip(a, b)
    )


def bench_kernels(*, smoke: bool = False, repeats: int | None = None,
                  warmup: int | None = None, seed: int = 0) -> dict[str, Any]:
    """Run every kernel micro-benchmark; return the BENCH_kernels payload.

    Each kernel is timed beside its reference (the baseline, reported as
    ``naive_ns_per_op``) and checked for bit-identical outputs/gradients
    against it.
    """
    if repeats is None:
        repeats = 5 if smoke else 30
    if warmup is None:
        warmup = 2 if smoke else 5

    kernels: dict[str, Any] = {}
    for name, (factory, kernel, reference) in _KERNELS.items():
        baseline = factory(np.random.default_rng(seed), reference)
        step = factory(np.random.default_rng(seed), kernel)

        expected = baseline()
        naive_ns = _time_ns(baseline, repeats, warmup)
        identical = _bit_identical(expected, step())
        current_ns = _time_ns(step, repeats, warmup)

        kernels[name] = {
            "naive_ns_per_op": naive_ns,
            "ns_per_op": current_ns,
            "speedup": naive_ns / current_ns if current_ns else float("inf"),
            "bit_identical": identical,
        }

    return {
        "schema": BENCH_SCHEMA,
        "kernel_mode": "fused",
        "smoke": smoke,
        "repeats": repeats,
        "warmup": warmup,
        "kernels": kernels,
        "checks": {
            "bit_identical": all(k["bit_identical"] for k in kernels.values()),
        },
    }
