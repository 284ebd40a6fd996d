"""Micro-benchmarks for the framework hot path (``repro bench-kernels``).

DAWNBench-style timing breakdowns argue that end-to-end numbers need
per-kernel decompositions to be actionable; this module times the kernels
the §3.2.1 timed region actually spends its wall clock in — conv2d
forward+backward at two sizes, the fused linear, the LSTM cell and
multi-head attention — under the active kernel mode *and* under ``naive``,
so every report carries its own baseline.  Only code that reads the kernel
mode has a row: anything else would compare ``naive`` with itself.

Each benchmark is a closure that runs one full forward+backward; timing
takes the *minimum* over repeats after a warmup, the standard micro-bench
estimator for the noise-free cost.
Arena statistics are reset after warmup, so the reported hit rate and
bytes-allocated are steady-state numbers: a healthy arena shows a hit rate
near 1.0 and zero steady-state allocation.

The same closures double as the bit-identity oracle: ``--smoke`` (used in
CI) re-runs every kernel in ``naive`` vs the active mode and fails if any
output or gradient differs by even one bit, or if the steady-state conv
hit rate drops below 90%.
"""

from __future__ import annotations

import time
from typing import Any, Callable

import numpy as np

from .attention import attention_bias, causal_mask
from .config import kernel_mode, use_kernel_mode
from .fused import attention, conv2d_bias_relu, linear_bias_act, lstm_cell
from .module import Parameter
from .optim import SGD
from .tensor import Tensor
from .workspace import arena

__all__ = ["bench_kernels", "gate_failures", "BENCH_SCHEMA",
           "bench_profile", "gate_profile_failures", "PROFILE_BENCH_SCHEMA"]

BENCH_SCHEMA = "repro.bench_kernels.v1"
PROFILE_BENCH_SCHEMA = "repro.bench_profile.v1"

# A "step" returns the arrays that must be bit-identical across modes.
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


def _conv_step(rng: np.random.Generator,
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
        out = conv2d_bias_relu(x, w, b, stride=1, pad=1)
        if g0 is None:
            g0 = rng.standard_normal(out.shape).astype(np.float32)
        out.backward(g0)
        return out.data, x.grad, w.grad, b.grad

    return step


def _conv_resnet_step(rng: np.random.Generator) -> StepFn:
    """The suite's dominant conv (ResNet stage 1): a 9.4 MB patch matrix.

    ``_conv_step``'s 590 KB one fits in L2, so it times arithmetic; this
    one times the data movement the end-to-end ledger is bound by.
    """
    return _conv_step(rng, shape=(64, 16, 16, 16))


def _linear_step(rng: np.random.Generator) -> StepFn:
    x0 = rng.standard_normal((128, 256)).astype(np.float32)
    w0 = (rng.standard_normal((256, 256)) * 0.05).astype(np.float32)
    b0 = rng.standard_normal(256).astype(np.float32)
    g0 = rng.standard_normal((128, 256)).astype(np.float32)

    def step() -> tuple[np.ndarray, ...]:
        x = Tensor(x0, requires_grad=True)
        w = Parameter(w0)
        b = Parameter(b0)
        out = linear_bias_act(x, w, b, act="relu")
        out.backward(g0)
        return out.data, x.grad, w.grad, b.grad

    return step


def _lstm_cell_step(rng: np.random.Generator) -> StepFn:
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
        state = lstm_cell(x[0], h, c, w_x, w_h, b)
        out, cell = lstm_cell(x[1], *state, w_x, w_h, b, mask)
        (out + cell).backward(g0)
        return out.data, cell.data, x.grad, h.grad, w_x.grad, w_h.grad, b.grad

    return step


def _attention_step(rng: np.random.Generator) -> StepFn:
    """Causal self-attention at the Transformer's training shape: a batch of
    32 sentences of 16 tokens, ``d_model`` 64 in 4 heads, additive mask."""
    n, t, d, heads = 32, 16, 64, 4
    q0, k0, v0, g0 = (rng.standard_normal((n, t, d)).astype(np.float32) for _ in range(4))
    bias = attention_bias(causal_mask(t))[None, None]
    scale = 1.0 / float(np.sqrt(d // heads))

    def step() -> tuple[np.ndarray, ...]:
        q, k, v = (Tensor(a, requires_grad=True) for a in (q0, k0, v0))
        out = attention(q, k, v, bias, scale, heads)
        out.backward(g0)
        return out.data, q.grad, k.grad, v.grad

    return step


_KERNELS: dict[str, Callable[[np.random.Generator], StepFn]] = {
    "conv2d_fwd_bwd": _conv_step,
    "conv2d_resnet_fwd_bwd": _conv_resnet_step,
    "linear_fwd_bwd": _linear_step,
    "lstm_cell_fwd_bwd": _lstm_cell_step,
    "attention_fwd_bwd": _attention_step,
}


def _bit_identical(a: tuple[np.ndarray, ...], b: tuple[np.ndarray, ...]) -> bool:
    return len(a) == len(b) and all(
        x.shape == y.shape and x.dtype == y.dtype and np.array_equal(x, y)
        for x, y in zip(a, b)
    )


def bench_kernels(mode: str | None = None, *, smoke: bool = False,
                  repeats: int | None = None, warmup: int | None = None,
                  seed: int = 0) -> dict[str, Any]:
    """Run every kernel micro-benchmark; return the BENCH_kernels payload.

    ``mode`` defaults to the active kernel mode.  Each kernel is timed
    under ``naive`` (the baseline) and under ``mode``, and checked for
    bit-identical outputs/gradients between the two.  Steady-state arena
    stats come from the conv loop with counters reset after warmup.
    """
    mode = mode or kernel_mode()
    if repeats is None:
        repeats = 5 if smoke else 30
    if warmup is None:
        warmup = 2 if smoke else 5

    kernels: dict[str, Any] = {}
    for name, factory in _KERNELS.items():
        rng = np.random.default_rng(seed)
        step = factory(rng)

        with use_kernel_mode("naive"):
            reference = step()
            naive_ns = _time_ns(step, repeats, warmup)

        with use_kernel_mode(mode):
            candidate = step()
            identical = _bit_identical(reference, candidate)
            ws = arena()
            is_conv = name == "conv2d_fwd_bwd"
            if is_conv:
                for _ in range(warmup):
                    step()
                ws.reset_stats()  # steady state: the pool is warm
            current_ns = _time_ns(step, repeats, 0 if is_conv else warmup)
            conv_arena = ws.stats() if is_conv else None

        entry: dict[str, Any] = {
            "naive_ns_per_op": naive_ns,
            "ns_per_op": current_ns,
            "speedup": naive_ns / current_ns if current_ns else float("inf"),
            "bit_identical": identical,
        }
        if conv_arena is not None:
            entry["arena"] = conv_arena
        kernels[name] = entry

    conv_stats = kernels["conv2d_fwd_bwd"]["arena"]
    payload: dict[str, Any] = {
        "schema": BENCH_SCHEMA,
        "kernel_mode": mode,
        "smoke": smoke,
        "repeats": repeats,
        "warmup": warmup,
        "kernels": kernels,
        "arena": {
            "hit_rate": conv_stats["hit_rate"],
            "hits": conv_stats["hits"],
            "misses": conv_stats["misses"],
            "steady_state_bytes_allocated": conv_stats["bytes_allocated"],
            "pooled_bytes": conv_stats["pooled_bytes"],
            "live_borrows": conv_stats["live"],
        },
        "checks": {
            "bit_identical": all(k["bit_identical"] for k in kernels.values()),
            "conv_speedup": kernels["conv2d_fwd_bwd"]["speedup"],
        },
    }
    return payload


def gate_failures(payload: dict[str, Any], *, min_hit_rate: float = 0.9,
                  min_conv_speedup: float | None = None) -> list[str]:
    """CI gates over a bench payload; returns human-readable failures.

    The smoke job enforces bit-identity and the steady-state arena hit
    rate; ``min_conv_speedup`` is optional because wall-clock ratios are
    machine-dependent in a way correctness checks are not.
    """
    failures = []
    for name, entry in payload["kernels"].items():
        if not entry["bit_identical"]:
            failures.append(
                f"{name}: {payload['kernel_mode']} mode diverges from the naive reference"
            )
    hit_rate = payload["arena"]["hit_rate"]
    if hit_rate < min_hit_rate:
        failures.append(
            f"steady-state arena hit rate {hit_rate:.3f} < {min_hit_rate:.2f} "
            "on the conv loop"
        )
    if min_conv_speedup is not None:
        speedup = payload["checks"]["conv_speedup"]
        if speedup < min_conv_speedup:
            failures.append(
                f"conv2d fwd+bwd speedup {speedup:.2f}x < {min_conv_speedup:.2f}x"
            )
    return failures


# -- profiler overhead bench (``repro bench-profile``) -----------------------
#
# The op profiler's acceptance criterion is a *cost* bound, not a speed
# bound: REPRO_PROFILE=off must be free, sampled mode must stay under a
# few percent of a representative training step.  This harness times the
# same conv+linear+SGD step loop four ways — no telemetry at all, then
# under an active Telemetry session in each profiler mode — and reports
# the overhead ratios, plus the op profile the full-mode run recorded.


def _profile_workload(seed: int, steps: int):
    """A deterministic mini training loop exercising every profiled op.

    Returns ``(loop, params)``: calling ``loop(step_cb)`` runs ``steps``
    iterations of conv fwd+bwd, linear fwd+bwd, and an SGD update
    (invoking ``step_cb()`` first each iteration, where the caller hooks
    the profiler's sampling-window boundary); ``params`` are the live
    parameters, for bit-identity checks across profiler modes.
    """
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal((4, 3, 8, 8)).astype(np.float32)
    g_conv = rng.standard_normal((4, 8, 8, 8)).astype(np.float32)
    y0 = rng.standard_normal((32, 64)).astype(np.float32)
    g_lin = rng.standard_normal((32, 64)).astype(np.float32)
    wc = Parameter((rng.standard_normal((8, 3, 3, 3)) * 0.1).astype(np.float32))
    bc = Parameter(rng.standard_normal(8).astype(np.float32))
    wl = Parameter((rng.standard_normal((64, 64)) * 0.05).astype(np.float32))
    bl = Parameter(rng.standard_normal(64).astype(np.float32))
    params = [wc, bc, wl, bl]
    opt = SGD(params, lr=1e-3, momentum=0.9)

    def loop(step_cb=None) -> None:
        for _ in range(steps):
            if step_cb is not None:
                step_cb()
            opt.zero_grad()
            x = Tensor(x0, requires_grad=True)
            out = conv2d_bias_relu(x, wc, bc, stride=1, pad=1)
            out.backward(g_conv)
            y = Tensor(y0, requires_grad=True)
            out2 = linear_bias_act(y, wl, bl, act="relu")
            out2.backward(g_lin)
            opt.step()

    return loop, params


def _time_profile_once(mode: str | None, steps: int, sample_every: int,
                       seed: int):
    """One timed pass of the workload under one profiler mode.

    ``mode=None`` is the true baseline: no telemetry session at all (the
    ambient disabled context).  The workload is rebuilt from ``seed`` so
    every sample times identical work.  Returns
    ``(wall_ns, final_params, op_profile_snapshot)``.
    """
    from ..telemetry import Telemetry

    loop, params = _profile_workload(seed, steps)
    snapshot: dict[str, Any] = {}
    if mode is None:
        t0 = time.perf_counter_ns()
        loop()
        dt = time.perf_counter_ns() - t0
    else:
        tele = Telemetry(profile=mode, profile_every=sample_every)
        with tele.activate():
            t0 = time.perf_counter_ns()
            loop(step_cb=tele.profiler.step)
            dt = time.perf_counter_ns() - t0
        snapshot = tele.profiler.snapshot()
    return float(dt), tuple(p.data.copy() for p in params), snapshot


def bench_profile(*, steps: int | None = None, repeats: int | None = None,
                  sample_every: int = 4, smoke: bool = False,
                  seed: int = 0) -> dict[str, Any]:
    """Measure profiler overhead per mode; return the BENCH_profile payload.

    Overheads are reported relative to the no-telemetry baseline and
    floored at zero (min-over-repeats already strips most scheduler
    noise; a "negative overhead" is noise, not a speedup).  Repeats are
    interleaved round-robin across the four configurations — timing each
    configuration's repeats as a block would let machine drift (thermal
    ramps, a neighbour process waking up) masquerade as per-mode
    overhead, since every ratio compares blocks measured at different
    moments.
    """
    # Loops must be long enough to time: at ~0.3ms/step, 8-step loops sit
    # at scheduler-jitter granularity and min-over-repeats never
    # converges — overhead ratios then swing tens of percent on a busy
    # host.  32 steps (~10ms/loop) is the floor for a stable ratio.
    if steps is None:
        steps = 32 if smoke else 64
    if repeats is None:
        repeats = 10

    # Untimed warmup: the first configuration timed would otherwise absorb
    # all one-time costs (arena pool fill, BLAS thread spin-up, frequency
    # ramp) and bias every overhead ratio low.
    loop, _ = _profile_workload(seed, steps)
    loop()

    # Rotate the within-round order every round: with a fixed order,
    # periodic host activity (a poller waking every ~N ms) lands on the
    # same slot each round and reads as per-mode overhead.
    configs: tuple[str | None, ...] = (None, "off", "sampled", "full")
    rounds: list[dict[str | None, float]] = []
    finals: dict[str | None, Any] = {}
    snaps: dict[str | None, dict[str, Any]] = {}
    for r in range(repeats):
        row: dict[str | None, float] = {}
        for i in range(len(configs)):
            cfg = configs[(i + r) % len(configs)]
            dt, final, snap = _time_profile_once(cfg, steps, sample_every,
                                                 seed)
            row[cfg] = dt
            finals[cfg] = final
            snaps[cfg] = snap
        rounds.append(row)

    # Overhead is the lower quartile over rounds of the SAME-round
    # ratio, not a ratio of independent mins: baseline and mode samples
    # taken ~ms apart share whatever contention the host had that round,
    # so each ratio mostly cancels it.  Residual contention bursts land
    # on single samples and only ever INFLATE a ratio, so a low quantile
    # discards them; the min is degenerate (some round always has the
    # mode luckier than its baseline) but Q1 needs a quarter of the
    # rounds lucky to be fooled.  A real regression shifts the whole
    # distribution, Q1 included.  (Two separately-minimized times are
    # worst of all: their quotient swings with whichever config got the
    # one quiet round.)
    base_ns = min(row[None] for row in rounds)
    base_params = finals[None]
    timings = {"baseline": base_ns}
    overheads: dict[str, float] = {}
    profiles: dict[str, dict[str, Any]] = {}
    identical: dict[str, bool] = {}
    for mode in ("off", "sampled", "full"):
        timings[mode] = min(row[mode] for row in rounds)
        ratios = sorted(row[mode] / row[None] for row in rounds
                        if row[None] > 0)
        ratio = ratios[len(ratios) // 4] if ratios else 1.0
        overheads[mode] = max(ratio - 1.0, 0.0)
        profiles[mode] = snaps[mode]
        identical[mode] = _bit_identical(base_params, finals[mode])

    full_ops = profiles["full"].get("ops", {})
    ops_recorded = sum(len(ops) for ops in full_ops.values())
    return {
        "schema": PROFILE_BENCH_SCHEMA,
        "smoke": smoke,
        "steps": steps,
        "repeats": repeats,
        "sample_every": sample_every,
        "timings_ns": timings,
        "checks": {
            # Distinct (phase, op) rows the full-mode run recorded: conv
            # and linear forward+backward plus the optimizer step = 5.
            "ops_recorded": ops_recorded,
            "off_overhead": overheads["off"],
            "sampled_overhead": overheads["sampled"],
            "full_overhead": overheads["full"],
            "bit_identical": all(identical.values()),
            "bit_identical_by_mode": identical,
        },
        "op_profile": profiles["full"],
    }


def gate_profile_failures(payload: dict[str, Any], *,
                          max_sampled_overhead: float = 0.05,
                          min_ops_recorded: int = 5) -> list[str]:
    """CI gates for the profile-smoke job.

    Sampled-mode overhead is the documented acceptance bound (< 5%);
    bit-identity and op coverage are correctness, gated unconditionally.
    Off-mode overhead is gated only via bench-diff's tolerance band — an
    absolute bound on a near-zero ratio would be all noise.
    """
    failures = []
    checks = payload["checks"]
    if not checks["bit_identical"]:
        bad = [m for m, ok in checks["bit_identical_by_mode"].items() if not ok]
        failures.append(f"profiler modes {bad} changed training results")
    if checks["ops_recorded"] < min_ops_recorded:
        failures.append(
            f"full-mode profile recorded {checks['ops_recorded']} op rows "
            f"< {min_ops_recorded} (instrumentation hole)")
    if checks["sampled_overhead"] > max_sampled_overhead:
        failures.append(
            f"sampled-mode overhead {checks['sampled_overhead']:.1%} > "
            f"{max_sampled_overhead:.0%} of the baseline step loop")
    return failures
