"""Parameter initialization schemes.

The paper stresses (§3.1.1, §4.2.1) that the Closed division pins down
*parameter initialization* as part of workload equivalence; benchmarks in
this repo therefore name their initializers explicitly, and every scheme is
deterministic given the supplied generator.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "kaiming_normal",
    "kaiming_uniform",
    "xavier_uniform",
    "normal",
    "zeros",
    "ones",
]


def _fan(shape: tuple[int, ...]) -> tuple[int, int]:
    """Compute (fan_in, fan_out) for dense and conv weight shapes."""
    if len(shape) == 2:  # (out, in) linear
        return shape[1], shape[0]
    if len(shape) >= 3:  # (out_ch, in_ch, *kernel)
        receptive = int(np.prod(shape[2:]))
        return shape[1] * receptive, shape[0] * receptive
    return shape[0], shape[0]


def kaiming_normal(shape, rng: np.random.Generator, gain: float = np.sqrt(2.0)) -> np.ndarray:
    """He initialization for ReLU networks: ``std = gain / sqrt(fan_in)``."""
    fan_in, _ = _fan(tuple(shape))
    std = gain / np.sqrt(fan_in)
    return rng.normal(0.0, std, size=shape).astype(np.float32)


def kaiming_uniform(shape, rng: np.random.Generator, gain: float = np.sqrt(2.0)) -> np.ndarray:
    fan_in, _ = _fan(tuple(shape))
    bound = gain * np.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def xavier_uniform(shape, rng: np.random.Generator, gain: float = 1.0) -> np.ndarray:
    """Glorot initialization, appropriate for tanh/sigmoid/attention layers."""
    fan_in, fan_out = _fan(tuple(shape))
    bound = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def normal(shape, rng: np.random.Generator, std: float = 0.01, mean: float = 0.0) -> np.ndarray:
    return rng.normal(mean, std, size=shape).astype(np.float32)


def zeros(shape) -> np.ndarray:
    return np.zeros(shape, dtype=np.float32)


def ones(shape) -> np.ndarray:
    return np.ones(shape, dtype=np.float32)
