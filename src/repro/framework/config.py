"""Framework-wide kernel configuration: the ``REPRO_KERNEL_MODE`` switch.

The paper's §2.2.4 observation — math libraries win by choosing
mathematically-equivalent-but-faster algorithms — is made executable here.
Every hot kernel (convolution, pooling, linear, normalization, the LSTM
cell, attention, the SGD update, and the ``DataLoader`` batch assembly)
consults :func:`kernel_mode` and picks one of four bit-identical
implementations:

- ``naive`` — the straightforward reference path: every call allocates its
  own scratch (the original seed behaviour).  Always available as the
  gold standard the other three modes are checked against.
- ``reuse`` — identical math, but scratch buffers are borrowed from the
  per-thread :class:`~repro.framework.workspace.Workspace` arena and GEMMs
  write into reused outputs (``out=``).  Values are bit-identical to
  ``naive``.
- ``fused`` — ``reuse`` plus fused kernels (``conv2d_bias_relu``,
  ``linear_bias_act``, ``normalize`` behind batch and layer norm,
  ``lstm_cell``, ``attention``, the in-place SGD/momentum update) that
  collapse many autograd nodes into one or a few.  Still bit-identical.
- ``compiled`` — ``fused`` plus whole-step graph capture and compiled
  replay (see :mod:`repro.framework.compile`): training steps driven
  through a :class:`~repro.framework.compile.StepExecutor` fingerprint the
  autograd tape once, then replay a pre-resolved plan with liveness-planned
  gradient storage and automatically fused elementwise backward chains.
  Still bit-identical; non-matching steps fall back to eager replay.

The mode is process-wide (read once from the environment, overridable with
:func:`set_kernel_mode` / :func:`use_kernel_mode`), not per-tensor: the
Closed division requires one declared configuration per run.
"""

from __future__ import annotations

import contextlib
import os

__all__ = ["KERNEL_MODES", "kernel_mode", "set_kernel_mode", "use_kernel_mode"]

KERNEL_MODES = ("naive", "reuse", "fused", "compiled")

_DEFAULT_MODE = "fused"


def _validated(mode: str) -> str:
    if mode not in KERNEL_MODES:
        raise ValueError(f"kernel mode must be one of {KERNEL_MODES}, got {mode!r}")
    return mode


_MODE = _validated(os.environ.get("REPRO_KERNEL_MODE", _DEFAULT_MODE))


def kernel_mode() -> str:
    """The active kernel mode (``naive`` | ``reuse`` | ``fused`` | ``compiled``)."""
    return _MODE


def set_kernel_mode(mode: str) -> str:
    """Set the process-wide kernel mode; returns the previous mode."""
    global _MODE
    previous = _MODE
    _MODE = _validated(mode)
    return previous


@contextlib.contextmanager
def use_kernel_mode(mode: str):
    """Temporarily switch kernel mode for the enclosed extent (tests, benches)."""
    previous = set_kernel_mode(mode)
    try:
        yield mode
    finally:
        set_kernel_mode(previous)
