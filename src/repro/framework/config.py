"""Framework-wide kernel configuration: the ``REPRO_KERNEL_MODE`` switch.

The paper's §2.2.4 observation — math libraries win by choosing
mathematically-equivalent-but-faster algorithms — is made executable here.
Convolution and the kernels of :mod:`repro.framework.fused` (linear,
normalization, the LSTM cell, attention) consult :func:`kernel_mode` and
pick one of two bit-identical implementations; nothing else reads it:

- ``naive`` — the straightforward reference path: every call allocates its
  own scratch and every layer is the composed graph of primitives.  The
  gold standard ``fused`` is checked against, to the bit.
- ``fused`` — scratch buffers are borrowed from the per-thread
  :class:`~repro.framework.workspace.Workspace` arena, GEMMs write into
  reused outputs (``out=``), and fused kernels (``conv2d_bias_relu``,
  ``linear_bias_act``, ``normalize`` behind batch and layer norm,
  ``lstm_cell``, ``attention``) collapse many autograd nodes into one or a few.

The mode is process-wide (read once from the environment, overridable with
:func:`set_kernel_mode` / :func:`use_kernel_mode`), not per-tensor: the
Closed division requires one declared configuration per run.
"""

from __future__ import annotations

import contextlib
import os

__all__ = ["KERNEL_MODES", "kernel_mode", "set_kernel_mode", "use_kernel_mode"]

KERNEL_MODES = ("naive", "fused")

_DEFAULT_MODE = "fused"


def _validated(mode: str) -> str:
    if mode not in KERNEL_MODES:
        raise ValueError(
            f"REPRO_KERNEL_MODE must be one of {KERNEL_MODES}, got {mode!r}")
    return mode


_MODE = _validated(os.environ.get("REPRO_KERNEL_MODE", _DEFAULT_MODE))


def kernel_mode() -> str:
    """The active kernel mode (``naive`` | ``fused``)."""
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
