"""Fixtures shared across the test tree."""

from __future__ import annotations

import contextlib

import pytest

from repro.framework import conv, fused
from repro.models import minigo, ncf

# Every fused implementation, by name, in every module that binds it.  The
# models bind the array functions their no-graph entry points are wired
# over, which ``fused_path`` (the gate) keeps them from reaching here.
_FUSED_PATHS = {
    "_conv2d_fused": (conv, fused),
    "_linear_fused": (fused,),
    "_normalize_fused": (fused,),
    "_lstm_cell_fused": (fused,),
    "_attention_fused": (fused,),
    "conv2d_array": (minigo,),
    "normalize_array": (minigo,),
    "linear_array": (minigo, ncf),
}


def _unreachable(name: str):
    def fused_path(*args, **kwargs):
        raise AssertionError(f"{name} ran under reference_kernels")

    return fused_path


@pytest.fixture
def reference_kernels(monkeypatch):
    """A context in which every kernel runs its reference composition.

    The dtype gate answers ``None``, so each kernel takes the fallback that
    a mixed-dtype call takes in production, and each fused implementation
    raises: a call site that bypasses the gate fails instead of comparing
    the fused path with itself.  ``active(False)`` changes nothing, for
    tests that run one body on both paths.
    """

    @contextlib.contextmanager
    def active(enabled: bool = True):
        if not enabled:
            yield
            return
        with monkeypatch.context() as patch:
            for module in (conv, fused):
                patch.setattr(module, "_uniform_float_dtype", lambda *operands: None)
            for name, modules in _FUSED_PATHS.items():
                for module in modules:
                    patch.setattr(module, name, _unreachable(name))
            yield

    return active
