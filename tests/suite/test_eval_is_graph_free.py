"""Evaluation builds no autograd graph; a training step frees the one it builds.

A forward pass under grad mode links every output to its inputs through
backward closures that point back at their own result: reference cycles
that only the cyclic collector frees.  One evaluation of a detection
benchmark once left thousands of them holding tens of MB of activations,
so peak memory depended on when the collector happened to run.  With the
collector off, an evaluation must leave nothing for it to find, and so
must a training step: its backward releases the tape, and kernels drop
their scratch when they return, so a closure that kept a graph or its
scratch alive would show here.
"""

from __future__ import annotations

import gc

import pytest

from repro.suite import REGISTRY

from .test_dtype_closure import _Stop, _session


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_evaluate_leaves_no_cyclic_garbage(name):
    session = _session(name)
    gc.collect()
    gc.disable()
    try:
        session.evaluate()
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0, f"{name}: evaluate() left {found} cyclic objects"


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_step_leaves_no_cyclic_garbage(name):
    session = _session(name)
    executor = session.step_executor()
    real_step = executor.step
    found = []

    def one_step(*args, **kwargs):
        gc.collect()
        gc.disable()
        try:
            real_step(*args, **kwargs)
            found.append(gc.collect())
        finally:
            gc.enable()
        raise _Stop

    executor.step = one_step
    with pytest.raises(_Stop):
        session.run_epoch(0)
    assert found == [0], f"{name}: a training step left {found} cyclic objects"
