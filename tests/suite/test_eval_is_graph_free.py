"""Evaluation builds no autograd graph.

A forward pass under grad mode links every output to its inputs through
backward closures that point back at their own result: reference cycles
that only the cyclic collector frees.  One evaluation of a detection
benchmark once left thousands of them holding tens of MB of activations,
so peak memory depended on when the collector happened to run.  With the
collector off, an evaluation must leave nothing for it to find.
"""

from __future__ import annotations

import gc

import pytest

from repro.suite import REGISTRY

from .test_dtype_closure import _session


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_evaluate_leaves_no_cyclic_garbage(name):
    session = _session(name)
    try:
        gc.collect()
        gc.disable()
        try:
            session.evaluate()
            found = gc.collect()
        finally:
            gc.enable()
    finally:
        session.close()
    assert found == 0, f"{name}: evaluate() left {found} cyclic objects"
