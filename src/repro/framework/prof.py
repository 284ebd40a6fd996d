"""Framework-side hooks into the op-level profiler.

The framework must stay importable without telemetry, so kernels never
import :mod:`repro.telemetry` directly.  This shim resolves the ambient
:class:`~repro.telemetry.opprof.OpProfiler` lazily, and provides the one
decorator kernels use:

    @profiled_op("conv2d")
    def conv2d(x, weight, ...): ...

While no profiling session is active (the default), the wrapper is one
global check and the call — cheap enough to leave on every kernel.  When
active, it times the forward call, estimates bytes moved from the tensor
operands, and wraps the backward closure of each graph node the op built so
the same op's backward cost is charged to the ``backward`` phase.  The
wrapped closure calls the original unchanged, so profiled runs stay
bit-identical.
"""

from __future__ import annotations

import functools
from time import perf_counter_ns

__all__ = ["profiled_op", "profiler", "SESSIONS"]

_CURRENT_PROFILER = None
# One entry per profiling session active in this process: ``Telemetry.activate``
# appends and pops (each atomic, so threads cannot lose one).  While it is
# empty no op can record, so a kernel skips the profiler lookup.
SESSIONS: list = []


def profiler():
    """The ambient :class:`OpProfiler` (lazy import, cached resolver)."""
    global _CURRENT_PROFILER
    if _CURRENT_PROFILER is None:
        from ..telemetry.context import current_profiler

        _CURRENT_PROFILER = current_profiler
    return _CURRENT_PROFILER()


def _results(out) -> tuple:
    return out if isinstance(out, tuple) else (out,)


def _operand_bytes(args, out) -> int:
    """Bytes touched by an op: tensor operands in, result(s) out."""
    total = 0
    for arg in (*_results(out), *args):
        data = getattr(arg, "data", None)
        if data is not None and hasattr(data, "nbytes"):
            total += data.nbytes
    return total


def _built_nodes(operands, out) -> list:
    """The graph nodes an op built: those reachable from its result(s)
    without passing through an operand.  One for most kernels; ``lstm_cell``
    builds up to five and returns two of them."""
    seen = {id(t) for t in operands}
    nodes, stack = [], list(_results(out))
    while stack:
        node = stack.pop()
        if id(node) in seen or getattr(node, "_backward", None) is None:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(node._prev)
    return nodes


def profiled_op(name: str):
    """Record ``fn``'s forward (and, for graph nodes, backward) cost."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not (SESSIONS and (prof := profiler()).active):
                return fn(*args, **kwargs)
            prof.begin()
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                prof.cancel()
                raise
            dt = perf_counter_ns() - t0
            nbytes = _operand_bytes(args, out)
            prof.end(name, dt, nbytes)
            for node in _built_nodes((*args, *kwargs.values()), out):
                def timed_backward(_bwd=node._backward, _prof=prof, _nbytes=nbytes):
                    # begin() before the closure so nested profiled ops
                    # charge as children (self-time stays double-count free).
                    _prof.begin()
                    b0 = perf_counter_ns()
                    try:
                        _bwd()
                    except BaseException:
                        _prof.cancel()
                        raise
                    _prof.end(name, perf_counter_ns() - b0, _nbytes,
                              phase="backward")

                node._backward = timed_backward
                nbytes = 0  # an op's traffic is charged once, to its first node
            return out

        return wrapper

    return decorate
