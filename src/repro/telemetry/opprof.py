"""Op-level profiling: where the wall-clock goes *inside* a step.

The paper's §4.1 log and the DAWNBench decomposition answer "which phase
was slow" (init vs. epochs vs. eval); this module answers the next
question down — which *op* — by recording per-op call counts, wall time,
and bytes moved for forward and backward passes, per phase.

Three moving parts:

- :class:`OpProfiler` — the recorder.  One lives on every
  :class:`~repro.telemetry.context.Telemetry` session; kernels reach it
  through :func:`current_profiler` (via the tiny shim in
  :mod:`repro.framework.prof`, which keeps the framework → telemetry
  dependency lazy).  ``REPRO_PROFILE`` is an on/off switch:

  - ``off`` (default) — ``active`` is permanently False and every probe
    collapses to one attribute check; numerics are untouched, so runs
    are bit-identical to an unprofiled build.
  - ``full`` — every op call of the session is recorded, from model
    creation to the last eval.  Numerics are untouched here too.

- **Self vs. total time.**  Profiled ops nest (a fused linear records a
  GEMM inside itself when fusion is off), so the recorder keeps a span
  stack and charges child time against the parent: ``self_ns`` sums to
  the true profiled wall-clock with no double counting, while
  ``total_ns`` stays the inclusive cost callers observe.

- **Memory accounting.**  When profiling is on, the Telemetry session
  installs :meth:`OpProfiler.note_alloc` as the framework's tensor
  allocation tracker, so each phase reports tensor bytes constructed.

The serializable aggregate (:func:`OpProfiler.snapshot`) is a plain dict
with ``schema == "repro.op_profile.v1"``; it rides on
:class:`~repro.telemetry.profile.RunTelemetry` and round-trips through
saved run artifacts, which is what ``repro profile <run>`` renders.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Iterable

__all__ = ["OpProfiler", "NULL_OP_SPAN", "OP_PROFILE_SCHEMA", "PROFILE_MODES",
           "profile_mode_from_env", "merge_op_profiles", "render_op_profile"]

OP_PROFILE_SCHEMA = "repro.op_profile.v1"
PROFILE_MODES = ("off", "full")

_ENV_MODE = "REPRO_PROFILE"


def profile_mode_from_env() -> str:
    """The validated ``REPRO_PROFILE`` value (default ``off``)."""
    mode = os.environ.get(_ENV_MODE, "off").strip().lower() or "off"
    if mode not in PROFILE_MODES:
        raise ValueError(
            f"{_ENV_MODE} must be one of {PROFILE_MODES}, got {mode!r}")
    return mode


class _NullOpSpan:
    """Shared no-op stand-in returned when the profiler is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullOpSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def add_bytes(self, nbytes: int) -> None:
        return None


NULL_OP_SPAN = _NullOpSpan()


class _OpSpan:
    """Times one explicit op section (optimizer update, all-reduce)."""

    __slots__ = ("_prof", "_name", "_phase", "_nbytes", "_t0")

    def __init__(self, prof: "OpProfiler", name: str, phase: str | None,
                 nbytes: int):
        self._prof = prof
        self._name = name
        self._phase = phase
        self._nbytes = nbytes
        self._t0 = 0

    def add_bytes(self, nbytes: int) -> None:
        self._nbytes += int(nbytes)

    def __enter__(self) -> "_OpSpan":
        self._prof.begin()
        self._t0 = self._prof.clock_ns()
        return self

    def __exit__(self, exc_type, *exc) -> None:
        dt = self._prof.clock_ns() - self._t0
        if exc_type is not None:
            self._prof.cancel()
            return
        self._prof.end(self._name, dt, self._nbytes, phase=self._phase)


class OpProfiler:
    """Per-op wall-time/bytes recorder.

    ``active`` is the one flag hot paths check: False collapses every
    probe to a no-op.  ``phase`` is the bucket forward-path records land
    in; :meth:`~repro.framework.tensor.Tensor.backward` flips it to
    ``backward`` for the extent of a backward pass, and explicit sites
    pass their own (``update`` for the optimizer, ``comms`` for the
    all-reduce).
    """

    __slots__ = ("mode", "active", "phase", "clock_ns", "_ops", "_mem",
                 "_stack")

    def __init__(self, mode: str | None = None, enabled: bool = True,
                 clock_ns: Callable[[], int] | None = None):
        if mode is None:
            mode = profile_mode_from_env() if enabled else "off"
        if mode not in PROFILE_MODES:
            raise ValueError(f"profile mode must be one of {PROFILE_MODES}, "
                             f"got {mode!r}")
        if not enabled:
            mode = "off"
        self.mode = mode
        self.clock_ns = clock_ns or time.perf_counter_ns
        self.active = mode != "off"
        self.phase = "forward"
        # (phase, op) -> [calls, total_ns, self_ns, bytes_moved]
        self._ops: dict[tuple[str, str], list[int]] = {}
        # phase -> {"tensor_allocs": n, "tensor_bytes": n}
        self._mem: dict[str, dict[str, int]] = {}
        self._stack: list[int] = []  # child-time accumulators (ns)

    # -- recording -----------------------------------------------------------
    def begin(self) -> None:
        """Open a nesting level (pair with :meth:`end` or :meth:`cancel`)."""
        self._stack.append(0)

    def cancel(self) -> None:
        """Abandon the innermost open level (op raised; record nothing)."""
        if self._stack:
            self._stack.pop()

    def end(self, name: str, total_ns: int, nbytes: int = 0,
            phase: str | None = None) -> None:
        """Close the innermost level and record the op."""
        child_ns = self._stack.pop() if self._stack else 0
        if self._stack:
            self._stack[-1] += total_ns
        key = ((phase or self.phase), name)
        entry = self._ops.get(key)
        if entry is None:
            self._ops[key] = entry = [0, 0, 0, 0]
        entry[0] += 1
        entry[1] += total_ns
        entry[2] += max(total_ns - child_ns, 0)
        entry[3] += int(nbytes)

    def op(self, name: str, phase: str | None = None, nbytes: int = 0):
        """Context manager timing an explicit section; no-op when inactive."""
        if not self.active:
            return NULL_OP_SPAN
        return _OpSpan(self, name, phase, nbytes)

    # -- memory --------------------------------------------------------------
    def note_alloc(self, nbytes: int) -> None:
        """Tensor-construction hook (installed by ``Telemetry.activate``)."""
        if not self.active:
            return
        bucket = self._mem.get(self.phase)
        if bucket is None:
            self._mem[self.phase] = bucket = {"tensor_allocs": 0,
                                              "tensor_bytes": 0}
        bucket["tensor_allocs"] += 1
        bucket["tensor_bytes"] += int(nbytes)

    # -- export --------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """The serializable ``OpProfile`` payload (empty dict when off)."""
        if self.mode == "off":
            return {}
        ops: dict[str, dict[str, dict[str, int]]] = {}
        for (phase, name), (calls, total_ns, self_ns, nbytes) in sorted(
                self._ops.items()):
            ops.setdefault(phase, {})[name] = {
                "calls": calls,
                "total_ns": total_ns,
                "self_ns": self_ns,
                "bytes_moved": nbytes,
            }
        return {
            "schema": OP_PROFILE_SCHEMA,
            "mode": self.mode,
            "ops": ops,
            "memory": {phase: dict(bucket)
                       for phase, bucket in sorted(self._mem.items())},
        }


def merge_op_profiles(payloads: Iterable[dict[str, Any] | None]) -> dict[str, Any]:
    """Sum several ``OpProfile`` payloads (e.g. one per campaign cell).

    Counters add; ``mode`` is taken from the first payload.  Keys this
    module no longer writes (older artifacts' step counters and scratch
    pool stats) are ignored.
    """
    present = [p for p in payloads if p]
    if not present:
        return {}
    out: dict[str, Any] = {
        "schema": OP_PROFILE_SCHEMA,
        "mode": present[0].get("mode", "full"),
        "ops": {},
        "memory": {},
    }
    for payload in present:
        for phase, ops in (payload.get("ops") or {}).items():
            into = out["ops"].setdefault(phase, {})
            for name, stat in ops.items():
                acc = into.setdefault(name, {"calls": 0, "total_ns": 0,
                                             "self_ns": 0, "bytes_moved": 0})
                for field in acc:
                    acc[field] += int(stat.get(field, 0))
        for phase, bucket in (payload.get("memory") or {}).items():
            into = out["memory"].setdefault(phase, {})
            for field, value in bucket.items():
                into[field] = into.get(field, 0) + int(value)
    return out


def _fmt_bytes(n: float) -> str:
    n = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024.0 or unit == "GiB":
            return f"{n:.1f}{unit}" if unit != "B" else f"{int(n)}B"
        n /= 1024.0
    return f"{n:.1f}GiB"


def render_op_profile(payload: dict[str, Any]) -> str:
    """A per-phase op table: calls, total/self ms, bytes, self-time share."""
    if not payload:
        return "no op profile recorded (REPRO_PROFILE=off)"
    lines = [f"op profile: mode={payload.get('mode')}"]
    ops = payload.get("ops") or {}
    total_self = sum(stat.get("self_ns", 0)
                     for phase_ops in ops.values()
                     for stat in phase_ops.values()) or 1
    header = (f"  {'Phase':<10}{'Op':<22}{'Calls':>8}{'Total ms':>11}"
              f"{'Self ms':>10}{'Bytes':>11}{'Share':>8}")
    lines += [header, "  " + "-" * (len(header) - 2)]
    for phase in sorted(ops):
        ranked = sorted(ops[phase].items(),
                        key=lambda kv: (-kv[1].get("self_ns", 0), kv[0]))
        for name, stat in ranked:
            lines.append(
                f"  {phase:<10}{name:<22}{stat.get('calls', 0):>8}"
                f"{stat.get('total_ns', 0) / 1e6:>11.2f}"
                f"{stat.get('self_ns', 0) / 1e6:>10.2f}"
                f"{_fmt_bytes(stat.get('bytes_moved', 0)):>11}"
                f"{100.0 * stat.get('self_ns', 0) / total_self:>7.1f}%"
            )
    memory = payload.get("memory") or {}
    if memory:
        lines.append("  memory (tensor construction per phase):")
        for phase in sorted(memory):
            bucket = memory[phase]
            lines.append(
                f"    {phase:<10}{bucket.get('tensor_allocs', 0):>8} allocs"
                f"  {_fmt_bytes(bucket.get('tensor_bytes', 0)):>11}"
            )
    return "\n".join(lines)
