"""Graph capture and compiled whole-step replay (``REPRO_KERNEL_MODE=compiled``).

PR 3's kernel wins were per-op; this module goes after the *cross-op* cost of
the training step.  On a tape-based autodiff substrate every ``backward()``
pays three structural taxes per step even though the step graph is identical
every iteration:

1. a full DFS re-derivation of the reverse topological order,
2. a Python closure dispatch (plus ``grad is None`` bookkeeping) per node,
3. a fresh gradient allocation per edge (``_accumulate``'s copy or the
   VJP's product array).

:class:`StepExecutor` removes all three.  The first time a step shape is
seen, the forward runs under a **capture tape** (see
:func:`repro.framework.tensor._set_tape`), the backward executes *eagerly*
(so the miss step is bit-exact by construction) while the executor records
the DFS execution order, and the trace is distilled into a **plan**:

- a flat schedule of pre-resolved entries — no DFS, no re-wiring;
- a **registry** of exact-mirror ``out=`` adjoints for the hot primitive ops
  (matmul, elementwise arithmetic, activations, slicing, reductions) that
  write gradients into a liveness-planned **slab** borrowed once from the
  PR 3 workspace arena, eliminating steady-state gradient allocation;
- **fused elementwise chains**: runs of single-consumer elementwise nodes
  (relu→mul→tanh…) collapse into one entry that streams the running gradient
  product through a pair of scratch buffers, never materialising the
  intermediate gradients at all — automatic fusion beyond the hand-fused
  pairs in :mod:`repro.framework.fused`;
- leaf positions keep their grad-hook firing slots, so
  ``ShardedDataParallel``'s bucketed all-reduce overlap sees parameters in
  the same reverse-topological order as eager execution.

Subsequent steps **fingerprint** the captured tape (op code identity + shape
+ dtype + parent wiring + requires-grad bits) and replay the matching plan.
Any mismatch — the last partial batch, an eval-shaped graph, a graph whose
closures were built outside capture — falls back to plain eager backward,
so compiled mode is *never* less correct, only faster.

Bit-identity is a hard invariant, not a goal: every registry adjoint mirrors
the eager VJP's exact operation order (IEEE-754 addition is commutative but
not associative, so accumulation order is part of the contract), plans replay
the recorded DFS order, and scalar/index/mask operands are re-read from the
live closure cells each step (they may legally change without changing the
fingerprint).  ``repro bench-step --smoke`` enforces the invariant in CI.

Observability: the executor publishes ``compile_*`` counters and gauges
(cache hits/misses/fallbacks, hit rate, liveness peak bytes, slab bytes,
fused chains) through the ambient telemetry registry, and replay runs under
the op profiler's ``backward`` phase.  When the profiler is actively
sampling, replay uses the plan's closure schedule (still no DFS) so per-op
timings keep flowing.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from . import tensor as _tensor_module
from .config import kernel_mode
from .prof import profiler
from .tensor import Tensor, _index_add
from .workspace import arena

__all__ = ["StepExecutor"]

_ALIGN = 64  # slab offset alignment, bytes

# ---------------------------------------------------------------------------
# Op registry: map VJP closure code objects -> op names
# ---------------------------------------------------------------------------

_OP_CODES: dict[int, str] | None = None


def _sample_nodes() -> dict[str, Tensor]:
    """Build one node per compilable primitive to learn its VJP code object.

    Closure code objects are per-definition constants, so ``id(code)`` keys
    are stable for the process lifetime regardless of operand values.
    """
    a = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
    b = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
    return {
        "add_scalar": a + 1.0,
        "add_tensor": a + b,
        "neg": -a,
        "mul_scalar": a * 2.0,
        "mul_tensor": a * b,
        "div_tensor": a / b,
        "pow": a ** 2.0,
        "matmul": a @ b,
        "exp": a.exp(),
        "log": a.log(),
        "sqrt": a.sqrt(),
        "tanh": a.tanh(),
        "sigmoid": a.sigmoid(),
        "relu": a.relu(),
        "abs": a.abs(),
        "clip": a.clip(-1.0, 1.0),
        "sum": a.sum(),
        "reshape": a.reshape(4),
        "transpose": a.transpose(),
        "getitem": a[0:1],
        "stack": Tensor.stack([a, b]),
        "take_rows": a.take_rows(np.array([0, 1])),
    }


def _op_codes() -> dict[int, str]:
    global _OP_CODES
    if _OP_CODES is None:
        previous = _tensor_module._set_tape([])
        try:
            _OP_CODES = {
                id(node._vjp.__code__): name
                for name, node in _sample_nodes().items()
            }
        finally:
            _tensor_module._set_tape(previous)
    return _OP_CODES


def _cell_index(node: Tensor, name: str) -> int:
    return node._vjp.__code__.co_freevars.index(name)


# Ops whose VJP is "multiply the incoming gradient by a local factor" — the
# building blocks of fused elementwise chains (shape-preserving, unary).
_CHAIN_OPS = frozenset({
    "relu", "tanh", "sigmoid", "exp", "log", "sqrt", "abs", "clip", "neg",
    "mul_scalar", "pow", "add_scalar",
})

# Ops whose compiled kernel never reads forward *values* — only shapes and
# the incoming gradient — so operand memory layout cannot affect them.
# Everything else requires C-contiguous operands to compile (see
# ``_PlanBuilder._compilable``).
_LAYOUT_FREE_OPS = frozenset({
    "add_scalar", "add_tensor", "reshape", "transpose", "sum", "stack",
})


# ---------------------------------------------------------------------------
# Per-op ``apply(node, gin, out)`` kernels
# ---------------------------------------------------------------------------
# Each mirrors the eager VJP's arithmetic *exactly* (same operand order, same
# association) but writes into a preallocated ``out``.  ``gin`` and ``out``
# are always distinct arrays; ``out`` may be used as workspace before ``gin``
# is consumed.  Scalars, masks, and indices are read from the live closure
# cells each call — they can change between steps without changing the
# fingerprint.

def _apply_relu(node: Tensor, k: int) -> Callable:
    def apply(nd, gin, out):
        np.multiply(gin, nd._vjp.__closure__[k].cell_contents, out=out)
    return apply


def _apply_clip(node: Tensor, k: int) -> Callable:
    return _apply_relu(node, k)  # same shape: g * mask


def _apply_abs(node: Tensor, k: int) -> Callable:
    return _apply_relu(node, k)  # g * sign


def _apply_mul_scalar(node: Tensor, k: int) -> Callable:
    def apply(nd, gin, out):
        np.multiply(gin, nd._vjp.__closure__[k].cell_contents, out=out)
    return apply


def _apply_tanh() -> Callable:
    # eager: g * (1.0 - y*y)
    def apply(nd, gin, out):
        y = nd.data
        np.multiply(y, y, out=out)
        np.subtract(1.0, out, out=out)
        np.multiply(gin, out, out=out)
    return apply


def _apply_sigmoid(aux: np.ndarray) -> Callable:
    # eager: (g * y) * (1.0 - y)  — left-associated, so a temp is required
    def apply(nd, gin, out):
        y = nd.data
        np.multiply(gin, y, out=aux)
        np.subtract(1.0, y, out=out)
        np.multiply(aux, out, out=out)
    return apply


def _apply_exp() -> Callable:
    def apply(nd, gin, out):
        np.multiply(gin, nd.data, out=out)
    return apply


def _apply_log() -> Callable:
    def apply(nd, gin, out):
        np.divide(gin, nd._prev[0].data, out=out)
    return apply


def _apply_sqrt() -> Callable:
    # eager: (g * 0.5) / y
    def apply(nd, gin, out):
        np.multiply(gin, 0.5, out=out)
        np.divide(out, nd.data, out=out)
    return apply


def _apply_neg() -> Callable:
    def apply(nd, gin, out):
        np.negative(gin, out=out)
    return apply


def _apply_pow(k: int, aux: np.ndarray) -> Callable:
    # eager: (g * e) * x**(e-1)
    def apply(nd, gin, out):
        e = nd._vjp.__closure__[k].cell_contents
        np.multiply(gin, e, out=out)
        np.power(nd._prev[0].data, e - 1, out=aux)
        np.multiply(out, aux, out=out)
    return apply


def _make_apply(op: str, node: Tensor, scratch: Callable) -> Callable | None:
    """Build the gradient-product kernel for a chainable unary op.

    ``scratch(shape, dtype, tag)`` returns a plan-persistent buffer.
    Returns None for ``add_scalar`` (identity: the running product passes
    through unchanged — eager's defensive copy does not change values).
    """
    if op == "add_scalar":
        return None
    if op in ("relu", "clip"):
        return _apply_relu(node, _cell_index(node, "mask"))
    if op == "abs":
        return _apply_abs(node, _cell_index(node, "sign"))
    if op == "mul_scalar":
        return _apply_mul_scalar(node, _cell_index(node, "other"))
    if op == "tanh":
        return _apply_tanh()
    if op == "sigmoid":
        return _apply_sigmoid(scratch(node.data.shape, node.data.dtype, "aux"))
    if op == "exp":
        return _apply_exp()
    if op == "log":
        return _apply_log()
    if op == "sqrt":
        return _apply_sqrt()
    if op == "neg":
        return _apply_neg()
    if op == "pow":
        return _apply_pow(_cell_index(node, "exponent"),
                          scratch(node.data.shape, node.data.dtype, "aux"))
    raise AssertionError(f"not a chain op: {op}")


# ---------------------------------------------------------------------------
# Gradient sinks
# ---------------------------------------------------------------------------
# A "sink" lands a freshly computed gradient contribution on a target tensor
# with _accumulate's exact semantics, but (when a slab/leaf view is planned)
# without allocating.  The first-writer decision is dynamic (``t.grad is
# None``), which keeps mixed registry/closure writer sets correct: whoever
# writes first owns the storage, later writers add in place.


def _sink_product(t: Tensor, view: np.ndarray | None, scratch: np.ndarray,
                  apply: Callable, node: Tensor, g: np.ndarray) -> None:
    """Land ``apply(node, g, ·)`` (a fresh product in eager mode) on ``t``."""
    tg = t.grad
    if tg is None:
        if view is not None:
            apply(node, g, view)
            t.grad = view
        else:
            fresh = np.empty(t.data.shape, t.data.dtype)
            apply(node, g, fresh)
            t.grad = fresh
    else:
        apply(node, g, scratch)
        np.add(tg, scratch, out=tg)


def _sink_view(t: Tensor, view: np.ndarray | None, gv: np.ndarray) -> None:
    """Land a pass-through gradient (a view of the consumer's grad) on ``t``.

    Mirrors ``_accumulate(gv)`` without ownership: first write copies.
    """
    tg = t.grad
    if tg is None:
        if view is not None:
            np.copyto(view, gv)
            t.grad = view
        else:
            t.grad = gv.astype(t.data.dtype, copy=True)
    else:
        np.add(tg, gv, out=tg)


def _sink_passthrough(t: Tensor, view: np.ndarray | None, gv: np.ndarray) -> None:
    """Like :func:`_sink_view`, but preserves ``gv``'s memory layout.

    Eager's first-write copy is ``astype(copy=True)`` with NumPy's default
    ``order='K'``: a transposed adjoint view lands as a dense array in the
    *permuted* layout, not C order.  Downstream reductions (``sum`` over
    multiple axes in ``_unbroadcast``) are layout-sensitive — pairwise
    summation blocks follow memory order — so copying such a view into a
    C-contiguous slab would change bits that eager preserves.  The slab
    fast path is therefore only taken when the layouts agree; otherwise the
    first write falls back to eager's exact heap copy.
    """
    tg = t.grad
    if tg is None and not gv.flags.c_contiguous:
        t.grad = gv.astype(t.data.dtype, copy=True)  # order='K', as eager
        return
    _sink_view(t, view, gv)


def _fire_hooks(node: Tensor) -> None:
    if node._grad_hooks and node.grad is not None:
        for hook in tuple(node._grad_hooks):
            hook(node)


# ---------------------------------------------------------------------------
# The compiled plan
# ---------------------------------------------------------------------------


class _Plan:
    """One compiled step: a flat entry schedule plus planned storage."""

    __slots__ = ("entries", "closure_refs", "scheduled", "root_idx",
                 "root_buf", "chain_guard", "peak_grad_bytes", "slab_bytes",
                 "fused_chains", "fused_links", "registry_nodes",
                 "closure_nodes", "n_nodes", "borrows")

    def __init__(self) -> None:
        self.entries: list[Callable[[list], None]] = []
        # (kind, a, b): kind 0 -> tape[a]; kind 1 -> tape[a]._prev[b].
        self.closure_refs: list[tuple[int, int, int]] = []
        self.scheduled: list[int] = []       # tape indices to release after
        self.root_idx = -1
        self.root_buf: np.ndarray | None = None
        self.chain_guard: list[int] = []     # tape indices that must stay hook-free
        self.peak_grad_bytes = 0
        self.slab_bytes = 0
        self.fused_chains = 0
        self.fused_links = 0
        self.registry_nodes = 0
        self.closure_nodes = 0
        self.n_nodes = 0
        # The arena borrows behind the entries' storage.  Entries hold views
        # *derived* from them (slab slices, reshapes), which keep the memory
        # alive but not the borrow: were the borrowed array itself to die,
        # the arena would repool the bytes under a live plan.
        self.borrows: list[np.ndarray] = []

    # -- replay -----------------------------------------------------------

    def replay(self, tape: list[Tensor], root: Tensor,
               seed: np.ndarray | None) -> bool:
        """Execute the plan on this step's tape.  Returns False when the
        dynamic preconditions fail and the caller must run eager instead."""
        if root.grad is not None:
            return False  # pre-seeded root: accumulate semantics -> eager
        rb = self.root_buf
        if seed is None:
            np.copyto(rb, 1.0)
        else:
            seed = np.asarray(seed, dtype=root.data.dtype)
            if seed.shape != root.data.shape:
                raise ValueError(
                    f"seed gradient shape {seed.shape} != tensor shape {root.data.shape}")
            np.copyto(rb, seed)
        root.grad = rb

        prof = profiler()
        prev_phase = prof.phase
        if prof.active:
            prof.phase = "backward"
        try:
            use_closures = prof.active or any(
                tape[i]._grad_hooks for i in self.chain_guard)
            if use_closures:
                self._replay_closures(tape)
            else:
                for entry in self.entries:
                    entry(tape)
        finally:
            prof.phase = prev_phase
        return True

    def _replay_closures(self, tape: list[Tensor]) -> None:
        """Closure-schedule replay: the eager loop minus the DFS.

        Used when the op profiler is sampling (timed closures must run) or a
        grad hook appeared on a chain-fused interior node after capture.
        """
        for kind, a, b in self.closure_refs:
            node = tape[a] if kind == 0 else tape[a]._prev[b]
            if node._backward is not None and node.grad is not None:
                node._backward()
            if node._grad_hooks and node.grad is not None:
                for hook in tuple(node._grad_hooks):
                    hook(node)

    def release(self, tape: list[Tensor]) -> None:
        """Sever the traversed graph (cf. ``backward(release_tape=True)``)."""
        for i in self.scheduled:
            node = tape[i]
            node._backward = None
            node._vjp = None
            node._prev = ()


_UNCOMPILABLE = _Plan()  # sentinel: fingerprint known, permanently eager


# ---------------------------------------------------------------------------
# Plan construction
# ---------------------------------------------------------------------------


class _PlanBuilder:
    def __init__(self, tape: list[Tensor], root: Tensor):
        self.tape = tape
        self.root = root
        self.ws = arena()
        self.plan = _Plan()
        self._buffers: dict[Any, np.ndarray | None] = {}  # target key -> view
        self._scratch: dict[Any, np.ndarray] = {}
        self._slab: np.ndarray | None = None

    # -- eager execution (the miss step itself) ---------------------------

    def topo_order(self) -> list[Tensor]:
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self.root, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited:
                    stack.append((parent, False))
        return topo

    def on_tape(self, node: Tensor) -> int:
        """Tape index of ``node``, or -1 when it is not a captured node."""
        idx = getattr(node, "_tape_idx", -1)
        if 0 <= idx < len(self.tape) and self.tape[idx] is node:
            return idx
        return -1

    def execute_eager(self, topo: list[Tensor],
                      seed: np.ndarray | None) -> list[bool]:
        """Run the backward exactly as ``Tensor.backward`` would, recording
        which scheduled nodes actually ran."""
        root = self.root
        if seed is None:
            grad = np.ones_like(root.data)
            fresh = True
        else:
            raw = seed
            grad = np.asarray(seed, dtype=root.data.dtype)
            fresh = grad is not raw
            if grad.shape != root.data.shape:
                raise ValueError(
                    f"seed gradient shape {grad.shape} != tensor shape {root.data.shape}")
        if root.grad is not None:
            root.grad = root.grad + grad
        else:
            root.grad = grad if fresh else grad.copy()

        ran: list[bool] = []
        prof = profiler()
        prev_phase = prof.phase
        if prof.active:
            prof.phase = "backward"
        try:
            for node in reversed(topo):
                fired = node._backward is not None and node.grad is not None
                if fired:
                    node._backward()
                if node._grad_hooks and node.grad is not None:
                    for hook in tuple(node._grad_hooks):
                        hook(node)
                ran.append(fired)
        finally:
            prof.phase = prev_phase
        return ran

    # -- storage ----------------------------------------------------------

    def scratch(self, shape, dtype, tag: str = "w") -> np.ndarray:
        """A plan-persistent scratch buffer (arena borrow, shared by key)."""
        key = (np.dtype(dtype).str, tuple(shape), tag)
        buf = self._scratch.get(key)
        if buf is None:
            buf = self.ws.take(tuple(shape), dtype)
            self._scratch[key] = buf
        return buf

    def _target_key(self, t: Tensor, consumer_idx: int, slot: int):
        ti = self.on_tape(t)
        if ti >= 0:
            return ("t", ti)
        return ("l", consumer_idx, slot)

    def plan_storage(self, schedule: list[Tensor], pos_of: dict[int, int],
                     consumers: dict[int, list[int]],
                     registry: dict[int, str],
                     chain_member_pos: set[int],
                     chain_target_pos: set[int],
                     chain_exec_pos: dict[int, int]) -> dict[Any, np.ndarray | None]:
        """Liveness-planned gradient storage.

        Interior targets written by registry entries share one arena slab via
        first-fit interval assignment; leaf targets get persistent buffers
        (they outlive the step — the optimizer reads them).  Also computes the
        theoretical liveness peak over all interior gradients.
        """
        plan = self.plan
        intervals: list[tuple[int, int, int, Any, Tensor]] = []
        events: list[tuple[int, int]] = []
        seen: set[Any] = set()
        for k, node in enumerate(schedule):
            idx = self.on_tape(node)
            if idx < 0 or idx not in registry:
                continue
            if k in chain_member_pos and k not in chain_target_pos:
                continue  # head/interior chain link: targets fold into the chain
            for slot, t in enumerate(node._prev):
                if not t.requires_grad:
                    continue
                key = self._target_key(t, idx, slot)
                if key in seen:
                    continue
                seen.add(key)
                ti = self.on_tape(t)
                interior = ti >= 0 and t._backward is not None and id(t) in pos_of
                if not interior:
                    # Leaf (or off-schedule) target: persistent buffer.
                    self._buffers[key] = self.ws.take(t.data.shape, t.data.dtype)
                    continue
                if t is self.root:
                    self._buffers[key] = None  # root grad handled separately
                    continue
                writer_positions = [pos_of[id(self.tape[c])]
                                    for c in consumers.get(ti, ())]
                birth = min(writer_positions) if writer_positions else pos_of[id(t)]
                death = chain_exec_pos.get(pos_of[id(t)], pos_of[id(t)])
                intervals.append((birth, death, t.data.nbytes, key, t))

        # Liveness peak over interior gradients that materialise on replay
        # (chain-interior grads never do): birth at the first consumer write,
        # death at the node's own execution position.
        for k, node in enumerate(schedule):
            idx = self.on_tape(node)
            if idx < 0 or node is self.root or node.grad is None:
                continue
            if k in chain_member_pos and k not in chain_exec_pos:
                continue  # interior/deep chain link: streamed, never stored
            writer_positions = [pos_of[id(self.tape[c])]
                                for c in consumers.get(idx, ())]
            birth = min(writer_positions) if writer_positions else k
            death = chain_exec_pos.get(k, k)
            events.append((birth, node.grad.nbytes))
            events.append((death + 1, -node.grad.nbytes))
        events.sort()
        live = peak = 0
        for _, delta in events:
            live += delta
            peak = max(peak, live)
        plan.peak_grad_bytes = peak

        # First-fit interval assignment into one byte slab.
        placed: list[tuple[int, int, int, int]] = []  # (off, end, birth, death)
        offsets: dict[Any, tuple[int, int]] = {}
        slab_end = 0
        for birth, death, nbytes, key, _t in sorted(intervals):
            need = max(int(nbytes), 1)
            taken = sorted(
                (off, end) for off, end, b, d in placed
                if not (d < birth or b > death))
            off = 0
            for o, e in taken:
                if off + need <= o:
                    break
                off = max(off, e)
                off = (off + _ALIGN - 1) // _ALIGN * _ALIGN
            placed.append((off, off + need, birth, death))
            offsets[key] = (off, need)
            slab_end = max(slab_end, off + need)
        plan.slab_bytes = slab_end

        views: dict[Any, np.ndarray | None] = dict(self._buffers)
        if slab_end:
            self._slab = self.ws.take((slab_end,), np.uint8)
            by_key = {key: (b, d, nb, t)
                      for b, d, nb, key, t in intervals}
            for key, (off, need) in offsets.items():
                t = by_key[key][3]
                dt = t.data.dtype
                views[key] = (self._slab[off:off + need]
                              .view(dt)[:t.data.size].reshape(t.data.shape))
        return views

    # -- entry compilation -------------------------------------------------

    def build(self, seed: np.ndarray | None) -> _Plan | None:
        """Execute the miss step eagerly and distil the plan.

        Returns None when the graph cannot be compiled (the caller then runs
        plain eager backward — note in that case this method did NOT execute
        anything yet: all rejection checks precede execution).
        """
        tape, root, plan = self.tape, self.root, self.plan
        if self.on_tape(root) < 0:
            return None
        topo = self.topo_order()
        for node in topo:
            if node._backward is not None and self.on_tape(node) < 0:
                return None  # closure node created outside capture

        ran = self.execute_eager(topo, seed)
        schedule = list(reversed(topo))
        plan.root_idx = self.on_tape(root)
        plan.n_nodes = len(schedule)
        plan.root_buf = self.ws.take(root.data.shape, root.data.dtype)

        pos_of = {id(node): k for k, node in enumerate(schedule)}
        # Topo consumers of each tape node (writers of its gradient).
        consumers: dict[int, list[int]] = {}
        leaf_ref: dict[int, tuple[int, int]] = {}
        for node in schedule:
            idx = self.on_tape(node)
            if idx < 0:
                continue
            for slot, p in enumerate(node._prev):
                pi = self.on_tape(p)
                if pi >= 0:
                    consumers.setdefault(pi, []).append(idx)
                elif id(p) not in leaf_ref:
                    leaf_ref[id(p)] = (idx, slot)

        codes = _op_codes()
        registry: dict[int, str] = {}
        for k, node in enumerate(schedule):
            if not ran[k]:
                continue
            idx = self.on_tape(node)
            if idx < 0:
                continue
            op = codes.get(id(node._vjp.__code__))
            if op is not None and self._compilable(op, node):
                registry[idx] = op
        # Root always replays through its closure (``loss.grad`` must survive
        # the step exactly as eager leaves it).
        registry.pop(plan.root_idx, None)

        chains = self._find_chains(schedule, pos_of, consumers, registry, ran)
        chain_member_pos: set[int] = set()
        chain_target_pos: set[int] = set()
        chain_exec_pos: dict[int, int] = {}
        for chain in chains:
            exec_pos = pos_of[id(chain[-1])]
            head_pos = pos_of[id(chain[0])]
            chain_exec_pos[head_pos] = exec_pos  # head grad lives to exec
            chain_target_pos.add(exec_pos)       # deepest link sinks the target
            for link in chain:
                chain_member_pos.add(pos_of[id(link)])
            plan.chain_guard.extend(self.on_tape(link) for link in chain)
        plan.fused_chains = len(chains)
        plan.fused_links = sum(len(c) for c in chains)

        views = self.plan_storage(schedule, pos_of, consumers, registry,
                                  chain_member_pos, chain_target_pos,
                                  chain_exec_pos)

        chain_at: dict[int, list[Tensor]] = {
            pos_of[id(chain[-1])]: chain for chain in chains}
        for k, node in enumerate(schedule):
            idx = self.on_tape(node)
            # Closure-schedule reference (used by the profiling replay path).
            if idx >= 0:
                plan.closure_refs.append((0, idx, 0))
                plan.scheduled.append(idx)
            else:
                # Every leaf in the schedule has at least one on-tape
                # consumer (the topo walk reached it through one).
                ci, slot = leaf_ref[id(node)]
                plan.closure_refs.append((1, ci, slot))

            if k in chain_member_pos and k not in chain_at:
                continue  # head/interior chain link: folded into chain entry
            if k in chain_at:
                self._emit_chain(chain_at[k], views)
                continue

            if idx < 0:
                self._emit_leaf_hooks(leaf_ref[id(node)])
            elif not ran[k]:
                # Structurally present but grad-less during the miss step:
                # keep the eager closure (its own None-grad check applies).
                self._emit_closure(idx, node is root)
            elif idx in registry:
                self._emit_registry(registry[idx], idx, node, views)
            else:
                self._emit_closure(idx, node is root)

        plan.borrows = [b for b in (self._slab, *self._scratch.values(),
                                    *self._buffers.values()) if b is not None]
        plan.registry_nodes = len(registry)
        plan.closure_nodes = sum(
            1 for k, node in enumerate(schedule)
            if ran[k] and self.on_tape(node) >= 0
            and self.on_tape(node) not in registry)
        return plan

    # -- compilability gates ----------------------------------------------

    def _compilable(self, op: str, node: Tensor) -> bool:
        g = node.grad
        if g is None or g.dtype != node.data.dtype:
            return False
        prev = node._prev
        if any(p.requires_grad and p.data.dtype != g.dtype for p in prev):
            return False
        if op not in _LAYOUT_FREE_OPS:
            # Kernels below read forward values (or zero a buffer shaped like
            # them) with ``out=`` C-order storage, while eager's fresh arrays
            # follow the operands' layout (order='K').  Equal bits, different
            # strides — and downstream reductions are layout-sensitive — so
            # only compile when every operand is C-contiguous (the closure
            # handles the rest).  Adjoint-only layout hazards are caught at
            # replay time via the grad-contiguity guards.
            if not node.data.flags.c_contiguous:
                return False
            if any(not p.data.flags.c_contiguous for p in prev):
                return False
        if op in ("add_tensor", "mul_tensor", "div_tensor"):
            return all(p.data.shape == node.data.shape for p in prev)
        if op == "matmul":
            return prev[0].data.ndim == 2 and prev[1].data.ndim == 2
        return True

    def _find_chains(self, schedule, pos_of, consumers, registry, ran):
        """Maximal fusable elementwise chains.

        A chain starts at a registry chain-op node and extends to its parent
        while the parent is itself a chain-op registry node whose *only*
        scheduled consumer is the current link and which carries no grad
        hooks.  The chain executes at the deepest link's schedule position,
        so every materialised write keeps its eager accumulation order.
        """
        chains: list[list[Tensor]] = []
        in_chain: set[int] = set()
        for k, node in enumerate(schedule):
            idx = self.on_tape(node)
            if idx < 0 or idx in in_chain or idx not in registry:
                continue
            if registry[idx] not in _CHAIN_OPS or not ran[k]:
                continue
            if node._grad_hooks or node is self.root:
                continue  # hooks must fire at this exact position; keep eager
            chain = [node]
            current = node
            while True:
                parent = current._prev[0]
                pi = self.on_tape(parent)
                if pi < 0 or pi in in_chain or pi not in registry:
                    break
                if registry[pi] not in _CHAIN_OPS:
                    break
                if len(consumers.get(pi, ())) != 1:
                    break
                if parent._grad_hooks or parent is self.root:
                    break
                if parent.data.shape != current.data.shape:
                    break
                chain.append(parent)
                current = parent
            if len(chain) >= 2:
                chains.append(chain)
                in_chain.update(self.on_tape(c) for c in chain)
        return chains

    # -- entry emitters ----------------------------------------------------

    def _emit_closure(self, i: int, is_root: bool) -> None:
        if is_root:
            def run(tape: list) -> None:
                node = tape[i]
                if node._backward is not None and node.grad is not None:
                    node._backward()
                _fire_hooks(node)
        else:
            def run(tape: list) -> None:
                node = tape[i]
                if node._backward is not None and node.grad is not None:
                    node._backward()
                    _fire_hooks(node)
                    node.grad = None
        self.plan.entries.append(run)

    def _emit_leaf_hooks(self, ref: tuple[int, int]) -> None:
        ci, slot = ref

        def run(tape: list) -> None:
            node = tape[ci]._prev[slot]
            if node._grad_hooks and node.grad is not None:
                for hook in tuple(node._grad_hooks):
                    hook(node)
        self.plan.entries.append(run)

    def _edge_storage(self, node_idx: int, slot: int, t: Tensor,
                      views: dict) -> tuple[np.ndarray | None, np.ndarray | None]:
        key = self._target_key(t, node_idx, slot)
        view = views.get(key)
        scr = self.scratch(t.data.shape, t.data.dtype)
        return view, scr

    def _emit_registry(self, op: str, i: int, node: Tensor, views: dict) -> None:
        emit = getattr(self, f"_emit_{op}", None)
        if emit is not None:
            emit(i, node, views)
            return
        if op in _CHAIN_OPS:
            self._emit_unary_product(op, i, node, views)
            return
        raise AssertionError(f"registry op {op} has no emitter")

    def _emit_unary_product(self, op: str, i: int, node: Tensor, views: dict) -> None:
        apply = _make_apply(op, node, self.scratch)
        t = node._prev[0]
        if not t.requires_grad:
            self._emit_closure(i, False)
            return
        view, scr = self._edge_storage(i, 0, t, views)
        if apply is None:  # add_scalar: pure pass-through
            def run(tape: list) -> None:
                nd = tape[i]
                g = nd.grad
                if g is not None:
                    _sink_passthrough(nd._prev[0], view, g)
                    _fire_hooks(nd)
                    nd.grad = None
        else:
            def run(tape: list) -> None:
                nd = tape[i]
                g = nd.grad
                if g is not None:
                    if not g.flags.c_contiguous:
                        # Eager would produce an order='K' product here; the
                        # out= kernel writes C order.  Defer to the closure so
                        # downstream layout-sensitive reductions match eager.
                        nd._vjp(nd)
                    else:
                        _sink_product(nd._prev[0], view, scr, apply, nd, g)
                    _fire_hooks(nd)
                    nd.grad = None
        self.plan.entries.append(run)

    def _emit_chain(self, chain: list[Tensor], views: dict) -> None:
        """One fused entry streaming head->...->deepest gradient products."""
        codes = _op_codes()
        head_idx = self.on_tape(chain[0])
        deep = chain[-1]
        deep_idx = self.on_tape(deep)
        applies: list[tuple[int, Callable | None]] = []
        for link in chain:
            op = codes[id(link._vjp.__code__)]
            applies.append((self.on_tape(link), _make_apply(op, link, self.scratch)))
        target = deep._prev[0]
        if not target.requires_grad:  # unreachable for unary ops; stay safe
            for link in chain:
                self._emit_closure(self.on_tape(link), False)
            return
        view, scr = self._edge_storage(deep_idx, 0, target, views)
        shape, dtype = chain[0].data.shape, chain[0].data.dtype
        buf_a = self.scratch(shape, dtype, "chain_a")
        buf_b = self.scratch(shape, dtype, "chain_b")
        # add_scalar links are identity pass-throughs (apply None): drop them.
        steps = tuple((ti, ap) for ti, ap in applies if ap is not None)
        link_idxs = tuple(ti for ti, _ in applies)

        def run(tape: list) -> None:
            head = tape[head_idx]
            g = head.grad
            if g is None:
                return
            if not g.flags.c_contiguous:
                # Layout-sensitive case (see _sink_passthrough): run each
                # link's closure in eager order instead of the fused kernel.
                for li in link_idxs:
                    link = tape[li]
                    if link.grad is not None:
                        link._vjp(link)
                        link.grad = None
                return
            t = tape[deep_idx]._prev[0]
            if not steps:
                _sink_passthrough(t, view, g)
            else:
                cur = g
                for ti, ap in steps[:-1]:
                    nxt = buf_b if cur is buf_a else buf_a
                    ap(tape[ti], cur, nxt)
                    cur = nxt
                ti, ap = steps[-1]
                _sink_product(t, view, scr, ap, tape[ti], cur)
            _fire_hooks(head)
            head.grad = None
        self.plan.entries.append(run)

    # binary / n-ary emitters ---------------------------------------------

    def _emit_add_tensor(self, i: int, node: Tensor, views: dict) -> None:
        edges = []
        for slot, t in enumerate(node._prev):
            if t.requires_grad:
                view, _ = self._edge_storage(i, slot, t, views)
                edges.append((slot, view))
        edges = tuple(edges)

        def run(tape: list) -> None:
            nd = tape[i]
            g = nd.grad
            if g is not None:
                for slot, view in edges:
                    _sink_passthrough(nd._prev[slot], view, g)
                _fire_hooks(nd)
                nd.grad = None
        self.plan.entries.append(run)

    def _emit_mul_tensor(self, i: int, node: Tensor, views: dict) -> None:
        edges = []
        for slot, t in enumerate(node._prev):
            if t.requires_grad:
                view, scr = self._edge_storage(i, slot, t, views)
                edges.append((slot, 1 - slot, view, scr))
        edges = tuple(edges)

        def run(tape: list) -> None:
            nd = tape[i]
            g = nd.grad
            if g is not None:
                if not g.flags.c_contiguous:
                    nd._vjp(nd)
                    _fire_hooks(nd)
                    nd.grad = None
                    return
                prev = nd._prev
                for slot, oslot, view, scr in edges:
                    t = prev[slot]
                    other = prev[oslot].data
                    tg = t.grad
                    if tg is None:
                        if view is not None:
                            np.multiply(g, other, out=view)
                            t.grad = view
                        else:
                            t.grad = g * other
                    else:
                        np.multiply(g, other, out=scr)
                        np.add(tg, scr, out=tg)
                _fire_hooks(nd)
                nd.grad = None
        self.plan.entries.append(run)

    def _emit_div_tensor(self, i: int, node: Tensor, views: dict) -> None:
        edges = []
        for slot, t in enumerate(node._prev):
            if t.requires_grad:
                view, scr = self._edge_storage(i, slot, t, views)
                edges.append((slot, view, scr))
        edges = tuple(edges)
        aux = self.scratch(node.data.shape, node.data.dtype, "aux")

        def run(tape: list) -> None:
            nd = tape[i]
            g = nd.grad
            if g is not None:
                if not g.flags.c_contiguous:
                    nd._vjp(nd)
                    _fire_hooks(nd)
                    nd.grad = None
                    return
                a, b = nd._prev[0].data, nd._prev[1].data
                for slot, view, scr in edges:
                    t = nd._prev[slot]
                    tg = t.grad
                    out = view if (tg is None and view is not None) else scr
                    if slot == 0:
                        np.divide(g, b, out=out)             # g / b
                    else:
                        np.negative(g, out=out)              # ((-g) * a) / (b*b)
                        np.multiply(out, a, out=out)
                        np.multiply(b, b, out=aux)
                        np.divide(out, aux, out=out)
                    if tg is None:
                        t.grad = out if out is view else out.copy()
                    else:
                        np.add(tg, out, out=tg)
                _fire_hooks(nd)
                nd.grad = None
        self.plan.entries.append(run)

    def _emit_matmul(self, i: int, node: Tensor, views: dict) -> None:
        edges = []
        for slot, t in enumerate(node._prev):
            if t.requires_grad:
                view, scr = self._edge_storage(i, slot, t, views)
                edges.append((slot, view, scr))
        edges = tuple(edges)

        def run(tape: list) -> None:
            nd = tape[i]
            g = nd.grad
            if g is not None:
                if not g.flags.c_contiguous:
                    nd._vjp(nd)
                    _fire_hooks(nd)
                    nd.grad = None
                    return
                a, b = nd._prev[0].data, nd._prev[1].data
                for slot, view, scr in edges:
                    t = nd._prev[slot]
                    tg = t.grad
                    out = view if (tg is None and view is not None) else scr
                    if slot == 0:
                        np.matmul(g, np.swapaxes(b, -1, -2), out=out)
                    else:
                        np.matmul(np.swapaxes(a, -1, -2), g, out=out)
                    if tg is None:
                        t.grad = out if out is view else out.copy()
                    else:
                        np.add(tg, out, out=tg)
                _fire_hooks(nd)
                nd.grad = None
        self.plan.entries.append(run)

    def _emit_reshape(self, i: int, node: Tensor, views: dict) -> None:
        t = node._prev[0]
        if not t.requires_grad:
            self._emit_closure(i, False)
            return
        view, _ = self._edge_storage(i, 0, t, views)

        def run(tape: list) -> None:
            nd = tape[i]
            g = nd.grad
            if g is not None:
                t = nd._prev[0]
                _sink_passthrough(t, view, g.reshape(t.data.shape))
                _fire_hooks(nd)
                nd.grad = None
        self.plan.entries.append(run)

    def _emit_transpose(self, i: int, node: Tensor, views: dict) -> None:
        t = node._prev[0]
        if not t.requires_grad:
            self._emit_closure(i, False)
            return
        view, _ = self._edge_storage(i, 0, t, views)
        k_inv = _cell_index(node, "inverse")

        def run(tape: list) -> None:
            nd = tape[i]
            g = nd.grad
            if g is not None:
                inverse = nd._vjp.__closure__[k_inv].cell_contents
                _sink_passthrough(nd._prev[0], view, g.transpose(inverse))
                _fire_hooks(nd)
                nd.grad = None
        self.plan.entries.append(run)

    def _emit_sum(self, i: int, node: Tensor, views: dict) -> None:
        t = node._prev[0]
        if not t.requires_grad:
            self._emit_closure(i, False)
            return
        view, _ = self._edge_storage(i, 0, t, views)
        k_axis = _cell_index(node, "axis")
        k_keep = _cell_index(node, "keepdims")

        def run(tape: list) -> None:
            nd = tape[i]
            g = nd.grad
            if g is not None:
                t = nd._prev[0]
                cl = nd._vjp.__closure__
                axis = cl[k_axis].cell_contents
                keepdims = cl[k_keep].cell_contents
                if axis is not None and not keepdims:
                    axes = (axis,) if np.isscalar(axis) else tuple(axis)
                    axes = tuple(a % t.data.ndim for a in axes)
                    g = np.expand_dims(g, tuple(sorted(axes)))
                bv = np.broadcast_to(g, t.data.shape)
                tg = t.grad
                if tg is None:
                    if view is not None:
                        np.copyto(view, bv)
                        t.grad = view
                    else:
                        t.grad = bv.copy()  # C order, as eager's .copy()
                else:
                    np.add(tg, bv, out=tg)
                _fire_hooks(nd)
                nd.grad = None
        self.plan.entries.append(run)

    def _emit_getitem(self, i: int, node: Tensor, views: dict) -> None:
        t = node._prev[0]
        if not t.requires_grad:
            self._emit_closure(i, False)
            return
        view, scr = self._edge_storage(i, 0, t, views)
        k_index = _cell_index(node, "index")

        def run(tape: list) -> None:
            nd = tape[i]
            g = nd.grad
            if g is not None:
                t = nd._prev[0]
                index = nd._vjp.__closure__[k_index].cell_contents
                tg = t.grad
                if tg is None:
                    if view is not None:
                        view[...] = 0
                        _index_add(view, index, g)
                        t.grad = view
                    else:
                        fresh = np.zeros_like(t.data)
                        _index_add(fresh, index, g)
                        t.grad = fresh
                else:
                    scr[...] = 0
                    _index_add(scr, index, g)
                    np.add(tg, scr, out=tg)
                _fire_hooks(nd)
                nd.grad = None
        self.plan.entries.append(run)

    def _emit_take_rows(self, i: int, node: Tensor, views: dict) -> None:
        t = node._prev[0]
        if not t.requires_grad:
            self._emit_closure(i, False)
            return
        view, scr = self._edge_storage(i, 0, t, views)
        k_idx = _cell_index(node, "indices")

        def run(tape: list) -> None:
            nd = tape[i]
            g = nd.grad
            if g is not None:
                t = nd._prev[0]
                indices = nd._vjp.__closure__[k_idx].cell_contents
                flat = indices.reshape(-1)
                gf = g.reshape(-1, *t.data.shape[1:])
                tg = t.grad
                if tg is None:
                    if view is not None:
                        view[...] = 0
                        np.add.at(view, flat, gf)
                        t.grad = view
                    else:
                        fresh = np.zeros_like(t.data)
                        np.add.at(fresh, flat, gf)
                        t.grad = fresh
                else:
                    scr[...] = 0
                    np.add.at(scr, flat, gf)
                    np.add(tg, scr, out=tg)
                _fire_hooks(nd)
                nd.grad = None
        self.plan.entries.append(run)

    def _emit_stack(self, i: int, node: Tensor, views: dict) -> None:
        edges = []
        for slot, t in enumerate(node._prev):
            if t.requires_grad:
                view, _ = self._edge_storage(i, slot, t, views)
                edges.append((slot, view))
        edges = tuple(edges)
        k_axis = _cell_index(node, "axis")

        def run(tape: list) -> None:
            nd = tape[i]
            g = nd.grad
            if g is not None:
                axis = nd._vjp.__closure__[k_axis].cell_contents
                grads = np.moveaxis(g, axis, 0)
                for slot, view in edges:
                    _sink_passthrough(nd._prev[slot], view, grads[slot])
                _fire_hooks(nd)
                nd.grad = None
        self.plan.entries.append(run)


# ---------------------------------------------------------------------------
# Fingerprinting
# ---------------------------------------------------------------------------


def _fingerprint(tape: list[Tensor], root: Tensor) -> tuple | None:
    """Structural identity of a captured step graph.

    Encodes, per node: VJP code identity, result shape/dtype, and the wiring
    of each parent (tape index for captured parents; shape/dtype for leaves)
    plus the parent's requires-grad bit (conditional gradient flow inside
    closures keys off it).  Values (weights, masks, indices) are deliberately
    excluded — they may change every step under one plan.
    """
    root_idx = getattr(root, "_tape_idx", -1)
    if not (0 <= root_idx < len(tape) and tape[root_idx] is root):
        return None
    parts: list = [root_idx]
    append = parts.append
    for i, node in enumerate(tape):
        append(id(node._vjp.__code__))
        append(node.data.dtype.num)
        append(node.data.shape)
        for p in node._prev:
            pi = getattr(p, "_tape_idx", -1)
            if 0 <= pi < i and tape[pi] is p:
                append(pi * 2 + (1 if p.requires_grad else 0))
            else:
                append(-1)
                append(p.data.dtype.num)
                append(p.data.shape)
                append(p.requires_grad)
        append(-9)
    return tuple(parts)


# ---------------------------------------------------------------------------
# The public executor
# ---------------------------------------------------------------------------


class StepExecutor:
    """Capture-compile-replay driver for one training-step call site.

    Usage::

        executor = StepExecutor()
        ...
        loss = executor.step(lambda: loss_fn(model, batch),
                             pre_backward=model.zero_grad)

    Under any kernel mode except ``compiled`` this is exactly
    ``loss = forward(); pre_backward(); loss.backward(seed)``.  Under
    ``compiled`` the forward is captured, the step graph fingerprinted, and
    identical steps replay a compiled plan; mismatches (partial batches,
    graph changes) transparently fall back to eager execution.
    """

    MAX_PLANS = 64

    def __init__(self, name: str = "step", *, release_tape: bool = True):
        self.name = name
        self.release_tape = release_tape
        self._plans: dict[tuple, _Plan] = {}
        self.hits = 0
        self.misses = 0
        self.fallbacks = 0

    # -- metrics -----------------------------------------------------------

    def _metrics(self):
        from ..telemetry import current_metrics

        return current_metrics()

    def _record_step(self, kind: str) -> None:
        m = self._metrics()
        m.counter(f"compile_cache_{kind}").inc()
        total = self.hits + self.misses + self.fallbacks
        if total:
            m.gauge("compile_cache_hit_rate").set(self.hits / total)

    def _record_plan(self, plan: _Plan) -> None:
        m = self._metrics()
        m.gauge("compile_plans").set(len(self._plans))
        m.gauge("compile_peak_grad_bytes").set(
            max((p.peak_grad_bytes for p in self._plans.values()), default=0))
        m.gauge("compile_plan_slab_bytes").set(
            sum(p.slab_bytes for p in self._plans.values()))
        m.gauge("compile_fused_chains").set(
            sum(p.fused_chains for p in self._plans.values()))
        from ..telemetry import current_events

        current_events().publish(
            "compile_plan", executor=self.name, nodes=plan.n_nodes,
            registry_nodes=plan.registry_nodes, closure_nodes=plan.closure_nodes,
            fused_chains=plan.fused_chains, fused_links=plan.fused_links,
            peak_grad_bytes=plan.peak_grad_bytes, slab_bytes=plan.slab_bytes,
        )

    def stats(self) -> dict[str, Any]:
        plans = [p for p in self._plans.values() if p is not _UNCOMPILABLE]
        return {
            "hits": self.hits,
            "misses": self.misses,
            "fallbacks": self.fallbacks,
            "hit_rate": self.hits / max(self.hits + self.misses + self.fallbacks, 1),
            "plans": len(plans),
            "peak_grad_bytes": max((p.peak_grad_bytes for p in plans), default=0),
            "slab_bytes": sum(p.slab_bytes for p in plans),
            "fused_chains": sum(p.fused_chains for p in plans),
            "fused_links": sum(p.fused_links for p in plans),
            "registry_nodes": sum(p.registry_nodes for p in plans),
            "closure_nodes": sum(p.closure_nodes for p in plans),
        }

    # -- the step ----------------------------------------------------------

    def step(self, forward: Callable[[], Tensor],
             seed: np.ndarray | None = None, *,
             pre_backward: Callable[[], None] | None = None) -> Tensor:
        """Run ``forward()`` then backpropagate from its result.

        ``pre_backward`` (e.g. ``model.zero_grad``) runs between the forward
        and the backward, exactly as in the eager training-loop idiom.
        """
        if kernel_mode() != "compiled":
            loss = forward()
            if pre_backward is not None:
                pre_backward()
            loss.backward(seed, release_tape=self.release_tape)
            return loss

        tape: list[Tensor] = []
        previous = _tensor_module._set_tape(tape)
        try:
            loss = forward()
        finally:
            _tensor_module._set_tape(previous)
        if pre_backward is not None:
            pre_backward()

        fp = _fingerprint(tape, loss)
        if fp is None:
            self.fallbacks += 1
            self._record_step("fallbacks")
            loss.backward(seed, release_tape=self.release_tape)
            return loss

        plan = self._plans.get(fp)
        if plan is None:
            if len(self._plans) >= self.MAX_PLANS:
                self.fallbacks += 1
                self._record_step("fallbacks")
                loss.backward(seed, release_tape=self.release_tape)
                return loss
            built = _PlanBuilder(tape, loss).build(seed)
            if built is None:
                self._plans[fp] = _UNCOMPILABLE
                self.fallbacks += 1
                self._record_step("fallbacks")
                loss.backward(seed, release_tape=self.release_tape)
                return loss
            self._plans[fp] = built
            self.misses += 1
            self._record_step("misses")
            self._record_plan(built)
            if self.release_tape:
                built.release(tape)
            return loss

        if plan is _UNCOMPILABLE:
            self.fallbacks += 1
            self._record_step("fallbacks")
            loss.backward(seed, release_tape=self.release_tape)
            return loss

        if plan.replay(tape, loss, seed):
            self.hits += 1
            self._record_step("hits")
            if self.release_tape:
                plan.release(tape)
        else:
            self.fallbacks += 1
            self._record_step("fallbacks")
            loss.backward(seed, release_tape=self.release_tape)
        return loss
