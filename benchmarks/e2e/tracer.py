"""In-memory span recorder and the wrappers that feed it.

The program under test is not edited: spans are recorded around the layers'
public entry points by replacing class attributes and module-level
functions from here, and every replacement is undone by :meth:`Recorder.restore`.
Only the traced pass installs them; end-to-end numbers are measured without.

A span is ``[name, parent, run, start, end]``: ``parent`` indexes the span
that was open when this one started (-1 for a root), ``run`` is the
``workload/benchmark/seed`` the work belongs to, and the prefix of ``name``
before the first dot is the layer (a package under ``src/repro``).
"""

from __future__ import annotations

import functools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter

NAME, PARENT, RUN, START, END = range(5)

# Module.__call__ spans are named by class family, matched on the MRO so
# BatchNorm1d/2d and every pooling layer land in one bucket each.
_FAMILIES = {
    "Conv2d": "conv2d", "_BatchNorm": "batchnorm", "MaxPool2d": "pool",
    "AvgPool2d": "pool", "GlobalAvgPool2d": "pool", "Linear": "linear",
    "LSTMCell": "lstm", "LSTM": "lstm", "MultiHeadAttention": "attention",
    "LayerNorm": "layernorm", "Embedding": "embedding",
}


class Recorder:
    """Span store plus the list of patches to undo."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.run = ""
        self.alloc_bytes = 0
        self._stack: list[int] = []
        self._undo: list = []
        # Spans form one stack; work on another thread is left unrecorded
        # rather than corrupting the nesting.
        self._thread = threading.get_ident()

    # -- recording -----------------------------------------------------------
    def enter(self, name: str) -> int:
        if threading.get_ident() != self._thread:
            return -1
        index = len(self.spans)
        stack = self._stack
        self.spans.append([name, stack[-1] if stack else -1, self.run, 0.0, 0.0])
        stack.append(index)
        self.spans[index][START] = perf_counter()
        return index

    def exit(self, index: int) -> None:
        now = perf_counter()
        if index >= 0:
            self.spans[index][END] = now
            self._stack.pop()

    def count_alloc(self, nbytes: int) -> None:
        self.alloc_bytes += nbytes

    def span(self, name: str) -> "_SpanContext":
        return _SpanContext(self, name)

    def wrap(self, fn, name: str):
        """``fn`` with a span around every call."""
        enter, leave = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(index)

        return traced

    # -- patching ------------------------------------------------------------
    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` (a class or a module) until :meth:`restore`."""
        original = vars(owner)[attr]
        self._undo.append(lambda: setattr(owner, attr, original))
        setattr(owner, attr, replacement)

    def patch_method(self, cls: type, attr: str, name: str) -> None:
        """Wrap ``attr`` on ``cls`` and on every subclass that overrides it."""
        for klass in [cls, *_subclasses(cls)]:
            fn = klass.__dict__.get(attr)
            if callable(fn) and not getattr(fn, "__isabstractmethod__", False):
                self.patch(klass, attr, self.wrap(fn, name))

    def patch_function(self, module: str, attr: str, name: str) -> None:
        """Wrap a module-level function everywhere ``repro`` holds it.

        Callers bind it with ``from x import f``, so the original object is
        replaced in every already-imported ``repro.*`` namespace.
        """
        original = getattr(sys.modules[module], attr)
        traced = self.wrap(original, name)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.patch(mod, key, traced)

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


class _SpanContext:
    __slots__ = ("recorder", "name", "index")

    def __init__(self, recorder: Recorder, name: str) -> None:
        self.recorder, self.name = recorder, name

    def __enter__(self) -> None:
        self.index = self.recorder.enter(self.name)

    def __exit__(self, *exc) -> None:
        self.recorder.exit(self.index)


def _subclasses(cls: type) -> list[type]:
    found: list[type] = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def install(recorder: Recorder) -> None:
    """Put a span around each layer's public entry points.

    Import every ``repro`` module that holds one first (the suite registry
    pulls in the sessions), because only loaded classes can be patched.
    """
    from repro.core import artifacts, runner
    from repro.exec import engine, journal
    from repro.framework import compile as compile_mod, data, module, optim, tensor
    from repro.loadgen import sut
    from repro.models import gnmt, transformer
    from repro.suite import base, registry  # noqa: F401  (loads every session class)
    from repro.telemetry import events

    r = recorder
    r.patch_method(runner.BenchmarkRunner, "run", "core.run")
    r.patch_function(artifacts.__name__, "save_run_result", "core.artifact_save")
    r.patch_function(artifacts.__name__, "load_run_result", "core.artifact_load")

    r.patch_method(base.Benchmark, "prepare_data", "datasets.prepare")
    r.patch_method(base.Benchmark, "create_session", "suite.create_session")
    r.patch_method(base.TrainingSession, "run_epoch", "suite.run_epoch")
    r.patch_method(base.TrainingSession, "evaluate", "suite.evaluate")

    r.patch_method(compile_mod.StepExecutor, "step", "framework.step")
    r.patch_method(tensor.Tensor, "backward", "framework.backward")
    r.patch_method(optim.Optimizer, "step", "framework.optimizer")
    r.patch(data.DataLoader, "__iter__", _traced_iter(r, data.DataLoader.__iter__))
    r.patch(module.Module, "__call__", _traced_call(r, module.Module.__call__))
    previous = tensor.set_alloc_tracker(r.count_alloc)
    r._undo.append(lambda: tensor.set_alloc_tracker(previous))

    r.patch_function("repro.models.roi", "roi_align", "models.roi_align")
    r.patch_method(gnmt.MiniGNMT, "greedy_decode", "models.greedy_decode")
    r.patch_method(transformer.MiniTransformer, "greedy_decode", "models.greedy_decode")
    r.patch_function("repro.metrics.detection", "nms", "metrics.detection")
    r.patch_function("repro.metrics.detection", "mean_average_precision", "metrics.detection")
    r.patch_function("repro.metrics.bleu", "corpus_bleu", "metrics.bleu")
    r.patch_function("repro.metrics.ranking", "leave_one_out_eval", "metrics.ranking")

    from repro.go import mcts
    r.patch_function("repro.go.selfplay", "selfplay_batch", "go.selfplay")
    r.patch_function("repro.go.selfplay", "play_selfplay_game", "go.selfplay_game")
    r.patch_method(mcts.MCTS, "search", "go.mcts_search")

    r.patch_function(engine.__name__, "run_campaign", "exec.run_campaign")
    r.patch_method(journal.CampaignJournal, "flush", "exec.journal_flush")
    r.patch_method(events.EventLog, "write", "telemetry.event_write")
    r.patch_method(events.HeartbeatWriter, "beat", "telemetry.heartbeat_write")
    r.patch_function("repro.telemetry.monitor", "load_monitor_view", "telemetry.monitor_fold")
    r.patch_function("repro.telemetry.alerts", "replay_alerts", "telemetry.alert_replay")

    r.patch_function(sut.__name__, "load_sut", "loadgen.sut_load")
    r.patch_method(sut.SUT, "predict", "loadgen.predict")


@functools.cache
def _family(cls: type) -> str:
    family = next((_FAMILIES[k.__name__] for k in cls.__mro__
                   if k.__name__ in _FAMILIES), "other")
    return f"framework.fwd_{family}"


def _traced_call(recorder: Recorder, original):
    enter, leave = recorder.enter, recorder.exit

    def __call__(self, *args, **kwargs):
        index = enter(_family(type(self)))
        try:
            return original(self, *args, **kwargs)
        finally:
            leave(index)

    return __call__


def _traced_iter(recorder: Recorder, original):
    """Time only the ``next()`` calls: what the step loop waits for data."""
    enter, leave = recorder.enter, recorder.exit

    def __iter__(self):
        batches = original(self)
        while True:
            index = enter("framework.dataloader_next")
            try:
                batch = next(batches)
            except StopIteration:
                return
            finally:
                leave(index)
            yield batch

    return __iter__


# ---------------------------------------------------------------------------
# Reading a recording
# ---------------------------------------------------------------------------

def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: ``count``, ``total_s`` and ``self_s``.

    ``self_s`` is a span's duration minus what its direct children cover.
    ``total_s`` counts a span only when no ancestor has the same name, so a
    method that calls its parent class's version is not counted twice.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    table: dict[str, dict[str, float]] = defaultdict(
        lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0})
    for index, span in enumerate(spans):
        row = table[span[NAME]]
        duration = span[END] - span[START]
        row["count"] += 1
        row["self_s"] += duration - covered[index]
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] != span[NAME]:
            parent = spans[parent][PARENT]
        if parent < 0:
            row["total_s"] += duration
    return dict(table)


def total_under(spans: list[list], name: str, parent_name: str) -> float:
    """Summed duration of ``name`` spans whose direct parent is ``parent_name``."""
    return sum(s[END] - s[START] for s in spans
               if s[NAME] == name and s[PARENT] >= 0
               and spans[s[PARENT]][NAME] == parent_name)


def write_trace(path, payload: dict) -> None:
    """One compact JSON file per traced workload (the spans run to megabytes)."""
    with open(path, "w") as handle:
        json.dump(payload, handle, separators=(",", ":"))
