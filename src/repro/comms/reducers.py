"""All-reduce algorithms over flat gradient buckets.

Two classic topologies are implemented behind one :class:`Reducer`
interface — ``flat`` (a single root gathers everything) and ``ring``
(each rank owns one contiguous chunk of every bucket).  In shared memory
any other owner order over the same equal chunks gives each worker the
same work, so other schedules (e.g. a binary-tree owner order) would only
permute ``ring``'s owners.

**The determinism contract (§2.2.4).**  Floating-point addition is not
associative, and the paper's mathematical-equivalence requirement means a
submission may not silently change summation order between runs or
topologies.  Every reducer here therefore performs the *arithmetic* in one
canonical order — worker contributions chained in ascending rank order,
``((g0 + g1) + g2) + ...`` — exactly the order the in-process
:class:`~repro.systems.dataparallel.SynchronousDataParallel` accumulates
shards in.  Algorithms differ only in their *schedule*: which rank reduces
which chunk, and in what round structure the results are gathered.  That
is how deterministic all-reduce is done in practice (topology-aware
scheduling around a fixed combining order), and it is what makes ``flat``
and ``ring`` bit-identical to each other and to the single-process engine
for every worker count — a property the test suite enforces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["Chunk", "Reducer", "FlatReducer", "RingReducer", "REDUCERS",
           "make_reducer", "reduce_chunk"]

# The parent process (rank -1) rather than a pool worker owns a chunk.
PARENT = -1


@dataclass(frozen=True)
class Chunk:
    """One contiguous slice of a flat bucket, reduced by one owner."""

    start: int
    stop: int
    owner: int  # worker rank, or PARENT for the coordinating process

    @property
    def size(self) -> int:
        return self.stop - self.start


def reduce_chunk(out: np.ndarray, contribs: Sequence[np.ndarray],
                 start: int, stop: int) -> None:
    """Sum ``contribs[w][start:stop]`` into ``out[start:stop]`` canonically.

    The chain runs in ascending rank order — the one summation order every
    algorithm shares.  ``out`` may alias ``contribs[0]`` (never any other
    contribution).
    """
    view = out[start:stop]
    np.copyto(view, contribs[0][start:stop])
    for contrib in contribs[1:]:
        view += contrib[start:stop]


def _even_chunks(n_elements: int, n_chunks: int) -> list[tuple[int, int]]:
    """Split ``[0, n_elements)`` into ``n_chunks`` near-equal spans."""
    base, extra = divmod(n_elements, n_chunks)
    spans, start = [], 0
    for c in range(n_chunks):
        stop = start + base + (1 if c < extra else 0)
        spans.append((start, stop))
        start = stop
    return spans


class Reducer:
    """Strategy interface: schedule chunks, then reduce them canonically."""

    name: str = "abstract"

    def chunks(self, n_elements: int, num_workers: int) -> list[Chunk]:
        """The reduction schedule for one bucket of ``n_elements``."""
        raise NotImplementedError

    def reduce(self, out: np.ndarray, contribs: Sequence[np.ndarray]) -> None:
        """Reduce a whole bucket in-process (the inline backend's path)."""
        for chunk in self.chunks(out.size, len(contribs)):
            reduce_chunk(out, contribs, chunk.start, chunk.stop)


class FlatReducer(Reducer):
    """One root reduces every bucket whole.

    In the process backend the *parent* is the root: it drains buckets as
    they become ready while workers are still inside their backward pass —
    the simplest overlap scheme, at the cost of serializing all reduction
    arithmetic on one process.
    """

    name = "flat"

    def chunks(self, n_elements: int, num_workers: int) -> list[Chunk]:
        return [Chunk(0, n_elements, PARENT)]


class RingReducer(Reducer):
    """Ring reduce-scatter: rank ``w`` owns chunk ``w`` of every bucket.

    Each worker reduces 1/W of every bucket, so the arithmetic itself is
    spread across the pool (the bandwidth-optimal property of ring
    all-reduce), and the gathered result lands in the shared output
    segment — the all-gather half of the ring is a no-op in shared memory.
    """

    name = "ring"

    def chunks(self, n_elements: int, num_workers: int) -> list[Chunk]:
        return [
            Chunk(start, stop, w)
            for w, (start, stop) in enumerate(_even_chunks(n_elements, num_workers))
        ]


REDUCERS: dict[str, type[Reducer]] = {
    cls.name: cls for cls in (FlatReducer, RingReducer)
}


def make_reducer(name: str) -> Reducer:
    """Instantiate a reducer by algorithm name (``flat``/``ring``)."""
    try:
        return REDUCERS[name]()
    except KeyError:
        raise ValueError(
            f"unknown reduction algorithm {name!r}; pick one of {sorted(REDUCERS)}"
        ) from None
