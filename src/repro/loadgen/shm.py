"""Shared-memory slots for the multi-process serving pool.

:class:`~repro.loadgen.sut.ServingPool` gives each forked worker one
request slot and one response slot in a shared-memory segment, so
indices and predictions are copied in once and read through views,
never pickled:

- :func:`aligned_offsets` lays out heterogeneous arrays in one segment
  with 64-byte alignment (so every view is safely dtype-aligned and
  cache-line separated);
- :class:`Segment` wraps ``SharedMemory`` with typed views and exactly-once
  cleanup (close, then unlink once).

Forked workers inherit the creator's mappings, so nothing re-attaches.
"""

from __future__ import annotations

from multiprocessing import shared_memory
from typing import Sequence

import numpy as np

__all__ = ["ALIGNMENT", "aligned_offsets", "Segment"]

ALIGNMENT = 64


def _align(offset: int) -> int:
    return (offset + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


def aligned_offsets(specs: Sequence[tuple[tuple[int, ...], np.dtype]]) -> tuple[list[int], int]:
    """Byte offsets (64-byte aligned) for packing ``specs`` into one buffer.

    Returns ``(offsets, total_bytes)``; ``total_bytes`` is at least 1 so a
    zero-spec layout still maps a valid segment.
    """
    offsets, cursor = [], 0
    for shape, dtype in specs:
        cursor = _align(cursor)
        offsets.append(cursor)
        cursor += int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize if shape else np.dtype(dtype).itemsize
    return offsets, max(cursor, 1)


class Segment:
    """One shared-memory segment with ndarray views at fixed offsets."""

    def __init__(self, nbytes: int):
        self.shm = shared_memory.SharedMemory(create=True, size=max(int(nbytes), 1))
        self._owner = True

    def view(self, shape: tuple[int, ...], dtype, offset: int = 0) -> np.ndarray:
        return np.ndarray(shape, dtype=dtype, buffer=self.shm.buf, offset=offset)

    def destroy(self) -> None:
        """Close this handle and unlink the segment (once, however often called)."""
        try:
            self.shm.close()
        except BufferError:  # views still alive; drop our handle lazily
            pass
        if self._owner:
            self._owner = False
            try:
                self.shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
