"""Data pipeline: datasets, seeded shuffling, minibatch loading.

The paper's timing rules (§3.2.1) distinguish *reformatting* (untimed,
done once) from *per-session augmentation* (timed, must not be hoisted out).
:class:`DataLoader` therefore applies augmentation lazily at batch-assembly
time, and the dataset protocol exposes raw samples only.

Epoch traversal is seeded: Figures 2/3 vary only the seed, so the random
data order (one of the paper's named sources of run-to-run variance,
§2.2.3) must be controlled by it.
"""

from __future__ import annotations

import numbers
from typing import Callable, Iterator, Sequence

import numpy as np

__all__ = ["ArrayDataset", "DataLoader", "train_val_split"]


class ArrayDataset:
    """A dataset backed by parallel arrays (features, labels, ...)."""

    def __init__(self, *arrays: np.ndarray):
        if not arrays:
            raise ValueError("need at least one array")
        n = len(arrays[0])
        for a in arrays:
            if len(a) != n:
                raise ValueError("all arrays must have equal length")
        self.arrays = arrays

    def __len__(self) -> int:
        return len(self.arrays[0])

    def __getitem__(self, idx):
        items = tuple(a[idx] for a in self.arrays)
        return items if len(items) > 1 else items[0]


def train_val_split(dataset: ArrayDataset, val_fraction: float, rng: np.random.Generator):
    """Random split into (train, val) ``ArrayDataset`` pair."""
    if not 0.0 < val_fraction < 1.0:
        raise ValueError("val_fraction must be in (0, 1)")
    n = len(dataset)
    perm = rng.permutation(n)
    n_val = max(int(round(n * val_fraction)), 1)
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    train = ArrayDataset(*(a[train_idx] for a in dataset.arrays))
    val = ArrayDataset(*(a[val_idx] for a in dataset.arrays))
    return train, val


class DataLoader:
    """Seeded minibatch iterator with optional per-batch augmentation.

    Each epoch reshuffles with a generator derived from ``(seed, epoch)``,
    so traversal order is reproducible per-run yet differs across epochs.
    ``augment(batch_arrays, rng) -> batch_arrays`` runs inside iteration —
    i.e. inside the timed region, as §3.2.1 requires.  Every batch is a
    fresh ``dataset[idx]`` gather.

    **Epoch semantics.** ``self.epoch`` advances only after a *complete*
    pass; abandoning an iterator early (``break``, ``next()`` probing) does
    not burn an epoch seed, so the next full traversal replays the same
    order.  Use :meth:`set_epoch` to position the schedule explicitly
    (e.g. when resuming a run).
    """

    def __init__(
        self,
        dataset: ArrayDataset | Sequence,
        batch_size: int,
        *,
        shuffle: bool = True,
        seed: int = 0,
        drop_last: bool = False,
        augment: Callable[..., tuple] | None = None,
    ):
        # batch_size may arrive as a hyperparameter override (§4), so a
        # float must not be truncated into a different batch silently.
        if (isinstance(batch_size, bool) or not isinstance(batch_size, numbers.Integral)
                or batch_size <= 0):
            raise ValueError(f"batch_size must be a positive integer, got {batch_size!r}")
        self.dataset = dataset
        self.batch_size = int(batch_size)
        self.shuffle = shuffle
        self.seed = int(seed)
        self.drop_last = drop_last
        self.augment = augment
        self.epoch = 0

    def __len__(self) -> int:
        n = len(self.dataset)
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size

    def set_epoch(self, epoch: int) -> None:
        """Position the shuffle schedule: the next pass uses this epoch's seed."""
        self.epoch = int(epoch)

    def __iter__(self) -> Iterator[tuple]:
        n = len(self.dataset)
        rng = np.random.default_rng((self.seed, self.epoch))
        order = rng.permutation(n) if self.shuffle else np.arange(n)
        for start in range(0, n, self.batch_size):
            idx = order[start : start + self.batch_size]
            if self.drop_last and len(idx) < self.batch_size:
                break
            batch = self.dataset[idx]
            if not isinstance(batch, tuple):
                batch = (batch,)
            if self.augment is not None:
                batch = self.augment(*batch, rng=rng)
                if not isinstance(batch, tuple):
                    batch = (batch,)
            yield batch if len(batch) > 1 else batch[0]
        # Reached only on a completed pass: an abandoned iterator does not
        # advance the schedule (see class docstring).
        self.epoch += 1
