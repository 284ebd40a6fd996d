"""Collective communication for data-parallel training.

The one collective the suite runs is the gradient all-reduce of
synchronous data parallelism (``allreduce.py``), driven by
:class:`~repro.systems.dataparallel.SynchronousDataParallel`.  It runs in
process: the worker shards' gradients are summed in one canonical order,
which is what §2.2.4's mathematical-equivalence rule needs.
"""

from .allreduce import accumulate_grads, all_reduce_mean

__all__ = ["accumulate_grads", "all_reduce_mean"]
