"""Multi-core data-parallel communication engine.

The real-hardware counterpart of the in-process simulation in
:mod:`repro.systems.dataparallel`: a persistent forked worker pool over
``multiprocessing.shared_memory`` (:mod:`repro.comms.shm`), gradients
coalesced into flat buckets (:mod:`repro.comms.bucketing`), reduced by
selectable ``flat``/``ring`` algorithms that share one canonical
arithmetic order (:mod:`repro.comms.reducers`) so every topology and
worker count is bit-identical to ``SynchronousDataParallel`` — the
§2.2.4 mathematical-equivalence requirement.  ``ShardedDataParallel``
(:mod:`repro.comms.engine`) ties it together; :mod:`repro.comms.bench`
measures it (``repro bench-comms``).
"""

from .bucketing import (
    DEFAULT_BUCKET_BYTES,
    Bucket,
    BucketLayout,
    BucketWriter,
    ParamSlot,
    assign_buckets,
)
from .engine import ShardedDataParallel, process_backend_available
from .reducers import (
    REDUCERS,
    Chunk,
    FlatReducer,
    Reducer,
    RingReducer,
    make_reducer,
    reduce_chunk,
)
from .shm import BatchBoard, Segment, aligned_offsets

__all__ = [
    "DEFAULT_BUCKET_BYTES",
    "Bucket",
    "BucketLayout",
    "BucketWriter",
    "ParamSlot",
    "assign_buckets",
    "ShardedDataParallel",
    "process_backend_available",
    "REDUCERS",
    "Chunk",
    "FlatReducer",
    "Reducer",
    "RingReducer",
    "make_reducer",
    "reduce_chunk",
    "BatchBoard",
    "Segment",
    "aligned_offsets",
]
