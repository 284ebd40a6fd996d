"""Data-parallel training-system simulator (the §5 scaling-study substrate)."""

from .hardware import ChipSpec, Interconnect, SystemConfig
from .convergence import CriticalBatchModel, fit_critical_batch
from .simulator import WorkloadProfile, optimal_batch_search, simulate_time_to_train, step_time
from .dataparallel import SynchronousDataParallel, shard_batch
from .rounds import (
    Entry,
    REFERENCE_CHIP,
    REFERENCE_FABRIC,
    ROUND_V05,
    ROUND_V06,
    Round,
    RoundBenchmarkRules,
    SCALING_BENCHMARKS,
    best_entry_at_scale,
    fastest_overall_entry,
    figure4_speedups,
    figure5_scale_growth,
)

__all__ = [
    "SynchronousDataParallel",
    "shard_batch",
    "ChipSpec",
    "Interconnect",
    "SystemConfig",
    "CriticalBatchModel",
    "fit_critical_batch",
    "WorkloadProfile",
    "optimal_batch_search",
    "simulate_time_to_train",
    "step_time",
    "Entry",
    "REFERENCE_CHIP",
    "REFERENCE_FABRIC",
    "ROUND_V05",
    "ROUND_V06",
    "Round",
    "RoundBenchmarkRules",
    "SCALING_BENCHMARKS",
    "best_entry_at_scale",
    "fastest_overall_entry",
    "figure4_speedups",
    "figure5_scale_growth",
]
