"""Hardware models for the training-system simulator.

The paper's §5 results compare systems spanning orders of magnitude in
chip count.  We model the three quantities that drive data-parallel
time-to-train:

- per-chip compute throughput (with a fixed per-step launch overhead, so
  small local batches waste utilization — the reason scale-out wants big
  global batches),
- interconnect bandwidth/latency for gradient all-reduce,
- the software stack's efficiency multiplier (the thing that improved
  between v0.5 and v0.6 — "much of the performance and scaling
  improvements were incorporated into the underlying software
  infrastructure").
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ChipSpec", "Interconnect", "SystemConfig"]


@dataclass(frozen=True)
class ChipSpec:
    """One accelerator chip."""

    name: str
    samples_per_second: float  # throughput at full utilization
    step_overhead_s: float  # fixed per-step cost (kernel launch, sync)
    max_local_batch: int  # memory-capacity limit per chip

    def compute_time(self, local_batch: float, software_efficiency: float = 1.0) -> float:
        """Seconds for one training step on ``local_batch`` samples."""
        if local_batch <= 0:
            raise ValueError("local batch must be positive")
        effective = self.samples_per_second * software_efficiency
        return self.step_overhead_s + local_batch / effective


@dataclass(frozen=True)
class Interconnect:
    """All-reduce fabric: ring all-reduce cost model."""

    name: str
    bandwidth_bytes_per_s: float
    latency_s: float

    def allreduce_time(self, num_chips: int, payload_bytes: float) -> float:
        """Ring all-reduce: ``2 (n-1)/n * S / B + 2 (n-1) * alpha``."""
        if num_chips < 1:
            raise ValueError("need at least one chip")
        if num_chips == 1:
            return 0.0
        n = num_chips
        transfer = 2.0 * (n - 1) / n * payload_bytes / self.bandwidth_bytes_per_s
        latency = 2.0 * (n - 1) * self.latency_s
        return transfer + latency

    def parameter_server_time(self, num_chips: int, payload_bytes: float,
                              num_servers: int = 1) -> float:
        """Centralized parameter-server aggregation (the ablation baseline).

        Every worker pushes its gradient to and pulls parameters from the
        server tier, whose ingress bandwidth is the bottleneck:
        ``2 * S * n / (k * B)`` plus one round-trip of latency.  Unlike the
        ring, per-step time grows linearly with worker count.
        """
        if num_chips < 1:
            raise ValueError("need at least one chip")
        if num_servers < 1:
            raise ValueError("need at least one server")
        if num_chips == 1:
            return 0.0
        transfer = 2.0 * payload_bytes * num_chips / (num_servers * self.bandwidth_bytes_per_s)
        return transfer + 2.0 * self.latency_s


@dataclass(frozen=True)
class SystemConfig:
    """A data-parallel training system."""

    chip: ChipSpec
    num_chips: int
    interconnect: Interconnect
    software_efficiency: float = 1.0
