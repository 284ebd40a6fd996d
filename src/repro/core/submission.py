"""Submissions: divisions, categories, system descriptions (§4).

An MLPerf submission consists of a system description, training-session
log files, and the code needed to reproduce them (§4.1).  Labels (§4.2):

- **division**: Closed (workload equivalence, restricted hyperparameters)
  or Open (innovative solutions; same dataset and metric only);
- **category**: Available / Preview / Research, by hardware+software
  availability;
- **system type**: On-Premise or Cloud.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from .runner import RunResult

__all__ = ["Division", "Category", "SystemType", "SystemDescription", "Submission"]


class Division(enum.Enum):
    """§4.2.1 submission divisions."""

    CLOSED = "closed"
    OPEN = "open"


class Category(enum.Enum):
    """§4.2.2 system categories."""

    AVAILABLE = "available"
    PREVIEW = "preview"
    RESEARCH = "research"


class SystemType(enum.Enum):
    ON_PREMISE = "on_premise"
    CLOUD = "cloud"


@dataclass(frozen=True)
class SystemDescription:
    """Hardware + software description (§4.1).

    "System description includes both the hardware description (number of
    nodes, processor and accelerator counts and types, storage per node,
    network interconnect) and software description (operating system,
    libraries and their versions)."
    """

    submitter: str
    system_name: str
    system_type: SystemType
    num_nodes: int
    processors_per_node: int
    processor_type: str
    accelerators_per_node: int
    accelerator_type: str
    host_memory_gb: float
    interconnect: str
    software_stack: dict[str, str] = field(default_factory=dict)
    # Availability attributes used by category rules (§4.2.2).
    hardware_available: bool = True
    software_versioned_and_supported: bool = True

    @property
    def total_accelerators(self) -> int:
        return self.num_nodes * self.accelerators_per_node

    @property
    def total_processors(self) -> int:
        return self.num_nodes * self.processors_per_node


@dataclass
class Submission:
    """One submitter's entry: system + per-benchmark run sets + code ref."""

    system: SystemDescription
    division: Division
    category: Category
    runs: dict[str, list[RunResult]] = field(default_factory=dict)
    code_url: str = ""
    notes: str = ""

    def add_runs(self, benchmark: str, results: list[RunResult]) -> None:
        self.runs.setdefault(benchmark, []).extend(results)

    def validate_category(self) -> list[str]:
        """Category self-consistency checks (§4.2.2).

        Available requires purchasable/rentable hardware and versioned,
        supported software; Preview/Research carry no such requirement.
        Returns human-readable issues (empty = consistent).
        """
        issues: list[str] = []
        if self.category is Category.AVAILABLE:
            if not self.system.hardware_available:
                issues.append("Available category requires hardware availability")
            if not self.system.software_versioned_and_supported:
                issues.append("Available category requires versioned, supported software")
        return issues
