"""Campaign planning: expand a spec into the (benchmark, seed) job graph.

A *campaign* is every run a submission needs: for each selected benchmark,
the §3.2.2 rule fixes how many independent seeded runs must exist before
the olympic mean is defined (5 for vision, 10 for everything else — the
``required_runs`` column of Table 1).  Planning turns that rule plus any
hyperparameter overrides into an explicit list of :class:`JobSpec` cells
the executor can schedule in any order.

Cell identity is ``(benchmark, seed)`` — the unit of resume bookkeeping.
A retry of a faulted cell keeps its identity but runs under a *reseeded*
RNG stream (``run_seed = seed + RESEED_STRIDE * attempt``) so a failure
tangled with one RNG trajectory does not deterministically recur.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping

__all__ = ["JobSpec", "CampaignSpec", "CampaignPlan", "plan_campaign",
           "RESEED_STRIDE"]

# Prime stride keeps retry streams disjoint from sibling cells' seeds for
# any realistic campaign width.
RESEED_STRIDE = 7919


@dataclass(frozen=True)
class JobSpec:
    """One schedulable run: a (benchmark, seed) cell at a given attempt."""

    benchmark: str
    seed: int
    attempt: int = 0
    overrides: tuple[tuple[str, Any], ...] = ()
    max_epochs: int | None = None
    timeout_s: float | None = None
    # Stable position in the plan — workers use it as the trace/event pid
    # so merged campaign traces keep one process row per cell.
    ordinal: int = 0
    # Campaign journal directory for live event streams; None
    # (e.g. plain `repro run`) disables stream files entirely.
    stream_dir: str | None = None
    # The owning campaign's id, stamped into the job's event stream
    # (``job_start``) so observability consumers can attribute per-job
    # streams without inferring from directory layout.
    campaign_id: str | None = None

    @property
    def cell(self) -> tuple[str, int]:
        return (self.benchmark, self.seed)

    @property
    def run_seed(self) -> int:
        """The RNG seed this attempt actually runs under."""
        return self.seed + RESEED_STRIDE * self.attempt

    def retry(self) -> "JobSpec":
        return replace(self, attempt=self.attempt + 1)

    @property
    def key(self) -> str:
        """Journal key for the cell (attempts share it)."""
        return f"{self.benchmark}/{self.seed}"


@dataclass(frozen=True)
class CampaignSpec:
    """What to run: benchmarks, run counts, overrides, per-job limits.

    ``seeds=None`` (the default) derives each benchmark's run count from
    its ``required_runs`` — the §3.2.2 rule.  An explicit ``seeds`` applies
    to every benchmark; planning flags any benchmark it undershoots.
    """

    benchmarks: tuple[str, ...]
    seeds: int | None = None
    overrides: Mapping[str, Any] | None = None
    max_epochs: int | None = None
    timeout_s: float | None = None

    def __post_init__(self):
        if not self.benchmarks:
            raise ValueError("a campaign needs at least one benchmark")
        if self.seeds is not None and self.seeds < 1:
            raise ValueError("seeds must be >= 1")


@dataclass
class CampaignPlan:
    """The expanded job graph plus planning diagnostics."""

    spec: CampaignSpec
    jobs: list[JobSpec] = field(default_factory=list)
    required: dict[str, int] = field(default_factory=dict)  # benchmark -> §3.2.2 count
    warnings: list[str] = field(default_factory=list)

    @property
    def cells(self) -> set[tuple[str, int]]:
        return {job.cell for job in self.jobs}

    def seeds_for(self, benchmark: str) -> list[int]:
        return sorted(job.seed for job in self.jobs if job.benchmark == benchmark)


def plan_campaign(spec: CampaignSpec, benchmark_specs: Mapping[str, Any]) -> CampaignPlan:
    """Expand a campaign spec against the suite's benchmark specs.

    ``benchmark_specs`` maps name → :class:`~repro.suite.base.BenchmarkSpec`
    (anything with ``required_runs``); unknown benchmark names are an
    immediate planning error, not a runtime fault.
    """
    unknown = [b for b in spec.benchmarks if b not in benchmark_specs]
    if unknown:
        raise KeyError(
            f"unknown benchmark(s) {unknown}; available: {sorted(benchmark_specs)}"
        )
    overrides = tuple(sorted((spec.overrides or {}).items()))
    plan = CampaignPlan(spec=spec)
    for benchmark in spec.benchmarks:
        required = int(benchmark_specs[benchmark].required_runs)
        plan.required[benchmark] = required
        count = spec.seeds if spec.seeds is not None else required
        if count < required:
            plan.warnings.append(
                f"{benchmark}: campaign has {count} run(s) but §3.2.2 requires "
                f"{required} — the result will not be scoreable as official"
            )
        base = len(plan.jobs)
        plan.jobs.extend(
            JobSpec(
                benchmark=benchmark,
                seed=seed,
                overrides=overrides,
                max_epochs=spec.max_epochs,
                timeout_s=spec.timeout_s,
                ordinal=base + seed,
            )
            for seed in range(count)
        )
    return plan
