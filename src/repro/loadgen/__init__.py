"""LoadGen-style serving harness over trained models.

The training suite measures time-to-quality and then leaves the trained
model a dead end; this package gives it the traffic side MLPerf Inference
(Reddi et al.) defines.  A serving run rehydrates a model from a training
artifact (:mod:`~repro.loadgen.sut`), drives it with a seeded query stream
in one of the three §4 scenarios (:mod:`~repro.loadgen.scenarios`),
records per-query latencies against the scenario's declarative constraint
(:mod:`~repro.loadgen.harness`), and reports per-scenario verdicts plus a
``repro.bench_loadgen.v1`` payload the existing ``bench-diff`` regression
gate consumes (:mod:`~repro.loadgen.report`).

Surface: ``repro loadgen --benchmark <name> [--scenario <s>] [--smoke]``.
"""

from .scenarios import (
    SCENARIO_NAMES,
    ConstraintSpec,
    Query,
    ScenarioSpec,
    default_scenarios,
    make_queries,
    percentile,
)
from .sut import SUT, ServingPool, load_sut, train_and_save, virtual_service_times
from .harness import QueryRecord, ScenarioResult, find_max_qps, run_scenario
from .report import (
    LOADGEN_SCHEMA,
    build_loadgen_payload,
    render_loadgen_report,
)

__all__ = [
    "SCENARIO_NAMES",
    "ConstraintSpec",
    "Query",
    "ScenarioSpec",
    "default_scenarios",
    "make_queries",
    "percentile",
    "SUT",
    "ServingPool",
    "load_sut",
    "train_and_save",
    "virtual_service_times",
    "QueryRecord",
    "ScenarioResult",
    "find_max_qps",
    "run_scenario",
    "LOADGEN_SCHEMA",
    "build_loadgen_payload",
    "render_loadgen_report",
]
