"""The issue/complete loop: latencies, verdicts, and the max-QPS search.

One scenario run has three parts:

1. **Serve.**  Every generated query's prediction is actually computed
   in one batch through the SUT, and the predictions are checksummed so
   reruns can prove they served identical answers.
2. **Service times.**  ``timing="wall"`` measures each query's forward
   pass on the monotonic clock; ``timing="virtual"`` draws per-query
   service times from the SUT's seeded service model instead
   (:func:`~repro.loadgen.sut.virtual_service_times`), which makes every
   derived statistic bit-identical across reruns and machines — the mode
   CI's smoke gate and the determinism tests run in.
3. **Replay.**  Latency is computed by a deterministic single-server
   queueing replay over (arrival, service) pairs: single_stream arrivals
   chain on the previous completion, server arrivals follow the
   generated Poisson schedule, offline arrivals are all zero.  Replay, not sleeping, is
   what lets the Server constraint be probed at any target QPS without
   real-time waiting — the binary search in :func:`find_max_qps` runs
   hundreds of virtual seconds of traffic in microseconds.

Warmup queries are served and timed but discarded from the measured
window, mirroring the Inference rules' burn-in.

A scenario run records nothing beside the :class:`ScenarioResult` it
returns: the ``repro loadgen`` payload (:mod:`~repro.loadgen.report`)
is a serving session's one record.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from .scenarios import Query, ScenarioSpec, make_queries, percentile
from .sut import SUT, virtual_service_times

__all__ = ["QueryRecord", "ScenarioResult", "run_scenario", "find_max_qps",
           "REPORTED_PERCENTILES"]

REPORTED_PERCENTILES = (50.0, 90.0, 99.0)


@dataclass(frozen=True)
class QueryRecord:
    """One completed query, replayed: when it arrived, how long it took."""

    index: int
    arrival_s: float
    latency_s: float
    warmup: bool


@dataclass
class ScenarioResult:
    """Everything one scenario run measured, plus its verdict."""

    scenario: str
    benchmark: str
    seed: int
    timing: str
    query_count: int
    measured_count: int
    percentiles: dict[str, float] = field(default_factory=dict)
    achieved_qps: float = 0.0
    valid: bool = False
    violations: list[str] = field(default_factory=list)
    prediction_checksum: int = 0
    max_qps: float | None = None  # server only: binary-search result

    def to_payload(self) -> dict:
        return {
            "scenario": self.scenario,
            "benchmark": self.benchmark,
            "seed": self.seed,
            "timing": self.timing,
            "query_count": self.query_count,
            "measured_count": self.measured_count,
            "percentiles": dict(self.percentiles),
            "achieved_qps": self.achieved_qps,
            "valid": self.valid,
            "violations": list(self.violations),
            "prediction_checksum": self.prediction_checksum,
            "max_qps": self.max_qps,
        }


def _replay(queries: list[Query], service_s: np.ndarray,
            scenario: str) -> list[QueryRecord]:
    """Deterministic single-server queueing replay over (arrival, service).

    Each query starts at ``max(arrival, previous completion)``; latency is
    completion minus arrival.  With chained arrivals (single_stream)
    latency equals service time exactly, which is what the scenario means.
    """
    records = []
    done = 0.0
    for q, s in zip(queries, service_s):
        arrival = done if scenario == "single_stream" else q.issue_s
        done = max(arrival, done) + float(s)
        records.append(QueryRecord(index=q.index, arrival_s=arrival,
                                   latency_s=done - arrival, warmup=False))
    return records


def _achieved_qps(measured: list[QueryRecord]) -> float:
    """Measured queries over the span from first arrival to last completion."""
    if not measured:
        return 0.0
    span = (max(r.arrival_s + r.latency_s for r in measured)
            - min(r.arrival_s for r in measured))
    return len(measured) / span if span > 0 else float(len(measured))


def _verdict(spec: ScenarioSpec, latencies: list[float],
             achieved_qps: float) -> tuple[bool, list[str], dict[str, float]]:
    """Apply the constraint to the measured window; boundary is inclusive."""
    c = spec.constraint
    violations: list[str] = []
    pcts: dict[str, float] = {}
    if not latencies:
        return False, ["empty measurement window (no post-warmup queries)"], pcts
    for p in REPORTED_PERCENTILES:
        pcts[f"p{p:g}"] = percentile(latencies, p)
    bound_pct = percentile(latencies, c.latency_percentile)
    pcts[f"p{c.latency_percentile:g}"] = bound_pct
    if c.latency_bound_s is not None and bound_pct > c.latency_bound_s:
        violations.append(
            f"p{c.latency_percentile:g} latency {bound_pct:.6f}s exceeds "
            f"bound {c.latency_bound_s:.6f}s")
    if achieved_qps < c.min_qps:
        violations.append(
            f"achieved {achieved_qps:.3f} QPS below minimum {c.min_qps:.3f}")
    if len(latencies) < c.min_queries:
        violations.append(
            f"measured {len(latencies)} queries, constraint requires "
            f">= {c.min_queries}")
    return not violations, violations, pcts


def _measure_service_times(sut: SUT, queries: list[Query], timing: str,
                           seed: int, scenario: str) -> np.ndarray:
    indices = np.array([q.index for q in queries], dtype=np.int64)
    if timing == "virtual":
        from .scenarios import SCENARIO_NAMES

        return virtual_service_times(
            len(queries), seed, stream=SCENARIO_NAMES.index(scenario),
            salt=zlib.crc32(sut.info.benchmark.encode()))
    if timing != "wall":
        raise ValueError(f"unknown timing mode {timing!r}")
    service = np.empty(len(queries))
    for i, idx in enumerate(indices):
        t0 = time.monotonic()
        sut.predict(idx[None])
        service[i] = time.monotonic() - t0
    return service


def run_scenario(sut: SUT, spec: ScenarioSpec, *, seed: int = 0,
                 timing: str = "virtual") -> ScenarioResult:
    """Run one scenario against a SUT and return its measured result."""
    queries = make_queries(spec, sut.pool_size, seed)

    # Serve every query for real in one batch; the checksum proves reruns
    # answer identically.
    indices = np.array([q.index for q in queries], dtype=np.int64)
    predictions = sut.predict(indices)
    checksum = zlib.crc32(np.ascontiguousarray(predictions).tobytes())

    service_s = _measure_service_times(sut, queries, timing, seed,
                                       spec.scenario)
    records = _replay(queries, service_s, spec.scenario)
    warm = spec.warmup_queries
    measured = records[warm:]
    latencies = [r.latency_s for r in measured]
    achieved_qps = _achieved_qps(measured)
    valid, violations, pcts = _verdict(spec, latencies, achieved_qps)

    return ScenarioResult(
        scenario=spec.scenario, benchmark=sut.info.benchmark, seed=seed,
        timing=timing, query_count=len(queries), measured_count=len(measured),
        percentiles=pcts, achieved_qps=achieved_qps, valid=valid,
        violations=violations, prediction_checksum=checksum,
    )


def find_max_qps(sut: SUT, server_spec: ScenarioSpec, *, seed: int = 0,
                 timing: str = "virtual", iterations: int = 12,
                 hi_qps: float = 1e4) -> float:
    """Max sustainable QPS under the Server constraint, by binary search.

    Service times are obtained once (measured or virtual); each probe
    regenerates the Poisson arrival schedule at the probe rate with the
    same seed and replays the queue — validity is monotone in the arrival
    rate for a fixed service-time sequence, so bisection converges.  The
    bracket grows geometrically from the spec's target until a probe
    fails (capped at ``hi_qps``); a fixed iteration count keeps the
    result deterministic to a resolution of ``bracket / 2**iterations``.
    """
    service_s = _measure_service_times(
        sut, make_queries(server_spec, sut.pool_size, seed), timing, seed,
        "server")

    def probe(qps: float) -> bool:
        spec = server_spec.at_qps(qps)
        queries = make_queries(spec, sut.pool_size, seed)
        measured = _replay(queries, service_s, "server")[spec.warmup_queries:]
        valid, _, _ = _verdict(spec, [r.latency_s for r in measured],
                               _achieved_qps(measured))
        return valid

    lo = 0.0
    hi = float(server_spec.target_qps or 1.0)
    if probe(hi):
        # Nominal target holds; grow the bracket until a rate fails.
        lo = hi
        while hi < hi_qps:
            hi = min(hi * 2.0, hi_qps)
            if probe(hi):
                lo = hi
            else:
                break
        if lo >= hi_qps:
            return hi_qps  # valid all the way to the cap
    for _ in range(int(iterations)):
        mid = (lo + hi) / 2.0
        if probe(mid):
            lo = mid
        else:
            hi = mid
    return lo
