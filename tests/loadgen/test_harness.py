"""Harness replay, constraint verdicts, and the max-QPS binary search."""

import zlib

import numpy as np
import pytest

from repro.loadgen import (
    ConstraintSpec,
    ScenarioSpec,
    find_max_qps,
    run_scenario,
    percentile,
    virtual_service_times,
)
from repro.loadgen.harness import _verdict
from repro.loadgen.scenarios import SCENARIO_NAMES
from repro.loadgen.sut import SUTInfo


class StubSUT:
    """Just enough SUT surface for the harness: pool, predict, provenance."""

    def __init__(self, benchmark="stub", pool_size=64):
        self.info = SUTInfo(benchmark=benchmark, seed=0, quality=1.0,
                            epochs=1, source="<memory>")
        self.pool_size = pool_size

    def predict(self, indices):
        return np.asarray(indices, dtype=np.float64) * 2.0


class TestVerdict:
    def _spec(self, **constraint):
        return ScenarioSpec(scenario="offline", query_count=8,
                            constraint=ConstraintSpec(**constraint))

    def test_exactly_at_bound_is_valid(self):
        spec = self._spec(latency_percentile=99.0, latency_bound_s=0.05)
        valid, violations, pcts = _verdict(spec, [0.05] * 10, achieved_qps=100.0)
        assert valid and not violations
        assert pcts["p99"] == 0.05

    def test_just_over_bound_is_invalid(self):
        spec = self._spec(latency_percentile=99.0, latency_bound_s=0.05)
        valid, violations, _ = _verdict(spec, [0.05] * 9 + [0.0500001], 100.0)
        assert not valid
        assert any("exceeds" in v for v in violations)

    def test_empty_window_is_invalid(self):
        valid, violations, pcts = _verdict(self._spec(), [], achieved_qps=0.0)
        assert not valid
        assert pcts == {}
        assert any("empty measurement window" in v for v in violations)

    def test_min_qps_boundary(self):
        spec = self._spec(min_qps=50.0)
        assert _verdict(spec, [0.01] * 4, achieved_qps=50.0)[0]
        valid, violations, _ = _verdict(spec, [0.01] * 4, achieved_qps=49.9)
        assert not valid and any("below minimum" in v for v in violations)

    def test_min_queries(self):
        spec = self._spec(min_queries=5)
        assert _verdict(spec, [0.01] * 5, 1.0)[0]
        valid, violations, _ = _verdict(spec, [0.01] * 4, 1.0)
        assert not valid and any("constraint requires" in v for v in violations)

    def test_violations_accumulate(self):
        spec = self._spec(latency_percentile=50.0, latency_bound_s=0.001,
                          min_qps=1e6, min_queries=100)
        valid, violations, _ = _verdict(spec, [1.0] * 3, achieved_qps=3.0)
        assert not valid and len(violations) == 3


class TestRunScenario:
    def test_single_stream_latency_equals_service_time(self):
        sut = StubSUT()
        spec = ScenarioSpec(scenario="single_stream", query_count=32,
                            warmup_queries=4)
        result = run_scenario(sut, spec, seed=5, timing="virtual")
        service = virtual_service_times(
            32, 5, stream=SCENARIO_NAMES.index("single_stream"),
            salt=zlib.crc32(b"stub"))
        window = service[4:].tolist()
        assert result.measured_count == 28
        # latency = (arrival + s) - arrival: equal to s up to one rounding.
        for p in (50, 90, 99):
            assert result.percentiles[f"p{p}"] == pytest.approx(
                percentile(window, p), rel=1e-12)

    def test_same_seed_rerun_bit_identical(self):
        spec = ScenarioSpec(scenario="server", query_count=48,
                            warmup_queries=4, target_qps=120.0,
                            constraint=ConstraintSpec(latency_bound_s=0.1))
        a = run_scenario(StubSUT(), spec, seed=11, timing="virtual")
        b = run_scenario(StubSUT(), spec, seed=11, timing="virtual")
        assert a.to_payload() == b.to_payload()

    def test_different_benchmark_decorrelates_latencies(self):
        spec = ScenarioSpec(scenario="offline", query_count=32)
        a = run_scenario(StubSUT(benchmark="alpha"), spec, timing="virtual")
        b = run_scenario(StubSUT(benchmark="beta"), spec, timing="virtual")
        assert a.percentiles != b.percentiles

    def test_checksum_tracks_predictions(self):
        class OtherSUT(StubSUT):
            def predict(self, indices):
                return np.asarray(indices, dtype=np.float64) * 3.0

        spec = ScenarioSpec(scenario="offline", query_count=16)
        a = run_scenario(StubSUT(), spec, timing="virtual")
        b = run_scenario(OtherSUT(), spec, timing="virtual")
        assert a.prediction_checksum != b.prediction_checksum

    def test_wall_timing_measures_real_clock(self):
        spec = ScenarioSpec(scenario="offline", query_count=8)
        result = run_scenario(StubSUT(), spec, timing="wall")
        assert result.measured_count == 8
        assert all(v >= 0.0 for v in result.percentiles.values())

    def test_unknown_timing_mode_raises(self):
        spec = ScenarioSpec(scenario="offline", query_count=8)
        with pytest.raises(ValueError, match="timing"):
            run_scenario(StubSUT(), spec, timing="cpu")

    def test_warmup_discarded_from_window(self):
        spec = ScenarioSpec(scenario="offline", query_count=20,
                            warmup_queries=15)
        result = run_scenario(StubSUT(), spec, timing="virtual")
        assert result.query_count == 20
        assert result.measured_count == 5


class TestFindMaxQps:
    def _spec(self, bound=0.05, n=64):
        return ScenarioSpec(
            scenario="server", query_count=n, warmup_queries=4,
            target_qps=50.0,
            constraint=ConstraintSpec(latency_percentile=99.0,
                                      latency_bound_s=bound,
                                      min_queries=n // 2))

    def test_deterministic_same_seed(self):
        a = find_max_qps(StubSUT(), self._spec(), seed=2, timing="virtual")
        b = find_max_qps(StubSUT(), self._spec(), seed=2, timing="virtual")
        assert a == b
        assert a > 0.0

    def test_tighter_bound_lower_qps(self):
        loose = find_max_qps(StubSUT(), self._spec(bound=0.05), timing="virtual")
        tight = find_max_qps(StubSUT(), self._spec(bound=0.004), timing="virtual")
        assert tight < loose

    def test_found_rate_is_actually_sustainable(self):
        spec = self._spec(bound=0.01)
        qps = find_max_qps(StubSUT(), spec, timing="virtual")
        result = run_scenario(StubSUT(), spec.at_qps(qps), timing="virtual")
        assert result.valid, result.violations

    def test_unbounded_constraint_saturates_cap(self):
        spec = ScenarioSpec(
            scenario="server", query_count=32, target_qps=10.0,
            constraint=ConstraintSpec(latency_bound_s=None, min_queries=1))
        assert find_max_qps(StubSUT(), spec, timing="virtual",
                            hi_qps=500.0) == 500.0
