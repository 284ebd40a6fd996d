"""Payload assembly, determinism accounting, and bench-diff's verdicts."""

from repro.loadgen import (
    LOADGEN_SCHEMA,
    ScenarioResult,
    build_loadgen_payload,
    render_loadgen_report,
)
from repro.telemetry import compare_reports


def _result(scenario="server", benchmark="rec", *, valid=True, checksum=111,
            max_qps=200.0, violations=()):
    return ScenarioResult(
        scenario=scenario, benchmark=benchmark, seed=0, timing="virtual",
        query_count=32, measured_count=28,
        percentiles={"p50": 0.002, "p90": 0.003, "p99": 0.004},
        achieved_qps=100.0, valid=valid, violations=list(violations),
        prediction_checksum=checksum,
        max_qps=max_qps if scenario == "server" else None,
    )


class TestBuildPayload:
    def test_checks_block_shape(self):
        payload = build_loadgen_payload(
            {"rec": [_result("single_stream"), _result("server"),
                     _result("offline")]})
        assert payload["schema"] == LOADGEN_SCHEMA
        checks = payload["checks"]
        assert checks["all_valid"] is True
        assert checks["scenario_count"] == 3
        assert checks["min_server_max_qps"] == 200.0
        # No rerun pass supplied -> determinism unproven, not "true".
        assert checks["deterministic"] is None

    def test_invalid_scenario_poisons_all_valid(self):
        payload = build_loadgen_payload(
            {"rec": [_result(valid=False, violations=["p99 too slow"])]})
        assert payload["checks"]["all_valid"] is False

    def test_min_over_server_max_qps(self):
        payload = build_loadgen_payload({
            "rec": [_result("server", max_qps=200.0)],
            "img": [_result("server", benchmark="img", max_qps=80.0)],
        })
        assert payload["checks"]["min_server_max_qps"] == 80.0

    def test_identical_rerun_is_deterministic(self):
        runs = {"rec": [_result("server")]}
        payload = build_loadgen_payload(runs, {"rec": [_result("server")]})
        assert payload["checks"]["deterministic"] is True
        assert payload["benchmarks"]["rec"]["server"]["rerun_identical"]

    def test_checksum_divergence_breaks_determinism(self):
        payload = build_loadgen_payload(
            {"rec": [_result(checksum=111)]},
            {"rec": [_result(checksum=222)]})
        assert payload["checks"]["deterministic"] is False

    def test_wall_timing_tolerates_latency_jitter(self):
        base, rerun = _result(), _result()
        rerun.percentiles = {"p50": 0.0021, "p90": 0.003, "p99": 0.004}
        same_wall = build_loadgen_payload(
            {"rec": [base]}, {"rec": [rerun]}, timing="wall")
        assert same_wall["checks"]["deterministic"] is True  # checksum matched
        same_virtual = build_loadgen_payload(
            {"rec": [base]}, {"rec": [rerun]}, timing="virtual")
        assert same_virtual["checks"]["deterministic"] is False

    def test_rerun_of_unknown_scenario_is_nondeterministic(self):
        payload = build_loadgen_payload(
            {"rec": [_result("server")]}, {"rec": [_result("offline")]})
        assert payload["checks"]["deterministic"] is False


class TestGateFailures:
    """bench-diff fails a payload on each check against a clean baseline."""

    BASELINE = build_loadgen_payload(
        {"rec": [_result("server")]}, {"rec": [_result("server")]})

    def _regressions(self, payload):
        return [row.path for row in compare_reports(payload, self.BASELINE).regressions]

    def test_clean_payload_passes(self):
        payload = build_loadgen_payload(
            {"rec": [_result("server")]}, {"rec": [_result("server")]})
        assert self._regressions(payload) == []

    def test_violations_surface_with_location(self):
        payload = build_loadgen_payload(
            {"rec": [_result(valid=False, violations=["p99 too slow"])]},
            {"rec": [_result(valid=False, violations=["p99 too slow"])]})
        assert payload["benchmarks"]["rec"]["server"]["violations"] == ["p99 too slow"]
        assert self._regressions(payload) == ["checks.all_valid"]

    def test_nondeterminism_fails_gate(self):
        payload = build_loadgen_payload(
            {"rec": [_result()]}, {"rec": [_result(checksum=2)]})
        assert self._regressions(payload) == ["checks.deterministic"]

    def test_zero_max_qps_fails_gate(self):
        payload = build_loadgen_payload(
            {"rec": [_result(max_qps=0.0)]}, {"rec": [_result(max_qps=0.0)]})
        assert self._regressions(payload) == ["checks.min_server_max_qps"]


class TestRender:
    def test_table_lists_every_scenario(self):
        payload = build_loadgen_payload(
            {"rec": [_result("single_stream"), _result("server"),
                     _result("offline")]})
        text = render_loadgen_report(payload)
        for scenario in ("single_stream", "server", "offline"):
            assert scenario in text
        assert "VALID" in text
        assert "min_server_max_qps=200.0" in text

    def test_invalid_marked(self):
        payload = build_loadgen_payload({"rec": [_result(valid=False)]})
        assert "INVALID" in render_loadgen_report(payload)
