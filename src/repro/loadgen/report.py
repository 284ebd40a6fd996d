"""Serving reports: per-scenario verdicts + the bench-diff payload.

``build_loadgen_payload`` folds one serving campaign (several benchmarks,
three scenarios each, each run twice with the same seed for the
determinism proof) into a ``repro.bench_loadgen.v1`` JSON document.  The
``checks`` block carries exactly what the regression gate
(:mod:`repro.telemetry.regress`) declares for this schema:

- ``all_valid`` / ``deterministic`` / ``scenario_count`` gate **exact**
  (verdicts and bit-identity have zero legitimate variance — in virtual
  timing they are machine-independent);
- ``min_server_max_qps`` gates higher-is-better with a wide band, the
  serving analog of the campaign speedup gate; against a committed
  baseline above zero, a search that found no sustainable rate fails it.

This module computes no verdict of its own: ``repro loadgen --smoke -o
fresh.json`` writes the payload, and ``repro bench-diff fresh.json
benchmarks/reports/BENCH_loadgen.json`` judges it, the same path every
other bench report takes.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .harness import ScenarioResult

__all__ = ["LOADGEN_SCHEMA", "build_loadgen_payload", "render_loadgen_report"]

LOADGEN_SCHEMA = "repro.bench_loadgen.v1"


def build_loadgen_payload(
        results: Mapping[str, Iterable[ScenarioResult]],
        reruns: Mapping[str, Iterable[ScenarioResult]] | None = None,
        *, timing: str = "virtual", seed: int = 0) -> dict:
    """The ``repro.bench_loadgen.v1`` document for one serving campaign.

    ``results`` maps benchmark name -> its scenario results; ``reruns``
    (same shape, from a second same-seed pass) backs the determinism
    check — every percentile and prediction checksum must match
    bit-for-bit between the passes.
    """
    benchmarks: dict[str, dict] = {}
    all_valid = True
    deterministic = True
    scenario_count = 0
    server_max_qps: list[float] = []

    for name, bench_results in results.items():
        per_scenario: dict[str, dict] = {}
        for res in bench_results:
            per_scenario[res.scenario] = res.to_payload()
            scenario_count += 1
            all_valid = all_valid and res.valid
            if res.scenario == "server" and res.max_qps is not None:
                server_max_qps.append(res.max_qps)
        benchmarks[name] = per_scenario

    if reruns is not None:
        for name, rerun_results in reruns.items():
            for res in rerun_results:
                base = benchmarks.get(name, {}).get(res.scenario)
                if base is None:
                    deterministic = False
                    continue
                # Predictions must always reproduce; latency statistics are
                # only bit-reproducible under virtual timing (wall-clock
                # service times are real measurements and legitimately vary).
                same = base["prediction_checksum"] == res.prediction_checksum
                if timing == "virtual":
                    same = (same
                            and base["percentiles"] == res.percentiles
                            and base["achieved_qps"] == res.achieved_qps
                            and base["max_qps"] == res.max_qps)
                benchmarks[name][res.scenario]["rerun_identical"] = same
                deterministic = deterministic and same

    return {
        "schema": LOADGEN_SCHEMA,
        "timing": timing,
        "seed": seed,
        "benchmarks": benchmarks,
        "checks": {
            "all_valid": all_valid,
            "deterministic": deterministic if reruns is not None else None,
            "scenario_count": scenario_count,
            "min_server_max_qps": (min(server_max_qps)
                                   if server_max_qps else 0.0),
        },
    }


def render_loadgen_report(payload: dict) -> str:
    """Fixed-width per-scenario table of one loadgen payload."""
    header = (f"{'Benchmark':<24}{'Scenario':<15}{'p50':>10}{'p90':>10}"
              f"{'p99':>10}{'QPS':>10}{'maxQPS':>10}  verdict")
    lines = [header, "-" * len(header)]
    for name in sorted(payload.get("benchmarks", {})):
        for scenario in ("single_stream", "server", "offline"):
            res = payload["benchmarks"][name].get(scenario)
            if res is None:
                continue
            p = res.get("percentiles", {})
            max_qps = res.get("max_qps")
            lines.append(
                f"{name:<24}{scenario:<15}"
                f"{_ms(p.get('p50')):>10}{_ms(p.get('p90')):>10}"
                f"{_ms(p.get('p99')):>10}"
                f"{res.get('achieved_qps', 0.0):>10.1f}"
                f"{(f'{max_qps:.1f}' if max_qps is not None else '-'):>10}"
                f"  {'VALID' if res.get('valid') else 'INVALID'}")
    checks = payload.get("checks", {})
    lines.append("")
    lines.append(
        f"checks: all_valid={checks.get('all_valid')} "
        f"deterministic={checks.get('deterministic')} "
        f"scenarios={checks.get('scenario_count')} "
        f"min_server_max_qps={checks.get('min_server_max_qps', 0.0):.1f}")
    return "\n".join(lines)


def _ms(latency_s) -> str:
    return "-" if latency_s is None else f"{latency_s * 1e3:.2f}ms"
