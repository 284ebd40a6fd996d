"""Benchmark-over-benchmark regression gating (``repro bench-diff``).

MLPerf's own v0.5 → v0.6 evaluation (the paper's Fig 4) is a regression
comparison between benchmark rounds; this module applies the same idea to
our recorded perf reports.  Each ``BENCH_*.json`` carries a ``schema``
field; per schema we declare which metrics gate, in which direction, and
with what tolerance band:

- **exact** metrics (bit-identity flags, campaign shape) must match —
  these encode correctness, not speed, and have zero legitimate variance;
- **lower-is-better** counts (faults, timeouts) may not rise past
  ``baseline * (1 + rel_tol) + abs_tol``;
- **higher-is-better** rates (speedups, hit rates) may not fall below
  ``baseline * (1 - rel_tol) - abs_tol``.

Timing-derived metrics default to generous relative bands because CI
hosts differ from the machines baselines were recorded on: the gate is
for *regressions a PR causes*, not for machine-to-machine noise.

This table is the only place a bench verdict is declared, and
:func:`compare_reports` the only place one is computed: the ``bench-*``
verbs, ``repro loadgen --smoke`` and ``repro campaign --bench`` write
reports without judging them, and CI
diffs each fresh report against its committed ``benchmarks/reports/``
baseline with ``repro bench-diff``; a non-zero exit fails the build.
An ``exact`` row compares against the baseline, so the committed
baselines are themselves the oracle: every boolean under their
``checks`` must be true (a tier-1 test pins that).

Every written report carries a :func:`provenance` stamp: the host and
package versions that produced it.  ``bench-diff`` says in one line when
the baseline was recorded elsewhere (or carries no stamp); that line is
information, never a verdict.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

__all__ = ["MetricSpec", "RegressionRow", "RegressionReport",
           "AttributionRow", "SCHEMA_METRICS", "compare_reports",
           "load_report", "attribute_regression", "provenance"]


@dataclass(frozen=True)
class MetricSpec:
    """How one metric in a report is gated against its baseline."""

    path: str  # dotted path into the JSON payload, e.g. "checks.bit_identical"
    direction: str  # "exact" | "higher" | "lower"
    rel_tol: float = 0.0
    abs_tol: float = 0.0

    def __post_init__(self):
        if self.direction not in ("exact", "higher", "lower"):
            raise ValueError(f"unknown direction {self.direction!r}")
        if self.rel_tol < 0 or self.abs_tol < 0:
            raise ValueError("tolerances must be non-negative")

    def bound(self, baseline: float) -> float:
        """The worst acceptable current value given the baseline."""
        if self.direction == "higher":
            return baseline * (1.0 - self.rel_tol) - self.abs_tol
        if self.direction == "lower":
            return baseline * (1.0 + self.rel_tol) + self.abs_tol
        return baseline


# The gate declarations, per report schema.  Correctness flags are exact;
# operational counts are tight; timing ratios get wide rel_tol bands.
SCHEMA_METRICS: dict[str, tuple[MetricSpec, ...]] = {
    "repro-campaign-bench/1": (
        MetricSpec("total_cells", "exact"),
        MetricSpec("faults", "lower"),
        MetricSpec("timeouts", "lower"),
        MetricSpec("quality_misses", "lower"),
        MetricSpec("retries", "lower", abs_tol=2),
        MetricSpec("speedup", "higher", rel_tol=0.5),
    ),
    "repro.bench_kernels.v1": (
        MetricSpec("checks.bit_identical", "exact"),
        MetricSpec("kernels.conv2d_fwd_bwd.speedup", "higher", rel_tol=0.5),
        MetricSpec("kernels.conv2d_resnet_fwd_bwd.speedup", "higher", rel_tol=0.5),
        MetricSpec("kernels.conv2d_board_fwd.speedup", "higher", rel_tol=0.5),
        MetricSpec("kernels.lstm_cell_fwd_bwd.speedup", "higher", rel_tol=0.5),
        MetricSpec("kernels.attention_fwd_bwd.speedup", "higher", rel_tol=0.5),
        MetricSpec("kernels.normalize_relu_fwd_bwd.speedup", "higher", rel_tol=0.5),
        MetricSpec("kernels.normalize_residual_relu_fwd_bwd.speedup", "higher", rel_tol=0.5),
    ),
    # Serving harness: verdicts and same-seed determinism are exact (the
    # smoke runs in virtual timing, so they are machine-independent); the
    # searched max-QPS floor gets the standard wide timing band.
    "repro.bench_loadgen.v1": (
        MetricSpec("checks.all_valid", "exact"),
        MetricSpec("checks.deterministic", "exact"),
        MetricSpec("checks.scenario_count", "exact"),
        MetricSpec("checks.min_server_max_qps", "higher", rel_tol=0.5),
    ),
}


@dataclass(frozen=True)
class RegressionRow:
    """One gated metric's verdict."""

    path: str
    direction: str
    baseline: Any
    current: Any
    bound: Any
    ok: bool
    note: str = ""


@dataclass(frozen=True)
class AttributionRow:
    """One op's contribution to a flagged timing regression.

    Shares are fractions of the payload's total per-op time; the ranking
    key is ``delta_share`` (how much of the pie the op *took over*), so a
    uniformly-slower machine attributes to nothing while a genuinely
    regressed op rises to the top.
    """

    op: str
    baseline_ns: float
    current_ns: float
    baseline_share: float
    current_share: float
    delta_share: float


@dataclass
class RegressionReport:
    """Every gated metric's verdict for one (report, baseline) pair."""

    schema: str
    rows: list[RegressionRow] = field(default_factory=list)
    attribution: list[AttributionRow] = field(default_factory=list)
    host: str = ""  # one line when the two reports' hosts differ

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows)

    @property
    def regressions(self) -> list[RegressionRow]:
        return [row for row in self.rows if not row.ok]

    def to_payload(self) -> dict[str, Any]:
        """Machine-readable gate result (``bench-diff --json``)."""
        return {
            "schema_gated": self.schema,
            "ok": self.ok,
            "rows": [asdict(row) for row in self.rows],
            "regressions": [row.path for row in self.regressions],
            "attribution": [asdict(row) for row in self.attribution],
            "host": self.host,
        }

    def render(self) -> str:
        header = (
            f"{'Metric':<48}{'Dir':<8}{'Baseline':>12}{'Current':>12}"
            f"{'Bound':>12}  Verdict"
        )
        lines = [f"schema: {self.schema}", *([self.host] if self.host else []),
                 header, "-" * len(header)]
        for row in self.rows:
            verdict = "ok" if row.ok else "REGRESSED"
            if row.note:
                verdict += f" ({row.note})"
            lines.append(
                f"{row.path:<48}{row.direction:<8}{_fmt(row.baseline):>12}"
                f"{_fmt(row.current):>12}{_fmt(row.bound):>12}  {verdict}"
            )
        lines.append(
            f"{len(self.rows)} metric(s) gated, "
            f"{len(self.regressions)} regression(s)"
        )
        if self.attribution:
            lines.append("attribution (op share of recorded time, "
                         "baseline -> current):")
            for row in self.attribution:
                lines.append(
                    f"  {row.op:<38}{100 * row.baseline_share:>6.1f}% ->"
                    f"{100 * row.current_share:>6.1f}%  "
                    f"(delta {100 * row.delta_share:+.1f}pp, "
                    f"{row.baseline_ns / 1e6:.2f} -> "
                    f"{row.current_ns / 1e6:.2f} ms)"
                )
        return "\n".join(lines)


def _fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _lookup(payload: dict[str, Any], path: str) -> Any:
    node: Any = payload
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def _op_times(payload: dict[str, Any]) -> dict[str, float]:
    """Per-op nanosecond totals from the kernel bench's ``ns_per_op`` table.

    Empty dict when the payload carries none — attribution is then simply
    unavailable.
    """
    kernels = payload.get("kernels")
    if isinstance(kernels, dict):
        return {name: float(entry["ns_per_op"])
                for name, entry in kernels.items()
                if isinstance(entry, dict) and "ns_per_op" in entry}
    return {}


def attribute_regression(
    current: dict[str, Any],
    baseline: dict[str, Any],
    *,
    top: int = 5,
    min_delta_share: float = 0.01,
) -> list[AttributionRow]:
    """Rank ops by how much their share of total op time *grew*.

    Share-of-total comparison deliberately cancels machine speed: if the
    CI host is uniformly 2x slower, every op keeps its share and nothing
    is attributed; an op whose kernel regressed takes over a bigger
    slice.  Ops below ``min_delta_share`` (1pp by default) are noise and
    dropped; ties break alphabetically so output is deterministic.
    """
    cur, base = _op_times(current), _op_times(baseline)
    cur_total, base_total = sum(cur.values()), sum(base.values())
    if cur_total <= 0 or base_total <= 0:
        return []
    rows = []
    for op in sorted(set(cur) | set(base)):
        b_ns, c_ns = base.get(op, 0.0), cur.get(op, 0.0)
        b_share, c_share = b_ns / base_total, c_ns / cur_total
        delta = c_share - b_share
        if delta >= min_delta_share:
            rows.append(AttributionRow(
                op=op, baseline_ns=b_ns, current_ns=c_ns,
                baseline_share=b_share, current_share=c_share,
                delta_share=delta))
    rows.sort(key=lambda r: (-r.delta_share, r.op))
    return rows[:top]


def _git_commit(directory: Path) -> str:
    """HEAD of the checkout holding ``directory``, ``<sha>-dirty`` when a
    tracked file differs from it, or ``"unknown"`` outside a checkout."""
    import subprocess  # only here: importing `repro` must not load it

    def git(*argv):
        return subprocess.run(["git", "-C", str(directory), *argv],
                              capture_output=True, text=True, timeout=10)

    try:
        head = git("rev-parse", "HEAD")
        if head.returncode != 0:
            return "unknown"
        clean = git("diff", "--quiet", "HEAD", "--").returncode == 0
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return head.stdout.strip() + ("" if clean else "-dirty")


def provenance() -> dict[str, Any]:
    """The host and packages behind a report, named as in the e2e ledger's
    ``provenance`` (SNIPPETS.md snippet 1), plus the BLAS thread count and
    the ``MALLOC_*`` settings."""
    import os
    import platform

    import numpy as np

    from ..framework.config import kernel_mode

    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # an older NumPy only prints its config
        blas = {}
    return {
        "git": _git_commit(Path(__file__).parent), "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "kernel_mode": kernel_mode(),
        # Set before NumPy loads (threadpoolctl is not installed); None: BLAS picks.
        "blas_threads": next((int(os.environ[k]) for k in ("OPENBLAS_NUM_THREADS",
                              "OMP_NUM_THREADS") if os.environ.get(k, "").isdigit()), None),
        "malloc": {k: v for k, v in sorted(os.environ.items()) if k.startswith("MALLOC_")},
    }


def _host_note(current: dict[str, Any], baseline: dict[str, Any]) -> str:
    """One line when the baseline's host is not the report's, else ``""``."""
    cur, base = current.get("provenance"), baseline.get("provenance")
    if not isinstance(base, dict) or not isinstance(cur, dict):
        side = "baseline" if not isinstance(base, dict) else "report"
        return f"host: the {side} carries no provenance stamp; hosts may differ"
    differ = [f"{key} {base.get(key)!r} -> {cur.get(key)!r}" for key in sorted(set(cur) | set(base))
              if key != "git" and cur.get(key) != base.get(key)]
    return f"host: the baseline was recorded elsewhere: {'; '.join(differ)}" if differ else ""


def load_report(path: str | Path) -> dict[str, Any]:
    """Read a BENCH_*.json payload; the schema field is mandatory."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict) or "schema" not in payload:
        raise ValueError(f"{path}: not a bench report (no 'schema' field)")
    return payload


def compare_reports(current: dict[str, Any],
                    baseline: dict[str, Any]) -> RegressionReport:
    """Gate a fresh report against its committed baseline.

    Both payloads must carry the same ``schema`` (comparing a kernels
    report against a loadgen baseline is a usage error, not a regression).
    """
    schema = current.get("schema")
    if schema != baseline.get("schema"):
        raise ValueError(
            f"schema mismatch: report is {schema!r}, "
            f"baseline is {baseline.get('schema')!r}"
        )
    specs = SCHEMA_METRICS.get(schema)
    if specs is None:
        raise ValueError(f"no regression gates declared for schema {schema!r}")

    report = RegressionReport(schema=schema, host=_host_note(current, baseline))
    for spec in specs:
        base_value = _lookup(baseline, spec.path)
        cur_value = _lookup(current, spec.path)
        if base_value is None:
            # Baselines predating a metric don't gate it yet; recording a
            # fresh baseline picks it up.
            report.rows.append(RegressionRow(
                spec.path, spec.direction, None, cur_value, None, True,
                note="no baseline value"))
            continue
        if cur_value is None:
            report.rows.append(RegressionRow(
                spec.path, spec.direction, base_value, None, base_value,
                False, note="missing from report"))
            continue
        if spec.direction == "exact":
            ok = cur_value == base_value
            report.rows.append(RegressionRow(
                spec.path, spec.direction, base_value, cur_value, base_value, ok))
            continue
        base_num, cur_num = float(base_value), float(cur_value)
        bound = spec.bound(base_num)
        ok = cur_num >= bound if spec.direction == "higher" else cur_num <= bound
        report.rows.append(RegressionRow(
            spec.path, spec.direction, base_num, cur_num, bound, ok))
    # A flagged regression gets attributed to the ops whose share of the
    # recorded op time moved — *which* kernel got slower, not just that
    # something did.  Needs op timing tables on both sides.
    if not report.ok:
        report.attribution = attribute_regression(current, baseline)
    return report
