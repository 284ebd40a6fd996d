"""Micro-benchmark: hot-path kernels, fused vs their reference compositions.

§3.2.1 makes time-to-train the headline metric, and §2.2.4 credits much of
the gap between implementations to math libraries choosing equivalent-but-
faster algorithms.  This bench measures that effect inside the framework
itself: each kernel that has a reference composition (conv at two sizes
and on one Go board, the fused linear, the LSTM cell, attention, batch
norm → (+ skip) → ReLU) is timed beside that ``_<op>_reference`` (the
"naive" column) and on its fused path (patch-major gather unfold,
in-place bias and masks, single-node kernels), and the bench asserts the
two agree bit-for-bit — same math, different speed.  Code with one path
(pooling, the optimizers, the ``DataLoader``) has no row.

The payload also lands in ``benchmarks/reports/BENCH_kernels.json`` (the
same file ``repro bench-kernels`` writes), recording the per-kernel ns/op
and the bit-identity verdicts.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.framework.microbench import bench_kernels
from repro.telemetry.regress import provenance

REPORT_PATH = Path(__file__).parent / "reports" / "BENCH_kernels.json"


@pytest.mark.benchmark(group="kernels")
def test_kernel_micro(benchmark, report):
    payload = benchmark.pedantic(bench_kernels, rounds=1, iterations=1)

    report.line("Kernel micro-benchmarks: fused mode vs naive reference")
    report.line()
    rows = [
        [
            name,
            entry["naive_ns_per_op"] / 1e3,
            entry["ns_per_op"] / 1e3,
            entry["speedup"],
            "yes" if entry["bit_identical"] else "NO",
        ]
        for name, entry in payload["kernels"].items()
    ]
    report.table(
        ["kernel", "naive (us)", "fused (us)", "speedup", "bit-identical"],
        rows,
        widths=[32, 14, 14, 10, 15],
    )

    REPORT_PATH.parent.mkdir(exist_ok=True)
    REPORT_PATH.write_text(json.dumps({**payload, "provenance": provenance()}, indent=2,
                                      sort_keys=True) + "\n")

    # Equivalence is machine-independent, so it hard-fails here (speed
    # ratios are only reported).
    assert payload["checks"]["bit_identical"]
