"""Micro-benchmark: hot-path kernels under the workspace arena + fusion.

§3.2.1 makes time-to-train the headline metric, and §2.2.4 credits much of
the gap between implementations to math libraries choosing equivalent-but-
faster algorithms.  This bench measures that effect inside the framework
itself: each kernel that reads the kernel mode (conv at two sizes, the
fused linear, the LSTM cell, attention) is timed under the ``naive``
reference mode and under ``fused`` (arena-recycled scratch, ``out=`` GEMMs,
single-node kernels), and the bench asserts the two agree bit-for-bit —
same math, different speed.  Code with one path in every mode (pooling,
the optimizers, the ``DataLoader``) has no row.

The payload also lands in ``benchmarks/reports/BENCH_kernels.json`` (the
same file ``repro bench-kernels`` writes), recording the per-kernel ns/op,
the steady-state arena hit rate, and steady-state bytes allocated.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.framework.microbench import bench_kernels, gate_failures

REPORT_PATH = Path(__file__).parent / "reports" / "BENCH_kernels.json"


@pytest.mark.benchmark(group="kernels")
def test_kernel_micro(benchmark, report):
    payload = benchmark.pedantic(
        lambda: bench_kernels(mode="fused"), rounds=1, iterations=1
    )

    report.line("Kernel micro-benchmarks: fused (arena) mode vs naive reference")
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
        widths=[22, 14, 14, 10, 15],
    )
    stats = payload["arena"]
    report.line()
    report.line(f"steady-state arena: hit_rate={stats['hit_rate']:.3f} "
                f"bytes_allocated={stats['steady_state_bytes_allocated']} "
                f"pooled_bytes={stats['pooled_bytes']}")

    REPORT_PATH.parent.mkdir(exist_ok=True)
    REPORT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    # Correctness gates: equivalence and allocator recycling are machine-
    # independent, so they hard-fail here (speed ratios are only reported).
    assert gate_failures(payload, min_hit_rate=0.9) == []
    assert payload["arena"]["steady_state_bytes_allocated"] == 0
