"""Figure 3: ResNet accuracy-vs-epoch curves for 5 seeds.

The paper's Figure 3 plots top-1 accuracy over epochs for 5 training runs
of the ResNet-50 reference differing only in seed, and observes that "the
early phase of training is marked by significantly more variability" —
the justification for placing quality thresholds late (§3.3).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.metrics import curve_spread
from repro.suite import create_benchmark

NUM_SEEDS = 5
EPOCHS = 8


def accuracy_curves() -> list[list[float]]:
    bench = create_benchmark("image_classification")
    bench.prepare_data()
    hp = bench.spec.resolve_hyperparameters(None)
    curves = []
    for seed in range(NUM_SEEDS):
        session = bench.create_session(seed, hp)
        curve = []
        for epoch in range(EPOCHS):
            session.run_epoch(epoch)
            curve.append(session.evaluate())
        curves.append(curve)
    return curves


@pytest.mark.benchmark(group="fig3")
def test_fig3_accuracy_curves(benchmark, report):
    curves = benchmark.pedantic(accuracy_curves, rounds=1, iterations=1)
    arr = np.array(curves)  # (seeds, epochs)
    spread = curve_spread(arr)

    report.line("Figure 3 (reproduced): top-1 accuracy over epochs, 5 seeds")
    report.line(f"(image_classification, identical HPs except the seed; "
                f"target = {create_benchmark('image_classification').spec.quality_threshold})")
    report.line()
    header = ["epoch"] + [f"seed{s}" for s in range(NUM_SEEDS)] + ["spread"]
    rows = []
    for e in range(EPOCHS):
        rows.append([e + 1] + [arr[s, e] for s in range(NUM_SEEDS)] + [spread[e]])
    report.table(header, rows, widths=[7] + [9] * NUM_SEEDS + [9])

    early_spread = float(spread[:EPOCHS // 2].mean())
    late_spread = float(spread[EPOCHS // 2 :].mean())
    report.line()
    report.line(f"mean seed-spread: early epochs {early_spread:.3f}, late epochs {late_spread:.3f}")

    # Paper shape: early epochs show more cross-seed variability than late.
    assert early_spread > late_spread
    # All runs converge to the target region by the end.
    assert (arr[:, -1] >= 0.85).all()
