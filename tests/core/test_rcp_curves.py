"""RCP convergence-plausibility checks and the learning-curve spread."""

import numpy as np
import pytest

from repro.core import BenchmarkRunner, FakeClock
from repro.core.rcp import (
    ReferenceConvergencePoints,
    check_convergence,
    collect_reference_points,
)
from repro.metrics.curves import curve_spread
from tests.core.fakes import FakeBenchmark


def make_rcp(epochs=(8, 9, 10), batch=32):
    return ReferenceConvergencePoints("fake_benchmark", batch, tuple(epochs))


def fake_runs(epochs_list, batch=32, reached=True):
    from repro.core.runner import RunResult

    return [
        RunResult(
            benchmark="fake_benchmark",
            seed=i,
            hyperparameters={"batch_size": batch},
            reached_target=reached,
            quality=0.9,
            epochs=e,
            time_to_train_s=float(e),
        )
        for i, e in enumerate(epochs_list)
    ]


class TestRCP:
    def test_collect_from_reference(self):
        clock = FakeClock()
        bench = FakeBenchmark(clock=clock)
        rcp = collect_reference_points(bench, seeds=range(5),
                                       runner=BenchmarkRunner(clock=clock))
        assert rcp.benchmark == "fake_benchmark"
        assert len(rcp.epochs) == 5
        assert rcp.min_epochs <= rcp.mean_epochs

    def test_plausible_submission_passes(self):
        rcp = make_rcp((8, 9, 10))
        assert check_convergence(fake_runs([8, 9, 8]), rcp) == []

    def test_slower_submission_always_passes(self):
        rcp = make_rcp((8, 9, 10))
        assert check_convergence(fake_runs([20, 25, 30]), rcp) == []

    def test_implausibly_fast_flagged(self):
        rcp = make_rcp((8, 9, 10))
        violations = check_convergence(fake_runs([2, 3, 2]), rcp)
        assert len(violations) == 1
        assert violations[0].rule == "convergence_plausibility"

    def test_different_batch_size_not_compared(self):
        rcp = make_rcp((8, 9, 10), batch=32)
        assert check_convergence(fake_runs([1, 1, 1], batch=256), rcp) == []

    def test_tolerance_controls_floor(self):
        rcp = make_rcp((10,))
        runs = fake_runs([6, 6, 6])
        assert check_convergence(runs, rcp, tolerance=0.5) == []
        assert len(check_convergence(runs, rcp, tolerance=0.9)) == 1

    def test_empty_runs(self):
        assert check_convergence([], make_rcp()) == []


class TestCurves:
    def test_spread(self):
        curves = [[0.1, 0.5, 0.9], [0.3, 0.4, 0.9]]
        np.testing.assert_allclose(curve_spread(curves), [0.2, 0.1, 0.0])
        with pytest.raises(ValueError):
            curve_spread([[0.1, 0.2]])

    def test_spread_matches_fig3_statistic(self):
        """Sanity: noisier early epochs show larger spread."""
        rng = np.random.default_rng(0)
        curves = np.clip(
            np.linspace(0.1, 0.95, 10)[None, :]
            + rng.normal(0, 0.1, size=(5, 10)) * np.linspace(1.0, 0.05, 10)[None, :],
            0, 1,
        )
        spread = curve_spread(curves)
        assert spread[:3].mean() > spread[-3:].mean()
