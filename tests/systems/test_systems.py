"""System simulator: hardware model, convergence models, round simulation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.systems import (
    ChipSpec,
    CriticalBatchModel,
    Interconnect,
    ROUND_V05,
    ROUND_V06,
    SCALING_BENCHMARKS,
    SystemConfig,
    WorkloadProfile,
    best_entry_at_scale,
    fastest_overall_entry,
    figure4_speedups,
    figure5_scale_growth,
    fit_critical_batch,
    optimal_batch_search,
    simulate_time_to_train,
    step_time,
)

CHIP = ChipSpec("test-chip", samples_per_second=1000.0, step_overhead_s=1e-3, max_local_batch=128)
FABRIC = Interconnect("test-net", bandwidth_bytes_per_s=10e9, latency_s=1e-6)


def make_profile(**overrides):
    defaults = dict(
        name="w",
        dataset_size=100_000,
        model_bytes=100e6,
        convergence=CriticalBatchModel(e_min=10.0, b_crit=4096.0),
        min_local_batch=1,
    )
    defaults.update(overrides)
    return WorkloadProfile(**defaults)


class TestChipModel:
    def test_compute_time_linear_in_batch(self):
        t1 = CHIP.compute_time(100)
        t2 = CHIP.compute_time(200)
        assert t2 - t1 == pytest.approx(100 / 1000.0)

    def test_overhead_floor(self):
        assert CHIP.compute_time(1) >= 1e-3

    def test_software_efficiency_speeds_compute(self):
        assert CHIP.compute_time(100, 2.0) < CHIP.compute_time(100, 1.0)

    def test_invalid_batch(self):
        with pytest.raises(ValueError):
            CHIP.compute_time(0)


class TestInterconnect:
    def test_single_chip_free(self):
        assert FABRIC.allreduce_time(1, 1e9) == 0.0

    def test_transfer_term_saturates(self):
        # 2(n-1)/n -> 2 as n grows: time approaches 2*S/B.
        big = FABRIC.allreduce_time(1024, 1e9) - 2 * 1023 * 1e-6
        assert big == pytest.approx(2 * 1e9 / 10e9, rel=0.01)

    def test_monotone_in_payload(self):
        assert FABRIC.allreduce_time(8, 2e9) > FABRIC.allreduce_time(8, 1e9)

    def test_invalid_chips(self):
        with pytest.raises(ValueError):
            FABRIC.allreduce_time(0, 1e6)


class TestConvergenceModels:
    def test_critical_batch_paper_anecdote(self):
        """§2.2.2: 4K -> 16K must cost ~30% more computation."""
        model = CriticalBatchModel(e_min=57.6, b_crit=36_000.0)
        e4k = model.epochs_to_target(4096)
        e16k = model.epochs_to_target(16384)
        assert e4k == pytest.approx(64, rel=0.02)  # "around 64 epochs"
        assert e16k / e4k == pytest.approx(1.30, abs=0.03)  # "30% increase"

    def test_small_batches_near_emin(self):
        model = CriticalBatchModel(e_min=10.0, b_crit=10_000.0)
        assert model.epochs_to_target(100) == pytest.approx(10.0, rel=0.02)

    def test_computation_overhead(self):
        model = CriticalBatchModel(e_min=10.0, b_crit=1000.0)
        assert model.computation_overhead(2000, 1000) == pytest.approx(0.5)

    def test_invalid_batch(self):
        with pytest.raises(ValueError):
            CriticalBatchModel(10, 100).epochs_to_target(0)

    def test_fit_recovers_model(self):
        truth = CriticalBatchModel(e_min=12.0, b_crit=2000.0)
        measurements = {b: truth.epochs_to_target(b) for b in (64, 256, 1024, 4096)}
        fit = fit_critical_batch(measurements)
        assert fit.e_min == pytest.approx(12.0, rel=1e-6)
        assert fit.b_crit == pytest.approx(2000.0, rel=1e-6)

    def test_fit_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_critical_batch({64: 5.0})

    @given(st.floats(1, 100), st.floats(100, 100_000))
    @settings(max_examples=30, deadline=None)
    def test_epochs_monotone_in_batch(self, e_min, b_crit):
        model = CriticalBatchModel(e_min, b_crit)
        assert model.epochs_to_target(2048) >= model.epochs_to_target(1024)


class TestSimulator:
    def system(self, chips=8, eff=1.0):
        return SystemConfig(CHIP, chips, FABRIC, software_efficiency=eff)

    def test_step_time_components(self):
        profile = make_profile()
        t = step_time(self.system(8), profile, 512)
        expected = CHIP.compute_time(64) + FABRIC.allreduce_time(8, 100e6)
        assert t == pytest.approx(expected)

    def test_chip_capacity_enforced(self):
        profile = make_profile()
        with pytest.raises(ValueError, match="capacity"):
            step_time(self.system(1), profile, 1024)

    def test_min_local_batch_enforced(self):
        profile = make_profile(min_local_batch=16)
        with pytest.raises(ValueError, match="too small"):
            step_time(self.system(8), profile, 64)

    def test_ttt_decreases_with_chips_at_fixed_batch(self):
        profile = make_profile()
        t8 = simulate_time_to_train(self.system(8), profile, 1024)
        t16 = simulate_time_to_train(self.system(16), profile, 1024)
        assert t16 < t8

    def test_large_batch_convergence_tradeoff(self):
        """The §2.2.2 trade-off cuts both ways depending on B_crit.

        Past the critical batch, bigger batches cost more epochs; whether
        wall-clock still improves depends on how far past it you are.
        """
        sys16 = self.system(16)
        # Workload far below its critical batch: bigger batch wins.
        easy = make_profile(convergence=CriticalBatchModel(10.0, 100_000.0))
        assert simulate_time_to_train(sys16, easy, 2048) < simulate_time_to_train(
            sys16, easy, 256
        )
        # Workload far past its critical batch: the epoch penalty dominates.
        hard = make_profile(convergence=CriticalBatchModel(10.0, 256.0))
        assert simulate_time_to_train(sys16, hard, 2048) > simulate_time_to_train(
            sys16, hard, 256
        )

    def test_epochs_multiplier_slows_training(self):
        profile = make_profile()
        base = simulate_time_to_train(self.system(8), profile, 1024)
        raised = simulate_time_to_train(self.system(8), profile, 1024, epochs_multiplier=1.2)
        assert raised == pytest.approx(base * 1.2)

    def test_max_global_batch_enforced(self):
        profile = make_profile(max_global_batch=512)
        with pytest.raises(ValueError, match="max usable batch"):
            simulate_time_to_train(self.system(8), profile, 1024)

    def test_optimal_batch_search_returns_feasible_best(self):
        profile = make_profile()
        ttt, batch = optimal_batch_search(self.system(16), profile)
        assert batch >= 16
        assert batch <= 16 * CHIP.max_local_batch
        # Must beat at least the two extreme batches
        lo = simulate_time_to_train(self.system(16), profile, 16)
        assert ttt <= lo

    def test_search_infeasible_system(self):
        profile = make_profile(min_local_batch=64, max_global_batch=128)
        with pytest.raises(ValueError, match="cannot run"):
            optimal_batch_search(self.system(16), profile)


class TestRounds:
    def test_v06_faster_at_fixed_scale(self):
        """Figure 4's headline: every benchmark sped up despite targets."""
        for name, speedup in figure4_speedups(16).items():
            assert speedup > 1.0, name

    def test_fig4_average_close_to_paper(self):
        speedups = list(figure4_speedups(16).values())
        assert 1.1 <= float(np.mean(speedups)) <= 1.5  # paper: ~1.3x

    def test_fig5_scale_grows(self):
        """Figure 5's headline: fastest entries use more chips in v0.6."""
        for name, (v05, v06) in figure5_scale_growth().items():
            assert v06.num_chips > v05.num_chips, name

    def test_fig5_average_close_to_paper(self):
        ratios = [b.num_chips / a.num_chips for a, b in figure5_scale_growth().values()]
        assert 3.0 <= float(np.mean(ratios)) <= 8.0  # paper: ~5.5x

    def test_fastest_overall_beats_fixed_scales(self):
        entry = fastest_overall_entry("image_classification", ROUND_V05)
        for chips in (16, 64, 256):
            fixed = best_entry_at_scale("image_classification", ROUND_V05, chips)
            assert entry.time_to_train_s <= fixed.time_to_train_s

    def test_lars_rule_unlocks_batch(self):
        """The v0.6 ResNet entries use batches illegal under v0.5 rules."""
        v06 = fastest_overall_entry("image_classification", ROUND_V06)
        v05_cap = ROUND_V05.benchmark_rules["image_classification"].max_global_batch
        assert v06.global_batch > v05_cap

    def test_rounds_cover_five_benchmarks(self):
        assert len(SCALING_BENCHMARKS) == 5
        assert set(ROUND_V05.benchmark_rules) == set(SCALING_BENCHMARKS)
        assert set(ROUND_V06.benchmark_rules) == set(SCALING_BENCHMARKS)
