"""Benchmark suite: specs, registry, session mechanics (fast paths only).

Full train-to-threshold runs live in ``benchmarks/``; here each benchmark
is exercised for structure — data prep, session creation, a short training
step, and a quality evaluation that returns a sane value.
"""

import multiprocessing

import numpy as np
import pytest

from repro.core.results import REQUIRED_RUNS_BY_AREA
from repro.suite import (
    REGISTRY,
    BenchmarkSpec,
    all_specs,
    create_benchmark,
    table1,
)
from repro.telemetry import Telemetry


class TestRegistry:
    def test_seven_benchmarks(self):
        """Table 1 has exactly 7 rows."""
        assert len(REGISTRY) == 7

    def test_names_match_specs(self):
        for name in REGISTRY:
            bench = create_benchmark(name)
            assert bench.spec.name == name

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            create_benchmark("speech_recognition")

    def test_areas_cover_paper_taxonomy(self):
        areas = {spec.area for spec in all_specs()}
        assert areas == {"vision", "language", "commerce", "research"}

    def test_run_counts_follow_322(self):
        """§3.2.2: vision -> 5 runs; everything else -> 10."""
        for spec in all_specs():
            assert spec.required_runs == REQUIRED_RUNS_BY_AREA[spec.area]

    def test_table1_renders_all(self):
        text = table1()
        for name in REGISTRY:
            assert name in text

    def test_batch_size_always_modifiable_effectively(self):
        # batch_size is the Top500-style scale knob; every benchmark
        # exposes it.
        for spec in all_specs():
            assert "batch_size" in spec.default_hyperparameters


class TestSpecResolution:
    def spec(self) -> BenchmarkSpec:
        return create_benchmark("image_classification").spec

    def test_defaults_returned(self):
        hp = self.spec().resolve_hyperparameters(None)
        assert hp == dict(self.spec().default_hyperparameters)

    def test_override_applied(self):
        hp = self.spec().resolve_hyperparameters({"batch_size": 128})
        assert hp["batch_size"] == 128

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            self.spec().resolve_hyperparameters({"nonsense": 1})

    def test_defaults_not_mutated(self):
        spec = self.spec()
        hp = spec.resolve_hyperparameters({"batch_size": 999})
        assert spec.default_hyperparameters["batch_size"] != 999
        del hp


def _short_session(name, **hp_overrides):
    """Create a benchmark session with any speed-reducing overrides."""
    bench = create_benchmark(name)
    bench.prepare_data()
    hp = bench.spec.resolve_hyperparameters(hp_overrides or None)
    return bench, bench.create_session(seed=0, hyperparameters=hp)


class TestSessionMechanics:
    def test_session_requires_prepared_data(self):
        bench = create_benchmark("image_classification")
        with pytest.raises(RuntimeError):
            bench.create_session(0, bench.spec.resolve_hyperparameters(None))

    def test_image_classification_epoch_and_eval(self):
        bench, sess = _short_session("image_classification")
        q0 = sess.evaluate()
        assert 0.0 <= q0 <= 1.0
        sess.run_epoch(0)
        q1 = sess.evaluate()
        assert 0.0 <= q1 <= 1.0
        assert q1 > q0  # one epoch moves an untrained model off chance

    def test_image_classification_lars_option(self):
        bench, sess = _short_session("image_classification", optimizer="lars")
        from repro.framework import LARS

        assert isinstance(sess.optimizer, LARS)

    def test_image_classification_bad_optimizer(self):
        bench = create_benchmark("image_classification")
        bench.prepare_data()
        hp = bench.spec.resolve_hyperparameters({"optimizer": "adagrad"})
        with pytest.raises(ValueError):
            bench.create_session(0, hp)

    def test_object_detection_eval_range(self):
        bench, sess = _short_session("object_detection")
        q = sess.evaluate()
        assert 0.0 <= q <= 1.0

    def test_instance_segmentation_details(self):
        bench, sess = _short_session("instance_segmentation")
        q = sess.evaluate()
        details = sess.eval_details()
        assert set(details) == {"box_ap", "mask_ap"}
        assert q == pytest.approx(
            min(details["box_ap"] / 0.50, details["mask_ap"] / 0.45), abs=1e-9
        )

    def test_translation_sessions_evaluate_bleu(self):
        for name in ("translation_recurrent", "translation_transformer"):
            bench, sess = _short_session(name)
            q = sess.evaluate()
            assert 0.0 <= q <= 100.0

    def test_recommendation_epoch_improves(self):
        bench, sess = _short_session("recommendation")
        q0 = sess.evaluate()
        sess.run_epoch(0)
        sess.run_epoch(1)
        assert sess.evaluate() > q0
        assert "ndcg@10" in sess.eval_details()

    def test_reinforcement_session(self):
        bench, sess = _short_session(
            "reinforcement",
            games_per_iteration=1,
            mcts_simulations=4,
            train_steps_per_iteration=2,
        )
        q0 = sess.evaluate()
        assert 0.0 <= q0 <= 1.0
        sess.run_epoch(0)
        assert len(sess.replay) > 0
        assert 0.0 <= sess.evaluate() <= 1.0

    def test_reinforcement_selfplay_is_observable(self):
        from repro.telemetry import Telemetry

        sims = 4
        bench, sess = _short_session(
            "reinforcement",
            games_per_iteration=1,
            mcts_simulations=sims,
            train_steps_per_iteration=1,
        )
        tele = Telemetry()
        with tele.activate():
            sess.run_epoch(0)
        moves = len(sess.replay)  # one example, and one search, per move
        counters = tele.metrics.snapshot()
        assert counters["mcts_searches"]["value"] == moves
        # Root expansion plus at most one per simulation (terminal leaves need none).
        assert moves < counters["mcts_evaluations"]["value"] <= moves * (sims + 1)
        # The buffer's size is the log's (tracked_stats), not a registry's.
        assert sess.tracked_stats() == {"replay_buffer_size": float(moves)}
        assert "replay_buffer_size" not in counters

    def test_reinforcement_reference_masks_sane(self):
        bench = create_benchmark("reinforcement")
        bench.prepare_data()
        # Every reference move is within its position's plausible-legal mask.
        idx = np.arange(len(bench.ref_moves))
        assert bench.ref_legal_masks[idx, bench.ref_moves].all()

    def test_same_seed_same_first_epoch(self):
        b1 = create_benchmark("recommendation")
        b1.prepare_data()
        hp = b1.spec.resolve_hyperparameters(None)
        s1 = b1.create_session(7, hp)
        s2 = b1.create_session(7, hp)
        s1.run_epoch(0)
        s2.run_epoch(0)
        assert s1.evaluate() == pytest.approx(s2.evaluate())

    def test_different_seeds_differ(self):
        b1 = create_benchmark("recommendation")
        b1.prepare_data()
        hp = b1.spec.resolve_hyperparameters(None)
        s1 = b1.create_session(1, hp)
        s2 = b1.create_session(2, hp)
        s1.run_epoch(0)
        s2.run_epoch(0)
        assert s1.evaluate() != pytest.approx(s2.evaluate())


class TestSpecInvariants:
    def test_modifiable_subset_of_defaults(self):
        for spec in all_specs():
            assert spec.modifiable_hyperparameters <= set(spec.default_hyperparameters), spec.name

    def test_thresholds_positive(self):
        for spec in all_specs():
            assert spec.quality_threshold > 0

    def test_max_epochs_reasonable(self):
        for spec in all_specs():
            assert 1 <= spec.max_epochs <= 100

    def test_prepare_data_idempotent(self):
        bench = create_benchmark("recommendation")
        bench.prepare_data()
        first = bench.data
        bench.prepare_data()
        assert bench.data is first  # cached, not regenerated

    def test_registry_names_are_specs_names(self):
        for name in REGISTRY:
            assert create_benchmark(name).spec.name == name


class TestRecommendationDataParallel:
    """dp_workers > 1 routes training through SynchronousDataParallel."""

    def test_dp_session_trains_deterministically(self):
        states = []
        for _ in range(2):
            bench, sess = _short_session("recommendation", dp_workers=2)
            sess.run_epoch(0)
            assert sess.evaluate() >= 0.0
            states.append(sess.model.state_dict())
        for name in states[0]:
            np.testing.assert_array_equal(states[0][name], states[1][name])

    def test_dp_session_starts_no_processes(self):
        before = multiprocessing.active_children()
        bench, sess = _short_session("recommendation", dp_workers=2)
        assert multiprocessing.active_children() == before
        sess.run_epoch(0)
        assert multiprocessing.active_children() == before

    def test_dp_workers_is_the_only_data_parallel_knob(self):
        spec = create_benchmark("recommendation").spec
        assert spec.modifiable_hyperparameters == {
            "batch_size", "base_lr", "num_negatives", "dp_workers"}
        knobs = [k for k in spec.default_hyperparameters if k.startswith("dp_")]
        assert knobs == ["dp_workers"]
        # Any other dp_* override is unknown, so resolving it raises.
        with pytest.raises(KeyError, match="unknown hyperparameters"):
            spec.resolve_hyperparameters({"dp_backend": "process"})

    def test_profiled_dp_epoch_has_all_reduce_row(self):
        bench, sess = _short_session("recommendation", dp_workers=2)
        telemetry = Telemetry(profile="full")
        with telemetry.activate():
            sess.run_epoch(0)
        steps = len(bench.data.train_users) // sess.hp["batch_size"]
        param_bytes = sum(p.data.nbytes for p in sess.model.parameters())
        ops = telemetry.profiler.snapshot()["ops"]
        # Every shard's forward and backward run in this process, so the
        # profile accounts the compute beside the reduction.
        assert {"forward", "backward", "update", "comms"} <= set(ops)
        row = ops["comms"]["all_reduce"]
        assert row["calls"] == steps
        assert row["bytes_moved"] == steps * 2 * param_bytes

    def test_indivisible_batch_rejected(self):
        with pytest.raises(ValueError, match="not divisible"):
            _short_session("recommendation", dp_workers=3)  # 256 % 3 != 0
