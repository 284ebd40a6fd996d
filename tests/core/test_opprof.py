"""Op-level profiler: the on/off switch, nesting, memory accounting, merge."""

import numpy as np
import pytest

from repro.framework.fused import conv2d_bias_relu, linear_bias_act
from repro.framework.module import Parameter
from repro.framework.optim import SGD
from repro.framework.tensor import Tensor
from repro.telemetry import Telemetry, merge_op_profiles, render_op_profile
from repro.telemetry.opprof import OpProfiler, profile_mode_from_env


def _train_step(seed=0):
    """One conv + linear forward/backward plus an SGD update."""
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((2, 3, 6, 6)).astype(np.float32),
               requires_grad=True)
    wc = Parameter((rng.standard_normal((4, 3, 3, 3)) * 0.1).astype(np.float32))
    bc = Parameter(rng.standard_normal(4).astype(np.float32))
    out = conv2d_bias_relu(x, wc, bc, stride=1, pad=1)
    out.backward(rng.standard_normal(out.shape).astype(np.float32))
    y = Tensor(rng.standard_normal((8, 16)).astype(np.float32),
               requires_grad=True)
    wl = Parameter((rng.standard_normal((16, 16)) * 0.1).astype(np.float32))
    bl = Parameter(rng.standard_normal(16).astype(np.float32))
    out2 = linear_bias_act(y, wl, bl, act="relu")
    out2.backward(rng.standard_normal((8, 16)).astype(np.float32))
    opt = SGD([wc, bc, wl, bl], lr=0.1)
    opt.step()
    return wc.data.copy(), bc.data.copy(), wl.data.copy(), bl.data.copy()


class TestOpProfilerCore:
    def test_off_mode_records_nothing_and_snapshot_is_empty(self):
        prof = OpProfiler(mode="off")
        assert prof.active is False
        with prof.op("gemm"):
            pass
        prof.note_alloc(1024)
        assert prof.snapshot() == {}

    def test_env_mode_validation(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "full")
        assert profile_mode_from_env() == "full"
        for rejected in ("sampled", "bogus"):
            monkeypatch.setenv("REPRO_PROFILE", rejected)
            with pytest.raises(ValueError, match=r"\('off', 'full'\)"):
                profile_mode_from_env()

    def test_disabled_session_never_reads_env(self, monkeypatch):
        # Telemetry.disabled() is built at import time in some paths; a
        # bad env value must not detonate a disabled profiler.
        monkeypatch.setenv("REPRO_PROFILE", "bogus")
        prof = OpProfiler(enabled=False)
        assert prof.mode == "off"

    def test_full_mode_counts_every_step(self):
        prof = OpProfiler(mode="full")
        for _ in range(5):
            with prof.op("optimizer_step", phase="update"):
                pass
        assert prof.active
        assert prof.snapshot()["ops"]["update"]["optimizer_step"]["calls"] == 5

    def test_nested_ops_attribute_self_time(self):
        t = [0]

        def clock():
            return t[0]

        prof = OpProfiler(mode="full", clock_ns=clock)
        prof.begin()           # outer (linear)
        prof.begin()           # inner (gemm)
        prof.end("gemm", 300)
        prof.end("linear", 1000)
        ops = prof.snapshot()["ops"]["forward"]
        assert ops["gemm"]["self_ns"] == 300
        assert ops["linear"]["total_ns"] == 1000
        assert ops["linear"]["self_ns"] == 700  # child time removed

    def test_cancel_discards_the_open_level(self):
        prof = OpProfiler(mode="full")
        prof.begin()
        prof.cancel()
        assert prof.snapshot()["ops"] == {}

    def test_explicit_op_span_phases_and_bytes(self):
        prof = OpProfiler(mode="full")
        with prof.op("all_reduce", phase="comms", nbytes=100) as span:
            span.add_bytes(28)
        stat = prof.snapshot()["ops"]["comms"]["all_reduce"]
        assert stat["calls"] == 1 and stat["bytes_moved"] == 128

    def test_note_alloc_buckets_by_phase(self):
        prof = OpProfiler(mode="full")
        prof.note_alloc(64)
        prof.phase = "backward"
        prof.note_alloc(32)
        mem = prof.snapshot()["memory"]
        assert mem["forward"] == {"tensor_allocs": 1, "tensor_bytes": 64}
        assert mem["backward"] == {"tensor_allocs": 1, "tensor_bytes": 32}


class TestFrameworkIntegration:
    def test_full_profile_records_every_op_family(self):
        tele = Telemetry(profile="full")
        with tele.activate():
            _train_step()
        ops = tele.profiler.snapshot()["ops"]
        assert {"forward", "backward", "update"} <= set(ops)
        assert "conv2d_bias_relu" in ops["forward"]
        assert "linear" in ops["forward"]
        assert "conv2d_bias_relu" in ops["backward"]
        assert "optimizer_step" in ops["update"]
        for phase_ops in ops.values():
            for stat in phase_ops.values():
                assert stat["calls"] >= 1
                assert stat["total_ns"] >= stat["self_ns"] >= 0
                assert stat["bytes_moved"] > 0

    def test_off_mode_is_bit_identical_to_no_profiler(self):
        plain = _train_step()
        tele = Telemetry(profile="off")
        with tele.activate():
            profiled = _train_step()
        for a, b in zip(plain, profiled):
            np.testing.assert_array_equal(a, b)
        assert tele.profiler.snapshot() == {}

    def test_full_mode_is_bit_identical_too(self):
        plain = _train_step()
        with Telemetry(profile="full").activate():
            profiled = _train_step()
        for a, b in zip(plain, profiled):
            np.testing.assert_array_equal(a, b)

    def test_profile_counts_are_deterministic(self):
        def run():
            tele = Telemetry(profile="full")
            with tele.activate():
                _train_step()
            snap = tele.profiler.snapshot()
            return {phase: {name: (s["calls"], s["bytes_moved"])
                            for name, s in ops.items()}
                    for phase, ops in snap["ops"].items()}

        assert run() == run()

    def test_alloc_tracker_uninstalled_after_activate(self):
        from repro.framework.tensor import set_alloc_tracker

        with Telemetry(profile="full").activate():
            pass
        # Restore returns the previous tracker; after exit it must be None.
        assert set_alloc_tracker(None) is None

    def test_backward_restores_phase_on_completion(self):
        tele = Telemetry(profile="full")
        with tele.activate():
            _train_step()
            assert tele.profiler.phase == "forward"


class TestMergeAndRender:
    def test_merge_sums_counters_and_keeps_peaks(self):
        a = {"schema": "repro.op_profile.v1", "mode": "full",
             "ops": {"forward": {"gemm": {"calls": 1, "total_ns": 10,
                                          "self_ns": 10, "bytes_moved": 4}}},
             "memory": {"forward": {"tensor_allocs": 1, "tensor_bytes": 8}},
             "arena": {"peak_live_bytes": 100, "bytes_saved": 50}}
        b = {"schema": "repro.op_profile.v1", "mode": "full",
             "ops": {"forward": {"gemm": {"calls": 2, "total_ns": 20,
                                          "self_ns": 20, "bytes_moved": 8}}},
             "memory": {"forward": {"tensor_allocs": 2, "tensor_bytes": 16}},
             "arena": {"peak_live_bytes": 80, "bytes_saved": 70}}
        merged = merge_op_profiles([a, None, b])
        assert merged["ops"]["forward"]["gemm"] == {
            "calls": 3, "total_ns": 30, "self_ns": 30, "bytes_moved": 12}
        assert merged["memory"]["forward"]["tensor_allocs"] == 3
        assert merged["arena"]["peak_live_bytes"] == 100  # max, not sum
        assert merged["arena"]["bytes_saved"] == 120  # counter: sum

    def test_old_payload_with_step_counters_merges_and_renders(self):
        # Artifacts saved before the profiler became an on/off switch carry
        # sampling-window keys; they merge and render, the keys ignored.
        old = {"schema": "repro.op_profile.v1", "mode": "sampled",
               "sample_every": 8, "steps_total": 3, "steps_sampled": 1,
               "ops": {"forward": {"gemm": {"calls": 1, "total_ns": 10,
                                            "self_ns": 10, "bytes_moved": 4}}}}
        tele = Telemetry(profile="full")
        with tele.activate():
            _train_step()
        merged = merge_op_profiles([old, tele.profiler.snapshot()])
        assert not {"sample_every", "steps_total", "steps_sampled"} & set(merged)
        assert merged["ops"]["forward"]["gemm"]["calls"] == 1
        assert "conv2d_bias_relu" in merged["ops"]["forward"]
        text = render_op_profile(merged)
        assert "gemm" in text and "conv2d_bias_relu" in text

    def test_merge_of_nothing_is_empty(self):
        assert merge_op_profiles([None, {}]) == {}

    def test_render_handles_empty_and_full(self):
        assert "REPRO_PROFILE=off" in render_op_profile({})
        tele = Telemetry(profile="full")
        with tele.activate():
            _train_step()
        text = render_op_profile(tele.profiler.snapshot())
        assert "conv2d_bias_relu" in text and "optimizer_step" in text
        assert "Share" in text and "arena:" in text

