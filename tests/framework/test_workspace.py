"""Tests for the kernel workspace arena (borrow/release scratch buffers)."""

from __future__ import annotations

import gc
import threading

import numpy as np
import pytest

from repro.framework.workspace import Workspace, _size_class, arena, record_arena_gauges
from repro.telemetry import Telemetry


class TestTakeRelease:
    def test_take_shape_and_dtype(self):
        ws = Workspace()
        buf = ws.take((3, 4), np.float64)
        assert buf.shape == (3, 4)
        assert buf.dtype == np.float64

    def test_int_shape(self):
        ws = Workspace()
        assert ws.take(7).shape == (7,)

    def test_release_then_take_reuses(self):
        ws = Workspace()
        a = ws.take((4, 6))
        base = a.base if a.base is not None else a
        ws.release(a)
        b = ws.take((4, 6))
        assert (b.base if b.base is not None else b) is base
        assert ws.hits == 1 and ws.misses == 1

    def test_size_keyed_across_shapes(self):
        ws = Workspace()
        a = ws.take((4, 6))
        ws.release(a)
        b = ws.take((24,))  # same element count, different shape
        assert ws.hits == 1

    def test_dtype_keyed(self):
        # The key is the byte size class, not the dtype: a released buffer
        # serves any dtype whose borrow lands in the same class.
        ws = Workspace()
        a = ws.take((2048,), np.float32)  # 8 KiB
        ws.release(a)
        b = ws.take((1024,), np.float64)  # 8 KiB again
        assert b.dtype == np.float64 and b.shape == (1024,)
        assert ws.hits == 1 and ws.misses == 1
        ws.take((2048,), np.float64)  # 16 KiB: another class
        assert ws.hits == 1 and ws.misses == 2

    def test_live_borrows_never_alias(self):
        ws = Workspace()
        a = ws.take((16,))
        b = ws.take((16,))
        assert not np.shares_memory(a, b)
        ws.release(a)
        c = ws.take((16,))  # a's buffer may come back only after release
        assert not np.shares_memory(b, c)

    def test_double_release_raises(self):
        ws = Workspace()
        buf = ws.take((4,))
        ws.release(buf)
        with pytest.raises(ValueError):
            ws.release(buf)

    def test_foreign_release_raises(self):
        ws = Workspace()
        with pytest.raises(ValueError):
            ws.release(np.zeros(4))


class TestSizeClasses:
    def test_eight_steps_per_power_of_two_with_floor(self):
        assert _size_class(0) == _size_class(1) == _size_class(4096) == 4096
        classes = sorted({_size_class(n) for n in range(4097, 8193)})
        assert classes == [4096 + 512 * k for k in range(1, 9)]
        for n in (4097, 12345, 147456 * 3, 2**20 + 1, 9437184, 10**9 + 7):
            c = _size_class(n)
            assert n <= c <= n + n // 8 and _size_class(c) == c

    def test_nearby_sizes_share_a_buffer(self):
        # A batch dimension that drifts (RoI count) must not leave one
        # buffer per distinct size behind.
        ws = Workspace()
        for k in (64, 67, 63, 66, 65):
            ws.release(ws.take((k, 32, 7, 7), np.float32))
        assert ws.misses == 1 and ws.hits == 4
        assert ws.pooled_bytes == ws.bytes_allocated == _size_class(64 * 32 * 49 * 4)
        ws = Workspace()
        for k in range(32, 65):  # 33 distinct sizes, a factor of two apart
            ws.release(ws.take((k, 32, 7, 7), np.float32))
        assert ws.misses <= 9

    def test_view_is_exactly_the_request(self):
        ws = Workspace()
        buf = ws.take((5, 300), np.float32)  # 6000 B in a 6144 B class
        assert buf.shape == (5, 300) and buf.nbytes == 6000
        assert buf.flags.c_contiguous and buf.flags.writeable
        assert ws.live_bytes == 6144
        ws.release(buf)
        assert ws.live_bytes == 0
        assert ws.take((0, 7), np.float64).shape == (0, 7)


class TestReclaimAndStats:
    def test_dead_borrow_is_reclaimed(self):
        ws = Workspace()
        buf = ws.take((32,))
        del buf
        gc.collect()
        assert ws.live_count == 0
        ws.take((32,))
        assert ws.hits == 1

    def test_stats_and_reset(self):
        ws = Workspace()
        a = ws.take((8,), np.float32)
        ws.release(a)
        b = ws.take((8,), np.float32)
        stats = ws.stats()
        assert b.size == 8
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        assert stats["bytes_allocated"] == 4096  # the floor class, not 8 * 4
        assert stats["live"] == 1
        ws.reset_stats()
        assert ws.hit_rate == 0.0 and ws.bytes_allocated == 0

    def test_clear_drops_pool(self):
        ws = Workspace()
        ws.release(ws.take((8,)))
        assert ws.pooled_bytes > 0
        ws.clear()
        assert ws.pooled_bytes == 0

    def test_arena_is_thread_local(self):
        main_ws = arena()
        other: list[Workspace] = []
        t = threading.Thread(target=lambda: other.append(arena()))
        t.start()
        t.join()
        assert other[0] is not main_ws
        assert arena() is main_ws


class TestTelemetry:
    def test_take_counts_into_ambient_metrics(self):
        telemetry = Telemetry()
        ws = Workspace()
        with telemetry.activate():
            first = ws.take((16,), np.float32)
            ws.release(first)
            ws.take((16,), np.float32)
        metrics = telemetry.metrics
        assert metrics.counter("kernel_arena_misses").value == 1
        assert metrics.counter("kernel_arena_hits").value == 1
        assert metrics.counter("kernel_arena_bytes_allocated").value == 4096

    def test_takes_follow_the_ambient_registry(self):
        first, second = Telemetry(), Telemetry()
        ws = Workspace()
        with first.activate():
            ws.release(ws.take((16,), np.float32))  # miss
            ws.release(ws.take((16,), np.float32))  # hit
            with second.activate():
                ws.release(ws.take((16,), np.float32))  # hit, nested session
            ws.release(ws.take((16,), np.float32))  # hit, back in the first
        with second.activate():
            big = ws.take((32, 1024), np.float32)  # miss
        assert big.nbytes == 32 * 4096
        assert first.metrics.counter("kernel_arena_hits").value == 2
        assert first.metrics.counter("kernel_arena_misses").value == 1
        assert second.metrics.counter("kernel_arena_hits").value == 1
        assert second.metrics.counter("kernel_arena_misses").value == 1
        assert second.metrics.counter("kernel_arena_bytes_allocated").value == 32 * 4096

    def test_disabled_registry_gets_no_instrument(self):
        from repro.telemetry import current_metrics

        ws = Workspace()
        ws.release(ws.take((16,), np.float32))
        ws.release(ws.take((16,), np.float32))
        assert current_metrics().names() == []
        telemetry = Telemetry()
        with telemetry.activate():  # what was cached for the null registry is dropped
            ws.release(ws.take((16,), np.float32))
        assert telemetry.metrics.counter("kernel_arena_hits").value == 1

    def test_miss_counters_absent_until_the_first_miss(self):
        ws = Workspace()
        ws.release(ws.take((16,), np.float32))
        telemetry = Telemetry()
        with telemetry.activate():
            ws.release(ws.take((16,), np.float32))
            assert set(telemetry.metrics.snapshot()) == {"kernel_arena_hits"}
            ws.release(ws.take((64, 1024), np.float32))
        assert set(telemetry.metrics.snapshot()) == {
            "kernel_arena_hits", "kernel_arena_misses", "kernel_arena_bytes_allocated"}

    def test_workspace_does_not_keep_a_finished_registry_alive(self):
        import gc
        import weakref

        ws = Workspace()
        telemetry = Telemetry()
        with telemetry.activate():
            ws.release(ws.take((16,), np.float32))
        registry = weakref.ref(telemetry.metrics)
        del telemetry
        gc.collect()
        assert registry() is None
        ws.release(ws.take((16,), np.float32))  # and the workspace still works

    def test_record_arena_gauges(self):
        telemetry = Telemetry()
        with telemetry.activate():
            stats = record_arena_gauges()
        gauge = telemetry.metrics.gauge("kernel_arena_hit_rate")
        assert gauge.value == stats["hit_rate"]
        assert telemetry.metrics.gauge("kernel_arena_live_borrows").value == stats["live"]
