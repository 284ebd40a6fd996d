"""EventCursor: incremental tailing without re-reads.

The tentpole property pinned here: a poller (monitor --watch, the
observability server) never re-reads already-consumed JSONL bytes, never
drops or duplicates an event across truncated tails, rotations, and
atomic replaces — the crash shapes real campaign writers produce.
"""

import os

import pytest

from repro.telemetry import Event, EventCursor, EventLog, read_events


def _event(i, t=0.0):
    return Event(name="epoch", time_s=t + i, pid=1, args={"epoch": i})


class TestIncrementalTailing:
    def test_polls_consume_only_new_events(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        cursor = EventCursor(path)
        assert cursor.poll() == []  # missing file is an empty stream

        with EventLog(path) as log:
            for i in range(3):
                log.write(_event(i))
            got = cursor.poll()
            assert [e.args["epoch"] for e in got] == [0, 1, 2]

            for i in range(3, 5):
                log.write(_event(i))
            got = cursor.poll()
            assert [e.args["epoch"] for e in got] == [3, 4]

    def test_zero_reread_of_consumed_bytes(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        with EventLog(path) as log:
            for i in range(10):
                log.write(_event(i))
        cursor = EventCursor(path)
        cursor.poll()
        size = os.path.getsize(path)
        assert cursor.consumed_bytes == size
        # A static file costs stat calls only: consumed_bytes never grows.
        for _ in range(50):
            assert cursor.poll() == []
        assert cursor.consumed_bytes == size
        assert cursor.polls == 51

    def test_tail_matches_full_read(self, tmp_path):
        """Accumulated tail == read_events, regardless of poll cadence."""
        path = tmp_path / "stream.jsonl"
        cursor = EventCursor(path)
        seen = []
        with EventLog(path) as log:
            for i in range(23):
                log.write(_event(i))
                if i % 3 == 0:
                    seen.extend(cursor.poll())
        seen.extend(cursor.poll())
        assert seen == read_events(path)
        assert cursor.consumed_bytes == os.path.getsize(path)


class TestTruncatedTail:
    def test_partial_record_is_not_consumed_then_read_once(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        line = _event(0).to_json() + "\n"
        half = _event(1).to_json()  # no trailing newline: writer mid-record
        path.write_text(line + half[: len(half) // 2])

        cursor = EventCursor(path)
        got = cursor.poll()
        assert [e.args["epoch"] for e in got] == [0]
        assert cursor.consumed_bytes == len(line.encode())

        # The writer finishes the record; exactly one new event appears —
        # no duplicate of event 0, no drop of event 1.
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(half[len(half) // 2:] + "\n")
        got = cursor.poll()
        assert [e.args["epoch"] for e in got] == [1]
        assert cursor.poll() == []

    def test_complete_corrupt_line_raises(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        path.write_text(_event(0).to_json() + "\n{not json}\n")
        cursor = EventCursor(path)
        with pytest.raises(ValueError, match="corrupt event line"):
            cursor.poll()


class TestRotation:
    def test_resume_after_truncation(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        with EventLog(path) as log:
            for i in range(4):
                log.write(_event(i))
        cursor = EventCursor(path)
        assert len(cursor.poll()) == 4
        # Truncate-and-restart (size < offset): read from the top again.
        with EventLog(path, mode="w") as log:
            log.write(_event(99))
        got = cursor.poll()
        assert [e.args["epoch"] for e in got] == [99]

    def test_resume_after_atomic_replace(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        with EventLog(path) as log:
            log.write(_event(0))
        cursor = EventCursor(path)
        assert len(cursor.poll()) == 1
        # os.replace gives the path a new inode; even at identical size
        # the cursor must notice and restart from byte 0.
        tmp = tmp_path / "new.jsonl"
        with EventLog(tmp, mode="w") as log:
            log.write(_event(7))
        os.replace(tmp, path)
        got = cursor.poll()
        assert [e.args["epoch"] for e in got] == [7]

    def test_deleted_then_recreated_file(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        with EventLog(path) as log:
            log.write(_event(0))
        cursor = EventCursor(path)
        assert len(cursor.poll()) == 1
        path.unlink()
        assert cursor.poll() == []
        with EventLog(path, mode="w") as log:
            log.write(_event(1))
        assert [e.args["epoch"] for e in cursor.poll()] == [1]


class TestConcurrentWriterAndReader:
    def test_no_duplicate_or_dropped_events_under_interleaving(self, tmp_path):
        """Byte-level interleaving: the reader polls between arbitrary
        partial writes, including mid-record, and still sees the exact
        event sequence exactly once."""
        path = tmp_path / "stream.jsonl"
        payload = "".join(_event(i).to_json() + "\n" for i in range(40))
        raw = payload.encode()

        cursor = EventCursor(path)
        seen = []
        # Feed the file in awkward chunk sizes (prime-ish strides) so most
        # polls land mid-record.
        with open(path, "wb") as fh:
            pos = 0
            for stride in (1, 7, 13, 3, 31, 5) * 200:
                if pos >= len(raw):
                    break
                fh.write(raw[pos: pos + stride])
                fh.flush()
                pos += stride
                seen.extend(cursor.poll())
        seen.extend(cursor.poll())
        assert [e.args["epoch"] for e in seen] == list(range(40))
        assert cursor.consumed_bytes == len(raw)
