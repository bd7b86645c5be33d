"""WAL framing, torn-tail detection, fsync policies, the commit record."""

import os

import pytest

from repro.db.wal import (
    FSYNC_ALWAYS,
    FSYNC_INTERVAL,
    FSYNC_NEVER,
    KIND_COMMIT,
    KIND_DDL,
    WriteAheadLog,
    committed_transactions,
    encode_record,
    read_wal,
    truncate_torn_tail,
)
from repro.errors import DatabaseError
from repro.faults import CrashInjector, CrashPlan, SimulatedCrash


class TestFraming:
    def test_encode_is_crc_space_json_newline(self):
        data = encode_record({"k": "b", "x": 1})
        assert data.endswith(b"\n")
        assert data[8:9] == b" "
        int(data[:8], 16)  # valid hex CRC

    def test_round_trip_through_read_wal(self, tmp_path):
        path = tmp_path / "wal.log"
        payloads = [{"k": "b", "x": 1}, {"k": "o", "x": 1, "op": "i", "t": "t"}]
        path.write_bytes(b"".join(encode_record(p) for p in payloads))
        records, offset = read_wal(path)
        assert [r.payload for r in records] == payloads
        assert offset == path.stat().st_size

    def test_non_json_payload_is_refused(self):
        with pytest.raises(DatabaseError, match="JSON"):
            encode_record({"k": "o", "bad": object()})

    @pytest.mark.parametrize(
        "damage",
        [
            lambda d: d[: len(d) // 2],  # partial line (no newline)
            lambda d: d[:3] + b"f" + d[4:],  # CRC mismatch
            lambda d: d[:9] + b"not json\n",  # unparsable body
            lambda d: b"x" * 5,  # too short to frame
        ],
    )
    def test_damaged_tail_marks_cut_point(self, tmp_path, damage):
        path = tmp_path / "wal.log"
        good = encode_record({"k": "b", "x": 1}) + encode_record(
            {"k": "c", "x": 1, "clk": 2}
        )
        path.write_bytes(good + damage(encode_record({"k": "b", "x": 2})))
        records, offset = read_wal(path)
        assert len(records) == 2
        assert offset == len(good)

    def test_records_after_damage_are_discarded_even_if_intact(self, tmp_path):
        # A good-looking record AFTER the tear belongs to the crash.
        path = tmp_path / "wal.log"
        good = encode_record({"k": "b", "x": 1})
        path.write_bytes(good + b"garbage\n" + encode_record({"k": "c", "x": 1}))
        records, offset = read_wal(path)
        assert len(records) == 1
        assert offset == len(good)

    def test_truncate_torn_tail(self, tmp_path):
        path = tmp_path / "wal.log"
        good = encode_record({"k": "b", "x": 1})
        path.write_bytes(good + b"torn")
        _, offset = read_wal(path)
        assert truncate_torn_tail(path, offset) == 4
        assert path.stat().st_size == len(good)
        assert truncate_torn_tail(path, offset) == 0  # idempotent


class TestFsyncPolicies:
    def test_always_syncs_every_commit(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w.log", fsync=FSYNC_ALWAYS)
        for txn in range(3):
            wal.append({"k": KIND_COMMIT, "x": txn, "ops": [], "clk": txn})
            wal.commit_point()
        assert wal.syncs == 3
        assert wal.synced_offset == wal.offset
        wal.close()

    def test_never_never_syncs(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w.log", fsync=FSYNC_NEVER)
        for txn in range(5):
            wal.append({"k": KIND_COMMIT, "x": txn, "clk": txn})
            wal.commit_point()
        assert wal.syncs == 0
        wal.close()
        # Data still hits the file through the OS (process-kill safety).
        records, _ = read_wal(tmp_path / "w.log")
        assert len(records) == 5

    def test_interval_groups_commits(self, tmp_path):
        wal = WriteAheadLog(
            tmp_path / "w.log",
            fsync=FSYNC_INTERVAL,
            group_commits=4,
            group_interval_ms=60_000,  # too long to trigger on time
        )
        for txn in range(8):
            wal.append({"k": KIND_COMMIT, "x": txn, "clk": txn})
            wal.commit_point()
        assert wal.syncs == 2  # 8 commits / group of 4
        wal.close()

    def test_interval_log_writer_syncs_on_time(self, tmp_path):
        import time

        wal = WriteAheadLog(
            tmp_path / "w.log",
            fsync=FSYNC_INTERVAL,
            group_commits=1000,  # count trigger never fires
            group_interval_ms=10.0,
        )
        assert wal._writer is not None and wal._writer.is_alive()
        wal.append({"k": KIND_COMMIT, "x": 1, "clk": 1})
        wal.commit_point()  # enqueues; returns without touching the disk
        wal.drain()  # records written + flushed by the writer thread
        assert wal.offset > 0
        deadline = time.monotonic() + 2.0
        while wal.synced_offset < wal.offset and time.monotonic() < deadline:
            time.sleep(0.01)
        assert wal.synced_offset == wal.offset  # time trigger fired
        assert wal.syncs >= 1
        wal.close()

    def test_interval_log_writer_preserves_record_order(self, tmp_path):
        wal = WriteAheadLog(
            tmp_path / "w.log",
            fsync=FSYNC_INTERVAL,
            group_commits=64,
            group_interval_ms=60_000,
        )
        for txn in range(20):
            wal.append({"k": KIND_DDL, "op": "create", "t": f"t{txn}", "clk": txn})
            wal.append({"k": KIND_COMMIT, "x": txn, "ops": [], "clk": txn})
            wal.commit_point()
        wal.close()
        records, _ = read_wal(tmp_path / "w.log")
        assert [r.kind for r in records] == [KIND_DDL, KIND_COMMIT] * 20
        xs = [r.payload["x"] for r in records if r.kind == KIND_COMMIT]
        assert xs == list(range(20))
        assert wal.commits == 20

    def test_interval_backpressure_bounds_inflight_commits(self, tmp_path):
        # group_commits=1 degrades to fully synchronous: every commit
        # waits for the writer to land it before returning.
        wal = WriteAheadLog(
            tmp_path / "w.log",
            fsync=FSYNC_INTERVAL,
            group_commits=1,
            group_interval_ms=60_000,
        )
        for txn in range(5):
            wal.append({"k": KIND_COMMIT, "x": txn, "clk": txn})
            wal.commit_point()
            assert wal._pending_commits == 0  # landed before return
        wal.close()
        records, _ = read_wal(tmp_path / "w.log")
        assert len(records) == 5

    def test_interval_under_crash_injection_stays_synchronous(self, tmp_path):
        # The injector must fire on the committing thread, so no writer
        # thread is started and both triggers run at commit time.
        crash = CrashInjector()
        wal = WriteAheadLog(
            tmp_path / "w.log",
            fsync=FSYNC_INTERVAL,
            group_commits=1000,
            group_interval_ms=0.0,  # every commit is past the window
            crash=crash,
        )
        assert wal._writer is None
        wal.append({"k": KIND_COMMIT, "x": 1, "clk": 1})
        wal.commit_point()
        assert wal.syncs == 1  # synchronous time trigger
        wal.close()

    def test_unknown_policy_rejected(self, tmp_path):
        with pytest.raises(DatabaseError, match="fsync policy"):
            WriteAheadLog(tmp_path / "w.log", fsync="sometimes")

    def test_append_continues_existing_segment(self, tmp_path):
        path = tmp_path / "w.log"
        wal = WriteAheadLog(path)
        wal.append({"k": KIND_DDL, "op": "create", "t": "a", "clk": 1})
        wal.close()
        wal = WriteAheadLog(path)
        wal.append({"k": KIND_DDL, "op": "create", "t": "b", "clk": 2})
        wal.close()
        records, _ = read_wal(path)
        assert [r.payload["t"] for r in records] == ["a", "b"]


class TestCrashPoints:
    def test_crash_before_append_leaves_no_trace(self, tmp_path):
        crash = CrashInjector(CrashPlan("wal.append", at=1))
        wal = WriteAheadLog(tmp_path / "w.log", crash=crash)
        wal.append({"k": KIND_COMMIT, "x": 1, "ops": [], "clk": 1})
        with pytest.raises(SimulatedCrash):
            wal.append({"k": KIND_COMMIT, "x": 2, "ops": [], "clk": 2})
        records, _ = read_wal(tmp_path / "w.log")
        assert [r.payload["x"] for r in records] == [1]

    def test_torn_write_leaves_partial_record(self, tmp_path):
        crash = CrashInjector(CrashPlan("wal.append", at=1, torn_bytes=5))
        wal = WriteAheadLog(tmp_path / "w.log", crash=crash)
        wal.append({"k": KIND_COMMIT, "x": 1, "ops": [], "clk": 1})
        with pytest.raises(SimulatedCrash):
            wal.append({"k": KIND_COMMIT, "x": 2, "ops": [], "clk": 2})
        size = os.path.getsize(tmp_path / "w.log")
        records, offset = read_wal(tmp_path / "w.log")
        assert [r.payload["x"] for r in records] == [1]
        assert offset < size  # the torn 5 bytes are detected as damage

    def test_power_loss_drops_unsynced_bytes(self, tmp_path):
        crash = CrashInjector(CrashPlan("wal.fsync", at=1, power_loss=True))
        wal = WriteAheadLog(tmp_path / "w.log", fsync=FSYNC_ALWAYS, crash=crash)
        wal.append({"k": KIND_COMMIT, "x": 1, "clk": 1})
        wal.commit_point()  # first fsync survives
        wal.append({"k": KIND_COMMIT, "x": 2, "clk": 2})
        with pytest.raises(SimulatedCrash):
            wal.commit_point()  # second fsync is the crash
        records, _ = read_wal(tmp_path / "w.log")
        assert [r.payload["x"] for r in records] == [1]

    def test_process_kill_keeps_buffered_bytes(self, tmp_path):
        # Same crash point without power_loss: write(2)-handed-over data
        # survives a process kill.
        crash = CrashInjector(CrashPlan("wal.fsync", at=1))
        wal = WriteAheadLog(tmp_path / "w.log", fsync=FSYNC_ALWAYS, crash=crash)
        wal.append({"k": KIND_COMMIT, "x": 1, "clk": 1})
        wal.commit_point()
        wal.append({"k": KIND_COMMIT, "x": 2, "clk": 2})
        with pytest.raises(SimulatedCrash):
            wal.commit_point()
        records, _ = read_wal(tmp_path / "w.log")
        assert [r.payload["x"] for r in records] == [1, 2]


class TestCommittedTransactions:
    def test_groups_in_commit_order(self, tmp_path):
        path = tmp_path / "w.log"
        op = {"op": "i", "t": "t", "r": {}}
        payloads = [
            {"k": KIND_COMMIT, "x": 1, "ops": [op], "clk": 5},
            {"k": KIND_DDL, "op": "create", "t": "u", "clk": 6},
            {"k": KIND_COMMIT, "x": 2, "ops": [op, op], "clk": 7},
        ]
        path.write_bytes(b"".join(encode_record(p) for p in payloads))
        records, _ = read_wal(path)
        groups = list(committed_transactions(records))
        assert [clk for clk, _ in groups] == [5, 6, 7]
        assert [len(ops) for _, ops in groups] == [1, 1, 2]
        assert groups[1][1][0]["k"] == KIND_DDL

    def test_in_flight_transaction_is_dropped(self, tmp_path):
        # Was: a begin without its commit.  A commit is one record now, so
        # the crash's in-flight commit is a partial line the CRC cuts off.
        path = tmp_path / "w.log"
        whole = encode_record({"k": KIND_COMMIT, "x": 1, "ops": [], "clk": 1})
        in_flight = encode_record(
            {"k": KIND_COMMIT, "x": 2, "ops": [{"op": "i", "t": "t", "r": {}}], "clk": 2}
        )
        path.write_bytes(whole + in_flight[:-7])
        records, good = read_wal(path)
        assert good == len(whole)
        groups = list(committed_transactions(records))
        assert len(groups) == 1
        assert groups[0][0] == 1

    def test_a_record_kind_of_the_three_record_format_is_refused(self, tmp_path):
        path = tmp_path / "w.log"
        path.write_bytes(encode_record({"k": "b", "x": 1}))
        records, _ = read_wal(path)
        with pytest.raises(DatabaseError, match="unknown kind 'b'"):
            list(committed_transactions(records))
