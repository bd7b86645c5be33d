"""What the sharded notification plane promised, kept per *table*.

The center once split its buffering into CRC32-mapped shards, each with
its own lock, buffer and timer thread.  The shards are gone (never
measured; see EXPERIMENTS.md) and one :class:`~repro.db.policy.PolicyGate`
buffers every table (now the database's, keyed by each table's edge), but
what these tests pinned was never about the mapping: globally gapless
sequence numbers across tables and writer threads, lossless per-table
replay, per-table ``pending_ops`` and flush isolation, a timer that exists
only under a timed policy, and a ``close`` that joins it.  They keep their
names so the history of each check is one ``git log`` away; "shard" in a
name below reads "table".
"""

import threading

from repro.db import Column, Database
from repro.db.types import FLOAT, INTEGER
from repro.sync import IMMEDIATE, MANUAL, NotificationCenter, Threshold


def make_db(tables):
    db = Database()
    for name in tables:
        db.create_table(
            name,
            [Column("id", INTEGER, nullable=False), Column("x", FLOAT)],
            primary_key="id",
        )
    return db


class TestOrderingAcrossShards:
    def test_seq_nos_globally_monotonic_across_shards(self):
        """Interleaved writes to different tables must still mint one
        global, gapless sequence."""
        tables = [f"t{i}" for i in range(6)]
        db = make_db(tables)
        center = NotificationCenter(db)
        try:
            for t in tables:
                center.watch(t)
            for i in range(24):
                db.insert(tables[i % len(tables)], {"id": i, "x": float(i)})
            seqs = []
            for t in tables:
                seqs.extend(seq for seq, _op in center.notifications_since(t, 0))
            seqs.sort()
            assert len(seqs) == 24
            assert seqs == list(range(seqs[0], seqs[0] + 24))
        finally:
            center.close()

    def test_replay_per_table_is_lossless_and_ordered(self):
        db = make_db(["pts", "aux"])
        center = NotificationCenter(db)
        try:
            center.watch("pts")
            center.watch("aux")
            for i in range(5):
                db.insert("pts", {"id": i, "x": float(i)})
                db.insert("aux", {"id": i, "x": float(i)})
            pts = center.notifications_since("pts", 0)
            assert [op for _seq, op in pts] == ["insert"] * 5
            assert [s for s, _ in pts] == sorted(s for s, _ in pts)
            # Cursor semantics: replay from the middle yields the tail.
            mid = pts[2][0]
            assert center.notifications_since("pts", mid) == pts[3:]
        finally:
            center.close()


class TestPerShardFlushing:
    def test_pending_ops_isolated_per_shard(self):
        db = make_db(["t0", "t1", "t2", "t3"])
        center = NotificationCenter(db)
        try:
            buffered = []
            for name in ("t0", "t1", "t2", "t3"):
                center.watch(name)
                center.subscriptions[name].set_policy(MANUAL)
            for name in ("t0", "t1", "t2", "t3"):
                db.insert(name, {"id": 1, "x": 1.0})
                buffered.append(name)
            per_table = {t: center.subscriptions[t].pending_ops() for t in buffered}
            assert all(v == 1 for v in per_table.values())
            # Flushing one table drains only its own entry.
            assert center.subscriptions["t0"].flush() == 1
            assert center.subscriptions["t0"].pending_ops() == 0
            assert center.subscriptions["t1"].pending_ops() == 1
            edges = center.subscriptions.values()
            assert sum(edge.pending_ops() for edge in edges) == 3
            assert sum(edge.flushes for edge in edges) == 1
        finally:
            center.close()

    def test_flush_all_drains_every_shard(self):
        tables = [f"t{i}" for i in range(10)]
        db = make_db(tables)
        center = NotificationCenter(db)
        try:
            for t in tables:
                center.watch(t)
                center.subscriptions[t].set_policy(MANUAL)
                db.insert(t, {"id": 1, "x": 1.0})
            edges = center.subscriptions.values()
            assert sum(edge.flush() for edge in edges) == len(tables)
            assert sum(edge.pending_ops() for edge in edges) == 0
        finally:
            center.close()

    def test_timer_threads_start_only_on_shards_with_timed_policies(self):
        """One timer thread, and only once a policy carries a time bound."""
        db = make_db(["timed", "counted", "manual"])
        center = NotificationCenter(db)
        try:
            for t in ("timed", "counted", "manual"):
                center.watch(t)
            center.subscriptions["manual"].set_policy(MANUAL)
            counted = Threshold(max_changes=100, max_delay_ms=None)
            center.subscriptions["counted"].set_policy(counted)
            gate = db._triggers.gate
            assert gate._timer is None
            timed = Threshold(max_changes=100, max_delay_ms=20.0)
            center.subscriptions["timed"].set_policy(timed)
            assert gate._timer.is_alive()
            # And the timer actually fires: the buffered change flushes
            # by age without any further writes.
            flushed = threading.Event()
            center.add_batch_listener(lambda table, events: flushed.set())
            db.insert("timed", {"id": 1, "x": 1.0})
            assert flushed.wait(5.0)
            assert center.subscriptions["timed"].pending_ops() == 0
            assert center.notifications_since("timed", 0)
        finally:
            center.close()

    def test_immediate_policy_unaffected_by_sharding(self):
        db = make_db(["pts"])
        center = NotificationCenter(db)
        try:
            center.watch("pts")
            assert center.subscriptions["pts"].policy() is IMMEDIATE
            db.insert("pts", {"id": 1, "x": 1.0})
            assert center.subscriptions["pts"].pending_ops() == 0
            assert len(center.notifications_since("pts", 0)) == 1
        finally:
            center.close()


class TestConcurrency:
    def test_concurrent_writers_across_shards(self):
        """Writers hammering different tables, with threshold flushing
        in play: no lost notifications, one global gapless order."""
        tables = [f"t{i}" for i in range(8)]
        db = make_db(tables)
        center = NotificationCenter(db)
        rows_per_table = 25
        try:
            for t in tables:
                center.watch(t)
                center.subscriptions[t].set_policy(
                    Threshold(max_changes=5, max_delay_ms=None)
                )
            errors = []

            def writer(table):
                try:
                    for i in range(rows_per_table):
                        db.insert(table, {"id": i, "x": float(i)})
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append(exc)

            threads = [threading.Thread(target=writer, args=(t,)) for t in tables]
            for th in threads:
                th.start()
            for th in threads:
                th.join()
            assert not errors
            for edge in center.subscriptions.values():
                edge.flush()
            seqs = []
            for t in tables:
                notes = center.notifications_since(t, 0)
                assert sum(1 for _ in notes) >= 1
                seqs.extend(s for s, _ in notes)
            # Coalescing may merge ops, but sequence numbers never collide
            # and never skip, whichever thread's flush minted them.
            assert sorted(seqs) == list(range(1, len(seqs) + 1))
        finally:
            center.close()

    def test_close_joins_all_shard_timers(self):
        tables = [f"t{i}" for i in range(12)]
        db = make_db(tables)
        center = NotificationCenter(db)
        for t in tables:
            center.watch(t)
            center.subscriptions[t].set_policy(
                Threshold(max_changes=100, max_delay_ms=10.0)
            )
        timer = db._triggers.gate._timer
        assert timer.is_alive()
        center.close()
        assert not timer.is_alive()
