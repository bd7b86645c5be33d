"""A transaction block is exclusive, and a refresh reads committed state.

``TransactionContext`` holds the database lock from entry to exit, and
``SyncClient.refresh`` takes its seq snapshot and reads its rows in one
critical section under that lock.  Pinned here, deterministically
(Events; the only timed wait is the one that must run out):

* another thread's auto-committed statement issued while a transaction is
  open waits for the block to exit -- it used to *join* the transaction
  silently: no trigger fired, and the other thread's rollback deleted it;
* a refresh started while a transaction has updated a pending row waits
  too -- it used to mirror the uncommitted image, and no later refresh
  repaired it after the rollback;
* a mirror refreshed beside a writer of ``VisualAttributesStore.write``
  ticks holds whole ticks only: a tick is one commit, and a refresh never
  sees part of one.
"""

import random
import sys
import threading

from repro.core import datamodel
from repro.db import Column, Database, col
from repro.db.types import FLOAT, INTEGER
from repro.sync import NotificationCenter, SyncClient, SyncServer
from repro.vis import VisualAttributesStore, VisualItem

T_ATTRS = datamodel.T_VISUAL_ATTRIBUTES
#: How long the open transaction waits for the other thread to get past
#: it.  The other thread is blocked, so this wait runs out: that is the pass.
MUST_RUN_OUT_S = 0.2
JOIN_S = 10.0


class Abort(Exception):
    pass


def make_db():
    db = Database()
    db.create_table(
        "t", [Column("id", INTEGER, nullable=False), Column("v", FLOAT)], primary_key="id"
    )
    return db


def race(db, inside_the_block, other_thread):
    """Open a transaction that rolls back; while it is open, run
    ``other_thread`` elsewhere.  Returns whether the other thread got past
    the block before it exited (it must not)."""
    inside, done = threading.Event(), threading.Event()
    overtook = []

    def holder():
        try:
            with db.transaction():
                inside_the_block()
                inside.set()
                overtook.append(done.wait(MUST_RUN_OUT_S))
                raise Abort
        except Abort:
            pass

    def other():
        assert inside.wait(JOIN_S)
        other_thread()
        done.set()

    threads = [threading.Thread(target=holder), threading.Thread(target=other)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(JOIN_S)
    assert not any(thread.is_alive() for thread in threads)
    assert done.is_set()
    return overtook[0]


def test_another_threads_statement_waits_for_the_block_and_survives_its_rollback():
    db = make_db()
    fired = []
    db.on("t", "insert", lambda change: fired.append([r["id"] for r in change.inserted]))
    overtook = race(
        db,
        lambda: db.insert("t", {"id": 1, "v": 0.0}),
        lambda: db.insert("t", {"id": 2, "v": 0.0}),
    )
    assert not overtook
    # Its own statement, its own commit: the trigger fired, and the other
    # thread's rollback took only the other thread's row.
    assert fired == [[2]]
    assert [row["id"] for row in db.table("t").rows()] == [2]


def test_a_refresh_waits_for_the_block_and_never_mirrors_an_uncommitted_image():
    db = make_db()
    server = SyncServer(db, NotificationCenter(db), use_sockets=False)
    client = SyncClient(server)
    db.insert("t", {"id": 1, "v": 0.0})
    mirror = client.mirror("t")
    db.update("t", {"v": 1.0}, col("id") == 1)  # logged, not yet pulled
    overtook = race(
        db,
        lambda: db.update("t", {"v": 666.0}, col("id") == 1),
        lambda: client.refresh("t"),
    )
    assert not overtook
    assert db.table("t").by_key(1)["v"] == 1.0  # rolled back
    assert mirror.all_rows() == [dict(row) for row in db.table("t").rows()]
    client.close()
    server.close()


def test_a_mirror_refreshed_beside_the_writer_holds_whole_ticks_only():
    db = Database()
    server = SyncServer(db, NotificationCenter(db), use_sockets=False)
    store = VisualAttributesStore(db)
    rng = random.Random(22)
    stock, per_tick = 40, 4
    store.write(1, [VisualItem(obj_id=i, x=0.0, label="-1") for i in range(stock)])
    ticks = []
    for tick in range(120):
        new = range(stock, stock + per_tick)
        moved = rng.sample(range(stock), per_tick)
        stock += per_tick
        ticks.append(
            [VisualItem(obj_id=i, x=float(tick), label=str(tick)) for i in (*new, *moved)]
        )
    client = SyncClient(server)
    mirror = client.mirror(T_ATTRS)

    def writer():
        for items in ticks:
            store.write(1, items)

    def partial_ticks():
        """Ticks the mirror holds some, not all, tuples of (a tuple is
        held once its image is that tick's or a later one's)."""
        version = {row["obj_id"]: int(row["label"]) for row in mirror.all_rows()}
        partial = []
        for tick, items in enumerate(ticks):
            held = [version.get(item.obj_id, -1) >= tick for item in items]
            if any(held) and not all(held):
                partial.append(tick)
        return partial

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    thread = threading.Thread(target=writer)
    try:
        thread.start()
        refreshes = 0
        while thread.is_alive():
            client.refresh(T_ATTRS)
            refreshes += 1
            assert partial_ticks() == [], f"refresh {refreshes} caught part of a tick"
        thread.join(JOIN_S)
        assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    client.refresh(T_ATTRS)
    assert partial_ticks() == []
    assert mirror.all_rows() == [dict(row) for row in db.table(T_ATTRS).rows()]
    client.close()
    server.close()
