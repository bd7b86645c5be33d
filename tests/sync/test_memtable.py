"""In-memory mirrors: upserts, deletes, partial mirrors, write-back and
its echo, and the row images a mirror shares with its table."""

import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database
from repro.db.schema import TID
from repro.errors import DatabaseError, SyncError
from repro.sync import MemoryTable, NotificationCenter, SyncClient, SyncServer


def row(tid, **values):
    values[TID] = tid
    return values


class TestApply:
    def test_upsert_inserts_then_updates(self):
        rm = MemoryTable("t")
        rm.apply_upsert(row(1, x=1))
        assert rm.applied_inserts == 1
        rm.apply_upsert(row(1, x=2))
        assert rm.applied_updates == 1
        assert rm.get(1)["x"] == 2

    def test_delete(self):
        rm = MemoryTable("t")
        rm.apply_upsert(row(1, x=1))
        rm.apply_delete(1)
        assert rm.get(1) is None
        assert rm.applied_deletes == 1
        rm.apply_delete(1)  # idempotent
        assert rm.applied_deletes == 1

    def test_reads_share_the_held_image(self):
        rm = MemoryTable("t")
        image = row(1, x=1)
        rm.apply_upsert(image)
        assert rm.get(1) is image
        assert rm.all_rows()[0] is image
        rm.apply_batch([row(2, x=2), row(3, x=3)], [])
        assert all(r is rm.get(r[TID]) for r in rm.all_rows())

    def test_iteration_and_len(self):
        rm = MemoryTable("t")
        rm.apply_upsert(row(1, x=1))
        rm.apply_upsert(row(2, x=2))
        assert len(rm) == 2
        assert sorted(r["x"] for r in rm) == [1, 2]
        assert rm.tids() == [1, 2]


class TestPartialMirrors:
    def test_fraction_filters_deterministically(self):
        rm = MemoryTable("t", fraction=0.3)
        for tid in range(1, 201):
            rm.apply_upsert(row(tid, x=tid))
        kept_once = len(rm)
        # Same tids, same decision.
        rm2 = MemoryTable("t", fraction=0.3)
        for tid in range(1, 201):
            rm2.apply_upsert(row(tid, x=tid))
        assert len(rm2) == kept_once
        assert 0.15 < kept_once / 200 < 0.45  # roughly the fraction

    def test_invalid_fraction(self):
        with pytest.raises(SyncError):
            MemoryTable("t", fraction=0.0)
        with pytest.raises(SyncError):
            MemoryTable("t", fraction=1.5)

    def test_predicate_filter(self):
        rm = MemoryTable("t", predicate=lambda r: r["x"] > 10)
        rm.apply_upsert(row(1, x=5))
        rm.apply_upsert(row(2, x=15))
        assert rm.tids() == [2]

    def test_row_leaving_predicate_is_dropped(self):
        rm = MemoryTable("t", predicate=lambda r: r["x"] > 10)
        rm.apply_upsert(row(1, x=15))
        assert len(rm) == 1
        rm.apply_upsert(row(1, x=5))  # update moves it out of the mirror
        assert len(rm) == 0


# ----------------------------------------------------------------------
# Step 9: the database is written first, the mirror then holds the image
# the committed UPDATE returned, and that image -- offered again by the
# refresh the write's NOTIFY prompts -- is recognized by identity.
@pytest.fixture
def written():
    db = Database()
    db.execute(
        "CREATE TABLE t (k INTEGER PRIMARY KEY, x INTEGER NOT NULL, y INTEGER)"
    )
    db.execute("INSERT INTO t (k, x, y) VALUES (1, 1, 0), (2, 2, 0), (3, 3, 0)")
    center = NotificationCenter(db)
    server = SyncServer(db, center, use_sockets=False)
    client = SyncClient(server)
    yield db, client, client.mirror("t")
    client.close()
    server.close()
    center.close()


class TestEchoSuppression:
    def test_own_write_echo_skipped(self, written):
        db, client, rm = written
        client.write_back("t", 1, "x", 42)
        image = db.table("t").get(1)
        assert rm.get(1) is image
        assert (rm.skipped_self_updates, rm.applied_updates) == (0, 0)
        # The refresh pulls the write's echo: the image the mirror holds.
        assert client.refresh("t") == {"upserts": 1, "deletes": 0}
        assert (rm.skipped_self_updates, rm.applied_updates) == (1, 0)
        assert rm.get(1) is image and image["x"] == 42
        # hold() itself: an image held is an echo, a new one an update.
        rm.hold({**image, "x": 43})
        held = rm.get(1)
        rm.apply_upsert(held)
        assert (rm.skipped_self_updates, rm.applied_updates) == (2, 0)
        rm.apply_upsert({**held, "x": 44})
        assert (rm.skipped_self_updates, rm.applied_updates) == (2, 1)

    def test_concurrent_remote_change_wins(self, written):
        db, client, rm = written
        client.write_back("t", 1, "x", 42)
        db.update_by_tid("t", 1, {"x": 7})  # a remote writer overwrites it
        client.refresh("t")
        assert rm.get(1)["x"] == 7
        assert rm.get(1) is db.table("t").get(1)
        assert (rm.skipped_self_updates, rm.applied_updates) == (0, 1)

    def test_other_column_changed_alongside(self, written):
        db, client, rm = written
        client.write_back("t", 1, "x", 42)
        db.update_by_tid("t", 1, {"y": 5})  # y changed remotely too
        client.refresh("t")
        assert (rm.get(1)["x"], rm.get(1)["y"]) == (42, 5)
        assert (rm.skipped_self_updates, rm.applied_updates) == (0, 1)

    def test_write_back_copies_on_write(self, written):
        db, client, rm = written
        before = db.table("t").get(1)
        assert rm.get(1) is before
        kept = dict(before)
        client.write_back("t", 1, "x", 42)
        # The table's before image -- what a reader was handed -- is as it was.
        assert before == kept
        assert rm.get(1) is db.table("t").get(1) is not before
        assert rm.get(1)["x"] == 42

    def test_write_back_unknown_tid(self, written):
        db, client, rm = written
        with pytest.raises(SyncError):
            client.write_back("t", 99, "x", 1)
        # A row the table has but a partial mirror does not hold.
        partial = SyncClient(client.server)
        try:
            half = partial.mirror("t", predicate=lambda r: r["x"] > 1)
            with pytest.raises(SyncError):
                partial.write_back("t", 1, "x", 5)
            assert db.table("t").get(1)["x"] == 1
            assert half.tids() == [2, 3]
        finally:
            partial.close()


class TestWriteBackFaults:
    """A write-back leaves the mirror no image the table did not commit,
    and no bookkeeping behind."""

    @pytest.mark.parametrize(
        "column, value", [("x", None), ("y", "abc")], ids=["not-null", "type"]
    )
    def test_a_rejected_write_back_leaves_the_mirror_as_it_was(
        self, written, column, value
    ):
        db, client, rm = written
        image = rm.get(1)
        with pytest.raises(DatabaseError):
            client.write_back("t", 1, column, value)
        assert rm.get(1) is image is db.table("t").get(1)
        client.refresh("t")
        assert all(rm.get(tid) is db.table("t").get(tid) for tid in (1, 2, 3))

    @pytest.mark.parametrize("commit", [True, False], ids=["commit", "rollback"])
    def test_a_write_back_inside_a_transaction_waits_for_its_commit(
        self, written, commit
    ):
        db, client, rm = written
        image = rm.get(1)
        try:
            with db.transaction():
                client.write_back("t", 1, "x", 42)
                assert rm.get(1) is image
                if not commit:
                    raise RuntimeError("roll back")
        except RuntimeError:
            pass
        client.refresh("t")
        assert rm.get(1) is db.table("t").get(1)
        assert rm.get(1)["x"] == (42 if commit else 1)

    def test_no_bookkeeping_outlives_overwritten_or_deleted_rows(self):
        db = Database()
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, x INTEGER)")
        db.insert_many("t", [{"k": k, "x": 0} for k in range(200)])
        center = NotificationCenter(db)
        server = SyncServer(db, center, use_sockets=False)
        client = SyncClient(server)
        rm = client.mirror("t")
        tids = rm.tids()
        for tid in tids[:100]:
            client.write_back("t", tid, "x", 1)
        db.update_by_tids("t", dict.fromkeys(tids[:50], {"x": 2}))
        db.delete_by_tids("t", tids[50:100])
        client.refresh("t")
        assert rm.tids() == db.table("t").tids()
        # The rows are the mirror's only per-row state.
        per_row = {
            name: value
            for name, value in vars(rm).items()
            if name != "rows" and isinstance(value, (dict, list, set)) and value
        }
        assert per_row == {}
        # A remote write of the value an overwritten write-back once
        # carried is a remote change, not an echo.
        db.update_by_tid("t", tids[0], {"x": 1})
        client.refresh("t")
        assert rm.skipped_self_updates == 0
        client.close()
        server.close()
        center.close()

    def test_no_refresh_folds_an_older_image_over_a_write_back(self, written):
        """A refresher and a remote writer race the write-backs; once a
        write-back returns, the mirror never again holds an older image
        of its row (the refresh lock spans the write and the hold)."""
        db, client, rm = written
        stop = threading.Event()
        regressions = []
        fold = rm.apply_batch

        def slow_fold(upserts, deletes):
            time.sleep(0.0002)  # widens a refresh's read -> fold window
            fold(upserts, deletes)

        rm.apply_batch = slow_fold

        def refresher():
            while not stop.is_set():
                client.refresh("t")

        def remote():
            while not stop.is_set():
                db.update_by_tids("t", {2: {"y": 1}, 3: {"y": 1}})

        threads = [threading.Thread(target=f) for f in (refresher, remote)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for value in range(2, 302):  # the fixture holds x = 1
                # Only this loop writes row 1's x, in ascending values: an
                # older image of the row holds a smaller x.
                client.write_back("t", 1, "x", value)
                for _ in range(3):
                    if rm.get(1)["x"] < value:
                        regressions.append(value)
                    time.sleep(0)
        finally:
            stop.set()
            for thread in threads:
                thread.join(10.0)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert regressions == []
        client.refresh("t")
        assert all(rm.get(tid) is db.table("t").get(tid) for tid in (1, 2, 3))


def test_an_unlocked_read_sees_a_committed_image_or_none():
    """``get`` takes no lock: a reader looping over every tid while 200
    refreshes apply batches that update, insert and delete the same
    tids reads each tid's row as ``None`` or as an image the table
    committed for it -- never a torn or foreign one."""
    db = Database()
    db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER)")
    db.insert_many("t", [{"k": k, "v": 0} for k in range(20)])
    center = NotificationCenter(db)
    server = SyncServer(db, center)
    client = SyncClient(server)
    mirror = client.mirror("t")
    table = db.table("t")
    #: Every image each tid was committed with (held, so ids stay unique).
    committed = {tid: [table.get(tid)] for tid in table.tids()}
    span = range(1, 20 + 2 * 200 + 1)
    stop = threading.Event()
    strays = []
    sweeps = [0]

    def reader():
        while not stop.is_set():
            for tid in span:
                image = mirror.get(tid)
                if image is not None and not any(
                    image is held for held in committed.get(tid, ())
                ):
                    strays.append((tid, image))
            sweeps[0] += 1

    thread = threading.Thread(target=reader)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    thread.start()
    try:
        keys = iter(range(100, 100 + 2 * 200))
        for batch in range(200):
            live = table.tids()
            with db.transaction():
                db.update_by_tids("t", {tid: {"v": batch} for tid in live[:6]})
                db.delete_by_tids("t", live[4:6])
                db.insert_many("t", [{"k": next(keys), "v": batch} for _ in range(2)])
            for tid in table.tids():
                images = committed.setdefault(tid, [])
                if not images or images[-1] is not table.get(tid):
                    images.append(table.get(tid))
            assert client.refresh("t")["upserts"] == 6
    finally:
        stop.set()
        thread.join(10.0)
        sys.setswitchinterval(interval)
    assert not thread.is_alive()
    assert sweeps[0] > 0 and strays == []
    assert all(mirror.get(tid) is table.get(tid) for tid in span)
    client.close()
    server.close()
    center.close()


# ----------------------------------------------------------------------
# Batch apply == per-row apply: ``apply_batch`` is the one apply path and
# ``apply_upsert`` / ``apply_delete`` / ``hold`` its one-row callers, so a
# batch of distinct tids (what a refresh offers) must leave exactly what
# its rows, applied one call at a time, leave.
tids = st.integers(1, 12)
images = st.builds(
    lambda tid, x, y: row(tid, x=x, y=y), tids, st.integers(0, 2), st.integers(0, 1)
)
actions = st.lists(
    st.one_of(
        st.tuples(
            st.just("batch"),
            st.lists(images, max_size=8, unique_by=lambda image: image[TID]),
            st.lists(tids, max_size=4),
        ),
        # A write-back's committed image: a copy of the held one.
        st.tuples(
            st.just("hold"), tids, st.sampled_from(["x", "y"]), st.integers(0, 2)
        ),
        # The held images offered again, as the echo of a write-back is.
        st.tuples(st.just("echo"), st.lists(tids, max_size=4, unique=True)),
    ),
    max_size=25,
)
mirrors = st.sampled_from(
    [
        {},
        {"fraction": 0.5},
        {"predicate": lambda r: r["x"] > 0},
        {"fraction": 0.7, "predicate": lambda r: r["y"] == 0},
    ]
)


def state(rm):
    return (
        rm.rows,
        rm.applied_inserts,
        rm.applied_updates,
        rm.applied_deletes,
        rm.skipped_self_updates,
    )


@given(actions, mirrors)
@settings(max_examples=500, deadline=None)
def test_batch_apply_equals_per_row_apply(script, kind):
    batched, per_row = MemoryTable("t", **kind), MemoryTable("t", **kind)
    for action in script:
        if action[0] == "batch":
            _kind, upserts, deletes = action
            batched.apply_batch(upserts, deletes)
            for image in upserts:
                per_row.apply_upsert(image)
            for tid in deletes:
                per_row.apply_delete(tid)
        elif action[0] == "hold":
            _kind, tid, column, value = action
            if batched.get(tid) is not None:
                image = {**batched.get(tid), column: value}
                batched.hold(image)
                per_row.hold(image)
        else:
            held = [batched.get(tid) for tid in action[1] if batched.get(tid)]
            batched.apply_batch(held, [])
            for image in held:
                per_row.apply_upsert(image)
        assert state(batched) == state(per_row)
        assert all(per_row.rows[tid] is image for tid, image in batched.rows.items())


# ----------------------------------------------------------------------
# Rows are values: a mirror holds the table's own images, a writer copies
# on write, and a rollback puts back the change set's before image.
@pytest.fixture(params=["inprocess", "sockets"])
def shared(request):
    db = Database()
    db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER, w INTEGER)")
    db.execute("INSERT INTO t (k, v, w) VALUES (1, 10, 0), (2, 20, 0), (3, 30, 0)")
    center = NotificationCenter(db)
    server = SyncServer(db, center, use_sockets=request.param == "sockets")
    client = SyncClient(server)
    yield db, client, client.mirror("t")
    client.close()
    server.close()
    center.close()


def refresh(client, table):
    if client.server.use_sockets:
        assert client.wait_dirty(table, timeout=5.0)
    client.refresh(table)


class TestSharedImages:
    def test_a_refresh_holds_the_tables_own_images(self, shared):
        db, client, mirror = shared
        table = db.table("t")
        assert all(mirror.get(tid) is table.get(tid) for tid in table.tids())
        db.execute("UPDATE t SET v = 99 WHERE k = 2")
        db.insert_many("t", [{"k": 4, "v": 40, "w": 0}, {"k": 5, "v": 50, "w": 0}])
        refresh(client, "t")
        assert mirror.tids() == table.tids()
        assert all(mirror.get(tid) is table.get(tid) for tid in table.tids())

    def test_write_back_changes_no_shared_image(self, shared):
        db, client, mirror = shared
        table = db.table("t")
        tid = table.tids()[0]
        image = mirror.get(tid)
        kept = dict(image)
        client.write_back("t", tid, "v", 11)
        # The table's old image is what a reader still holds: unchanged.
        assert image == kept
        assert mirror.get(tid)["v"] == table.get(tid)["v"] == 11
        refresh(client, "t")
        # The echo only confirms the local edit (TestEchoSuppression).
        assert (mirror.skipped_self_updates, mirror.applied_updates) == (1, 0)
        assert mirror.get(tid) is table.get(tid)
        assert image == kept

    @pytest.mark.parametrize(
        "sql, before_image",
        [
            ("DELETE FROM t WHERE k = 2", lambda change: change.deleted[0]),
            ("UPDATE t SET v = 21 WHERE k = 2", lambda change: change.updated[0][0]),
        ],
        ids=["delete", "update"],
    )
    def test_a_rollback_puts_back_the_before_image(self, shared, sql, before_image):
        db, client, mirror = shared
        table = db.table("t")
        held = table.by_key(2)
        with pytest.raises(RuntimeError):
            with db.transaction():
                before = before_image(db.execute(sql).change)
                raise RuntimeError("roll back")
        assert before is held
        assert table.by_key(2) is before
        assert table.get(before[TID]) is before
        assert before["v"] == 20
        client.refresh("t")
        assert mirror.get(before[TID]) is before
