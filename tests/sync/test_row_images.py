"""Rows are values: no row image anyone was handed is ever mutated.

A table, its change sets and its mirrors share one dict per row image;
writers copy on write (``Table.update_*``; a write-back's mirror holds the
image its committed UPDATE returned) and a rollback puts the change set's
before image back.  A random mix of statements -- SQL and table API,
one-row and set-at-a-time, committed and rolled back -- refreshes of a
full and a partial mirror, and write-backs must leave every image handed
out earlier (by ``Table.get``, ``MemoryTable.get`` / ``all_rows``, a
``Result.change`` or a commit hook) exactly as it was, and each mirror
holding the table's images at quiescence.
"""

import copy
import sys
import threading
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database
from repro.errors import DatabaseError
from repro.sync import NotificationCenter, SyncClient, SyncServer


def even(row):
    return row["v"] % 2 == 0


keys = st.integers(0, 12)
values = st.integers(0, 9)
#: Existing rows are picked by position (modulo the table's size).
picks = st.integers(0, 30)
rows = st.lists(st.tuples(keys, values), min_size=1, max_size=4)
statements = st.one_of(
    st.tuples(st.just("sql_insert"), rows),
    st.tuples(st.just("sql_update"), keys, keys, values),
    st.tuples(st.just("sql_delete"), keys, keys),
    st.tuples(st.just("insert"), rows),
    st.tuples(
        st.just("update"), st.lists(st.tuples(picks, values), min_size=1, max_size=4)
    ),
    st.tuples(st.just("delete"), st.lists(picks, min_size=1, max_size=4)),
)
steps = st.lists(
    st.one_of(
        statements,
        st.tuples(
            st.just("transaction"),
            st.lists(statements, min_size=1, max_size=4),
            st.booleans(),  # commit, or roll back
        ),
        st.tuples(st.just("refresh"), st.sampled_from(["full", "partial"])),
        st.tuples(st.just("write_back"), picks, values),
    ),
    max_size=20,
)


class Rollback(Exception):
    pass


class Deployment:
    """One table, a full mirror and a partial (even ``v``) mirror, each on
    its own client of one in-process server -- and every image handed out."""

    def __init__(self):
        self.db = Database()
        self.db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER)")
        self.table = self.db.table("t")
        self.center = NotificationCenter(self.db)
        self.server = SyncServer(self.db, self.center, use_sockets=False)
        self.clients = {
            "full": SyncClient(self.server),
            "partial": SyncClient(self.server),
        }
        self.mirrors = {
            "full": self.clients["full"].mirror("t"),
            "partial": self.clients["partial"].mirror("t", predicate=even),
        }
        #: id -> image; holding the image keeps its id unique.
        self.handed = {}
        self.db.add_commit_hook(self.hand_out_changes)

    def close(self):
        for client in self.clients.values():
            client.close()
        self.server.close()
        self.center.close()

    # ------------------------------------------------------------------
    def hand_out(self, images):
        for image in images:
            if image is not None:
                self.handed[id(image)] = image

    def hand_out_changes(self, changes):
        for change in changes:
            self.hand_out(change.inserted)
            self.hand_out(change.deleted)
            for pair in change.updated:
                self.hand_out(pair)

    def hand_out_reads(self):
        self.hand_out(map(self.table.get, self.table.tids()))
        for mirror in self.mirrors.values():
            self.hand_out(mirror.all_rows())
            self.hand_out(map(mirror.get, mirror.tids()))

    def pick(self, tids, index):
        return tids[index % len(tids)]

    # ------------------------------------------------------------------
    def statement(self, step):
        db, kind, tids = self.db, step[0], self.table.tids()
        if kind == "sql_insert":
            tuples = ", ".join(f"({k}, {v})" for k, v in step[1])
            result = db.execute(f"INSERT INTO t (k, v) VALUES {tuples}")
        elif kind == "sql_update":
            _kind, lo, hi, v = step
            result = db.execute(f"UPDATE t SET v = v + {v} WHERE k >= {lo} AND k <= {hi}")
        elif kind == "sql_delete":
            result = db.execute(f"DELETE FROM t WHERE k >= {step[1]} AND k <= {step[2]}")
        elif kind == "insert":
            batch = [{"k": k, "v": v} for k, v in step[1]]
            if len(batch) == 1:
                self.hand_out([db.insert("t", batch[0])])
            else:
                self.hand_out(db.insert_many("t", batch))
            return
        elif not tids:
            return
        elif kind == "update":
            changes = {self.pick(tids, i): {"v": v} for i, v in step[1]}
            if len(changes) == 1:
                ((tid, change),) = changes.items()
                self.hand_out([db.update_by_tid("t", tid, change)])
            else:
                db.update_by_tids("t", changes)
            return
        else:
            db.delete_by_tids("t", [self.pick(tids, i) for i in step[1]])
            return
        self.hand_out_changes([result.change])

    def step(self, step):
        kind = step[0]
        if kind == "transaction":
            _kind, body, commit = step
            try:
                with self.db.transaction():
                    for statement in body:
                        self.statement(statement)
                    if not commit:
                        raise Rollback()
            except Rollback:
                pass
        elif kind == "refresh":
            self.clients[step[1]].refresh("t")
        elif kind == "write_back":
            tids = self.mirrors["full"].tids()
            if tids:
                tid = self.pick(tids, step[1])
                self.clients["full"].write_back("t", tid, "v", step[2])
        else:
            self.statement(step)


@given(steps)
@settings(max_examples=200, deadline=None)
def test_no_image_is_ever_mutated(script):
    deployment = Deployment()
    try:
        for step in script:
            deployment.hand_out_reads()
            kept = {key: copy.deepcopy(image) for key, image in deployment.handed.items()}
            try:
                deployment.step(step)
            except DatabaseError:
                pass  # a failing statement (or write-back of a gone row)
            changed = [
                (kept[key], image)
                for key, image in deployment.handed.items()
                if key in kept and image != kept[key]
            ]
            assert not changed, f"{step!r} mutated {changed}"
        # Quiescence: each mirror holds exactly the table's images.
        for client in deployment.clients.values():
            client.refresh("t")
        table = deployment.table
        for name, mirror in deployment.mirrors.items():
            expected = [
                tid for tid in table.tids() if name == "full" or even(table.get(tid))
            ]
            assert mirror.tids() == expected
            assert all(mirror.get(tid) is table.get(tid) for tid in expected)
    finally:
        deployment.close()


def test_images_hold_still_under_concurrent_writers():
    """More threads than cores, a short switch interval: two writers
    replace rows (``v`` and ``w`` always together) while two clients
    refresh and read.  Every image a reader took keeps the values it had
    when taken, and the mirrors end holding the table's images."""
    db = Database()
    db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER, w INTEGER)")
    db.insert_many("t", [{"k": k, "v": 0, "w": 0} for k in range(40)])
    center = NotificationCenter(db)
    server = SyncServer(db, center, use_sockets=False)
    clients = [SyncClient(server) for _ in range(2)]
    mirrors = [client.mirror("t") for client in clients]
    tids = db.table("t").tids()
    taken, errors = [], []
    writing = threading.Event()
    writing.set()

    def write(offset):
        try:
            deadline, n = time.monotonic() + 0.5, offset
            while time.monotonic() < deadline:
                n += 2
                part = tids[n % 3 :: 3]
                db.update_by_tids("t", {tid: {"v": n, "w": n} for tid in part})
        except Exception as exc:  # asserted empty below
            errors.append(exc)

    def read(client, mirror):
        try:
            while writing.is_set():
                client.refresh("t")
                for image in mirror.all_rows():
                    assert image["v"] == image["w"]
                    taken.append((image, image["v"]))
        except Exception as exc:  # asserted empty below
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        writers = [threading.Thread(target=write, args=(i,)) for i in range(2)]
        readers = [
            threading.Thread(target=read, args=pair) for pair in zip(clients, mirrors)
        ]
        for thread in writers + readers:
            thread.start()
        for thread in writers:
            thread.join(timeout=10)
        writing.clear()
        for thread in readers:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(previous)
    try:
        assert not any(thread.is_alive() for thread in writers + readers)
        assert not errors
        assert taken
        assert all(image["v"] == image["w"] == v for image, v in taken)
        table = db.table("t")
        for client, mirror in zip(clients, mirrors):
            client.refresh("t")
            assert all(mirror.get(tid) is table.get(tid) for tid in tids)
    finally:
        for client in clients:
            client.close()
        server.close()
        center.close()
