"""One fold per refresh: a mirror folds each changed row once, and ends
where a per-event replay would.

``SyncClient.refresh`` reads the events and the row images under one
database lock, so every image is of one committed state: replaying the
events one at a time in seq order, as the reference below does, can only
land on that state.  Random ``insert_many`` / ``update`` / ``delete``
statements, committed and rolled-back transactions and write-backs run
between refreshes of a full and two partial mirrors; after each refresh
the mirror must hold, row for row, the very images the reference holds,
and those must be the table's own.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database, col
from repro.errors import DatabaseError
from repro.sync import NotificationCenter, SyncClient, SyncServer


class Rollback(Exception):
    pass


MIRRORS = {
    "full": {},
    "even": {"predicate": lambda row: row["v"] % 2 == 0},
    "half": {"fraction": 0.5},
}


class ReplayReference:
    """A mirror folded one event at a time, in seq order: what a refresh
    did before it folded each changed row once."""

    def __init__(self, center, table, fraction=1.0, predicate=None):
        self.center, self.table = center, table
        self.fraction, self.predicate = fraction, predicate
        self.rows = {}
        self.last_seq_no = 0

    def accepts(self, row, tid):
        if self.predicate is not None and not self.predicate(row):
            return False
        return self.fraction == 1.0 or (tid * 2654435761 % 1000) < self.fraction * 1000

    def refresh(self, db):
        base = db.table(self.table)
        with db.lock:
            events = self.center.events_since(self.table, self.last_seq_no)
            pulled = [(op, [(tid, base.get(tid)) for tid in tids]) for _s, op, tids in events]
            if events:
                self.last_seq_no = events[-1][0]
        for op, images in pulled:
            for tid, image in images:
                if op == "delete" or image is None or not self.accepts(image, tid):
                    self.rows.pop(tid, None)
                else:
                    self.rows[tid] = image


keys = st.integers(0, 15)
values = st.integers(0, 9)
statements = st.one_of(
    st.tuples(st.just("insert_many"), st.lists(st.tuples(keys, values), max_size=4)),
    st.tuples(st.just("update"), keys, keys, values),
    st.tuples(st.just("delete"), keys, keys),
)
steps = st.lists(
    st.one_of(
        statements,
        st.tuples(
            st.just("transaction"),
            st.lists(statements, min_size=1, max_size=4),
            st.booleans(),  # commit, or roll back
        ),
        st.tuples(st.just("write_back"), st.integers(0, 30), values),
        st.tuples(st.just("refresh"), st.sampled_from(sorted(MIRRORS))),
    ),
    max_size=25,
)


def run(db, statement):
    kind = statement[0]
    if kind == "insert_many":
        taken = {row["k"] for row in db.table("t").scan()}
        fresh = {k: v for k, v in statement[1] if k not in taken}
        if fresh:
            db.insert_many("t", [{"k": k, "v": v} for k, v in fresh.items()])
    elif kind == "update":
        _kind, lo, hi, v = statement
        db.update("t", {"v": v}, (col("k") >= lo) & (col("k") <= hi))
    else:
        _kind, lo, hi = statement
        db.delete("t", (col("k") >= lo) & (col("k") <= hi))


@given(steps)
@settings(max_examples=150, deadline=None)
def test_one_fold_per_refresh_lands_where_a_per_event_replay_does(script):
    db = Database()
    db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER)")
    db.insert_many("t", [{"k": k, "v": k % 3} for k in range(6)])
    center = NotificationCenter(db)
    server = SyncServer(db, center, use_sockets=False)
    clients = {name: SyncClient(server) for name in MIRRORS}
    try:
        mirrors = {name: clients[name].mirror("t", **MIRRORS[name]) for name in MIRRORS}
        references = {name: ReplayReference(center, "t", **MIRRORS[name]) for name in MIRRORS}
        table = db.table("t")
        for reference in references.values():
            # The prefill: the table as it is, from the log's horizon on.
            reference.rows = {
                tid: table.get(tid)
                for tid in table.tids()
                if reference.accepts(table.get(tid), tid)
            }
            reference.last_seq_no = mirrors["full"].last_seq_no
        for step in script:
            kind = step[0]
            if kind == "transaction":
                try:
                    with db.transaction():
                        for statement in step[1]:
                            run(db, statement)
                        if not step[2]:
                            raise Rollback()
                except Rollback:
                    pass
            elif kind == "write_back":
                held = mirrors["full"].tids()
                if held:
                    try:
                        clients["full"].write_back("t", held[step[1] % len(held)], "v", step[2])
                    except DatabaseError:
                        pass  # the row is gone from the table
            elif kind == "refresh":
                name = step[1]
                clients[name].refresh("t")
                references[name].refresh(db)
                mirror, reference = mirrors[name], references[name]
                assert mirror.tids() == sorted(reference.rows)
                assert all(mirror.get(tid) is image for tid, image in reference.rows.items())
                assert all(mirror.get(tid) is table.get(tid) for tid in mirror.tids())
            else:
                run(db, step)
    finally:
        for client in clients.values():
            client.close()
        server.close()
        center.close()


def test_a_full_refresh_drops_the_rows_the_table_deleted():
    db = Database()
    db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER)")
    db.insert_many("t", [{"k": k, "v": 0} for k in range(3)])
    center = NotificationCenter(db)
    server = SyncServer(db, center, use_sockets=False)
    client = SyncClient(server)
    mirror = client.mirror("t")
    db.execute("DELETE FROM t WHERE k = 1")
    db.execute("UPDATE t SET v = 1 WHERE k = 2")
    assert client.refresh("t", full=True) == {"upserts": 2, "deletes": 1}
    table = db.table("t")
    assert mirror.tids() == table.tids()
    assert all(mirror.get(tid) is table.get(tid) for tid in table.tids())
    client.close()
    server.close()
    center.close()
