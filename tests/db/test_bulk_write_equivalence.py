"""The set-at-a-time write path against the row-at-a-time one.

``Table.insert_many`` / ``Table.delete_many`` validate, stamp, index and
log a statement's rows as one batch.  The oracle here is the loop they
replaced: twin databases run the same statements, one through
``insert_many`` / ``delete`` / ``delete_by_tids``, the other through a loop
of ``insert`` / ``delete_by_tids([tid])``, and must agree on every row
dict (key order and hidden fields included), every index, the column
store, the trigger change sets once concatenated, and -- for durable
twins -- on what ``recover()`` rebuilds.  A statement that fails must fail
with the error the loop's first offending row raises and leave no trace.
"""

import contextlib
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import BOOLEAN, FLOAT, INTEGER, TEXT, Column, Database, col
from repro.db import open_durable, recover
from repro.db.index import HashIndex, SortedIndex
from repro.db.wal import FSYNC_NEVER
from repro.errors import ConstraintViolation, ReproError, TypeMismatchError


# ----------------------------------------------------------------------
# Generated schemas, rows and statements
schemas = st.fixed_dictionaries(
    {
        "pk": st.booleans(),
        "unique_ab": st.booleans(),
        "sorted_s": st.booleans(),
        "column_store": st.booleans(),
        "durable": st.booleans(),
    }
)

# Pools small enough that keys collide -- with the table and inside a batch
# -- in a good share of the statements; "3" / 2.0 / 1 are coercible spellings.
good_rows = st.fixed_dictionaries(
    {"id": st.one_of(st.integers(0, 60), st.sampled_from(["3", "11", 2.0, 47.0]))},
    optional={
        "a": st.sampled_from([None, 0, 1, 2, "1"]),
        "b": st.sampled_from([None, "p", "q", "r"]),
        "s": st.sampled_from([None, 0.5, 2, 2.5, -1.0, "4.5"]),
        "d": st.sampled_from([None, 1, 2]),
        "flag": st.sampled_from([True, False, 1]),
    },
)
bad_rows = st.sampled_from(
    [
        {"id": "x"},  # type error
        {"id": True},
        {"id": None},  # NOT NULL
        {"id": 5, "s": "nope"},
        {"id": 5, "flag": None},
        {"id": 5, "bogus": 0},  # unknown column
    ]
)


@st.composite
def inserts(draw):
    rows = draw(st.lists(good_rows, max_size=10))
    if draw(st.integers(0, 5)) == 0:
        rows.insert(draw(st.integers(0, len(rows))), draw(bad_rows))
    return ("insert", rows)


deletes_where = st.tuples(st.just("delete"), st.sampled_from([None, 0, 1, 2]))
deletes_tids = st.tuples(st.just("delete_tids"), st.lists(st.integers(1, 30), max_size=6))
statements = st.lists(
    st.tuples(
        st.one_of(inserts(), inserts(), deletes_where, deletes_tids),
        st.sampled_from(["auto", "commit", "rollback"]),
    ),
    max_size=7,
)


class _Rollback(Exception):
    pass


def create(db, shape):
    table = db.create_table(
        "t",
        [
            Column("id", INTEGER, nullable=False),
            Column("a", INTEGER),
            Column("b", TEXT),
            Column("s", FLOAT),
            Column("d", INTEGER, default=7),
            Column("flag", BOOLEAN, nullable=False, default=False),
        ],
        primary_key="id" if shape["pk"] else None,
        unique=[("a", "b")] if shape["unique_ab"] else (),
    )
    if shape["sorted_s"]:
        table.create_index("ix_s", ("s",), sorted=True)
    if shape["column_store"]:
        table.column_store()
    changes = []
    db.on("t", ("insert", "delete"), changes.append)
    return changes


def run(db, statement, mode, batch):
    """Run one statement; returns the error it raised, if any."""
    (kind, arg) = statement

    def body():
        if kind == "insert":
            if batch:
                db.insert_many("t", arg)
            else:
                for values in arg:
                    db.insert("t", values)
        elif kind == "delete":
            where = None if arg is None else (col("a") == arg)
            if batch:
                db.delete("t", where)
            else:
                for tid in [r["__tid__"] for r in db.table("t").rows()
                            if arg is None or r["a"] == arg]:
                    db.delete_by_tids("t", [tid])
        else:
            if batch:
                db.delete_by_tids("t", arg)
            else:
                for tid in arg:
                    db.delete_by_tids("t", [tid])

    try:
        if mode == "auto":
            body()
        else:
            with db.transaction():
                body()
                if mode == "rollback":
                    raise _Rollback()
    except _Rollback:
        return None
    except ReproError as exc:
        return exc
    return None


def state(db):
    table = db.table("t")
    indexes = {}
    for name, index in list(table._indexes.items()) + [("created", table._created_index)]:
        if isinstance(index, HashIndex):
            indexes[name] = dict(index._buckets)
        else:
            assert isinstance(index, SortedIndex)
            indexes[name] = list(index._entries)
    store = None
    if table.has_column_store():
        cs = table.column_store()
        store = (
            [({k: list(v) for k, v in cols.items()}, n) for cols, n in cs.batches()],
            cs.dead_rows,
            dict(cs.types),
        )
    return {
        "rows": [list(row.items()) for row in table.rows()],
        "next_tid": table._next_tid,
        "clock": db.now(),
        "indexes": indexes,
        "store": store,
    }


def flatten(changes):
    return (
        [list(r.items()) for c in changes for r in c.inserted],
        [list(r.items()) for c in changes for r in c.deleted],
    )


def open_twin(shape, directory):
    if shape["durable"]:
        return open_durable(directory, fsync=FSYNC_NEVER)
    return Database(), None


@given(schemas, statements)
@settings(max_examples=200, deadline=None)
def test_batch_equals_row_at_a_time(shape, script):
    with tempfile.TemporaryDirectory() as tmp:
        batch_db, batch_mgr = open_twin(shape, Path(tmp) / "batch")
        loop_db, loop_mgr = open_twin(shape, Path(tmp) / "loop")
        batch_changes = create(batch_db, shape)
        loop_changes = create(loop_db, shape)
        history = []
        for statement, mode in script:
            before = state(batch_db)
            error = run(batch_db, statement, mode, batch=True)
            if error is None:
                assert run(loop_db, statement, mode, batch=False) is None
                history.append((statement, mode))
            else:
                # No trace in the batch twin ...
                assert state(batch_db) == before
                # ... and the error of the loop's first offending row,
                # taken on a replay so the loop twin stays in step.
                replay = Database()
                create(replay, dict(shape, durable=False))
                for done, done_mode in history:
                    run(replay, done, done_mode, batch=False)
                expected = run(replay, statement, "commit", batch=False)
                assert type(error) is type(expected)
                assert str(error) == str(expected)
            assert state(batch_db) == state(loop_db)
            assert flatten(batch_changes) == flatten(loop_changes)
        if shape["durable"]:
            batch_mgr.close()
            loop_mgr.close()
            # One bulk record per statement or one record per row: the
            # log replays to the same tables (and the same clock) either way.
            live = [list(r.items()) for r in batch_db.table("t").rows()]
            recovered = [recover(Path(tmp) / name) for name in ("batch", "loop")]
            for database in recovered:
                assert [list(r.items()) for r in database.table("t").rows()] == live
            assert recovered[0].now() == recovered[1].now()


# ----------------------------------------------------------------------
# The machine-independent form of the speed-up: per statement, not per row
def test_insert_many_takes_clock_and_each_index_once():
    db = Database()
    table = db.create_table(
        "t",
        [Column("id", INTEGER, nullable=False), Column("a", INTEGER), Column("s", FLOAT)],
        primary_key="id",
        unique=[("a",)],
    )
    table.create_index("ix_s", ("s",), sorted=True)
    store = table.column_store()
    indexes = list(table._indexes.values()) + [table._created_index]
    table._clock = mock.Mock(wraps=table._clock)
    table._store = mock.Mock(wraps=store)
    with contextlib.ExitStack() as stack:
        spies = [
            (
                stack.enter_context(mock.patch.object(index, "add_many", wraps=index.add_many)),
                stack.enter_context(mock.patch.object(index, "add", wraps=index.add)),
            )
            for index in indexes
        ]
        n = 500
        before = db.now()
        db.insert_many("t", [{"id": i, "a": i, "s": i / 2} for i in range(n)])

    table._clock.assert_called_once_with(n)
    assert db.now() == before + n
    for add_many, add in spies:
        assert (add_many.call_count, add.call_count) == (1, 0)
    assert table._store.bulk_append.call_count == 1
    assert table._store.append.call_count == 0
    assert len(table) == n and len(store) == n


def test_delete_many_removes_a_log_prefix_as_one_slice():
    db = Database()
    table = db.create_table("log", [Column("seq_no", INTEGER, nullable=False)])
    table.create_index("ix_seq", ("seq_no",), sorted=True)
    db.insert_many("log", [{"seq_no": i} for i in range(1000)])
    indexes = (table.index("ix_seq"), table._created_index)
    with contextlib.ExitStack() as stack:
        spies = [
            stack.enter_context(mock.patch.object(index, "remove", wraps=index.remove))
            for index in indexes
        ]
        assert db.delete("log", col("seq_no") < 600) == 600
    assert [spy.call_count for spy in spies] == [0, 0]
    assert [key for key, _tid in table.index("ix_seq").slice()] == list(range(600, 1000))
    assert len(table._created_index) == 400


# ----------------------------------------------------------------------
# A failed multi-row statement leaves no trace
def _trace(db):
    table = db.table("t")
    return (
        [dict(row) for row in table.rows()],
        {name: len(index) for name, index in table._indexes.items()},
        len(table._created_index),
        table.column_store().dead_rows,
        len(table.column_store()),
        table._next_tid,
        db.now(),
    )


@pytest.mark.parametrize("in_transaction", [False, True])
@pytest.mark.parametrize(
    "rows, error",
    [
        ([{"id": 1}, {"id": 2}, {"id": 1}], ConstraintViolation),  # inside the batch
        ([{"id": 1}, {"id": 10}], ConstraintViolation),  # against the table
        ([{"id": 1}, {"id": 2}, {"id": "x"}], TypeMismatchError),
    ],
)
def test_failed_statement_leaves_no_trace(rows, error, in_transaction):
    db = Database()
    table = db.create_table(
        "t", [Column("id", INTEGER, nullable=False)], primary_key="id"
    )
    table.column_store()
    db.insert("t", {"id": 10})
    fired = []
    db.on("t", ("insert",), fired.append)
    before = _trace(db)
    if in_transaction:
        with db.transaction():
            db.insert("t", {"id": 11})
            with pytest.raises(error):
                db.insert_many("t", rows)
            inside = _trace(db)
        # The failing statement cost the transaction nothing either.
        assert inside[5] == before[5] + 1 and inside[6] == before[6] + 1
        assert [r["id"] for r in db.table("t").rows()] == [10, 11]
        assert len(fired) == 1
    else:
        with pytest.raises(error):
            db.insert_many("t", rows)
        assert _trace(db) == before
        assert fired == []


def test_first_offending_row_decides_the_error():
    db = Database()
    db.create_table(
        "t",
        [Column("id", INTEGER, nullable=False), Column("u", INTEGER)],
        primary_key="id",
        unique=[("u",)],
    )
    # Row 2 repeats row 0's ``u``; row 3 repeats row 1's ``id``; row 4 is a
    # type error.  Statement order picks row 2.
    rows = [
        {"id": 1, "u": 1},
        {"id": 2, "u": 2},
        {"id": 3, "u": 1},
        {"id": 2, "u": 9},
        {"id": "x", "u": 5},
    ]
    with pytest.raises(ConstraintViolation, match=r"t\(u\) violated by key 1"):
        db.insert_many("t", rows)
    with pytest.raises(ConstraintViolation, match=r"t\(id\) violated by key 2"):
        db.insert_many("t", rows[:2] + rows[3:])
    with pytest.raises(TypeMismatchError, match="t.id"):
        db.insert_many("t", rows[:2] + rows[4:])
    assert len(db.table("t")) == 0 and db.now() == 0
