"""The set-at-a-time write path against the row-at-a-time one.

``Table.insert_many`` / ``Table.update_many`` / ``Table.delete_many``
validate, stamp, index and log a statement's rows as one batch.  The
oracle here is the loop they replaced: twin databases run the same
statements, one through ``insert_many`` / ``update`` / ``update_by_tids`` /
SQL ``UPDATE`` / ``delete`` / ``delete_by_tids``, the other through a loop
of ``insert`` / ``update_by_tid`` / ``delete_by_tids([tid])``, and must
agree on every row dict (key order and hidden fields included), every
index, the column store, the trigger change sets once concatenated, and
-- for durable twins -- on what ``recover()`` rebuilds.  A statement that
fails must fail with the error the loop's first offending row raises and
leave no trace.  Most INSERTs carry full rows in schema order -- the
*exact* statements ``TableSchema.validate_rows`` checks a column at a time
and copies -- and some of them have one row permuted, carrying a hidden
field or holding a value ``validate_row`` would coerce or refuse, each of
which must send the statement back to the row-by-row path.
"""

import contextlib
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import ANY, BOOLEAN, FLOAT, INTEGER, TEXT, TIMESTAMP, Column, Database, col
from repro.db import open_durable, recover
from repro.db.index import HashIndex, SortedIndex
from repro.db.schema import HIDDEN_FIELDS, TID
from repro.db.wal import FSYNC_NEVER
from repro.errors import (
    ConstraintViolation,
    DatabaseError,
    ReproError,
    SchemaError,
    TypeMismatchError,
)
from tests.db.test_index import tids_by_key


# ----------------------------------------------------------------------
# Generated schemas, rows and statements
schemas = st.fixed_dictionaries(
    {
        "pk": st.booleans(),
        "unique_ab": st.booleans(),
        "sorted_s": st.booleans(),
        "column_store": st.booleans(),
        "durable": st.booleans(),
        # A TIMESTAMP column (range-checked, no exact type) takes every
        # statement of the table off the column-at-a-time path.
        "ts": st.sampled_from([False, False, False, True]),
    }
)

# Pools small enough that keys collide -- with the table and inside a batch
# -- in a good share of the statements; "3" / 2.0 / 1 are coercible spellings.
ids = st.one_of(st.integers(0, 60), st.sampled_from(["3", "11", 2.0, 47.0]))
others = {
    "a": st.sampled_from([None, 0, 1, 2, "1"]),
    "b": st.sampled_from([None, "p", "q", "r"]),
    "s": st.sampled_from([None, 0.5, 2, 2.5, -1.0, "4.5"]),
    "d": st.sampled_from([None, 1, 2]),
    "flag": st.sampled_from([True, False, 1]),
    "any": st.sampled_from([None, 0, "p", 2.5, True]),
}
good_rows = st.fixed_dictionaries({"id": ids}, optional=others)
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


def column_names(ts):
    return ("id", "a", "b", "s", "d", "flag", *(("ts",) if ts else ()), "any")


# Full rows: every column, in schema order, each value of its column's
# exact type (or NULL where allowed) -- what ``validate_rows`` stores
# without a call.  Wider key pools than above, so that most of these
# statements commit and a row stored wrongly shows.  ``-5`` is an int
# that TIMESTAMP's range check refuses.
exact_values = {
    "id": st.integers(0, 400),
    "a": st.one_of(st.none(), st.integers(0, 99)),
    "b": st.sampled_from([None, "p", "q", "r"]),
    "s": st.sampled_from([None, 0.5, 2.5, -1.0]),
    "d": st.sampled_from([None, 1, 2]),
    "flag": st.booleans(),
    "ts": st.sampled_from([None, 0, 3, -5]),
    "any": st.sampled_from([None, 0, "p", 2.5, True]),
}
# One value a full row may carry that ``validate_row`` would not store
# unchanged: a bool or a string in an INTEGER column, an int in a FLOAT one.
spoilers = st.sampled_from(
    [("id", True), ("a", True), ("d", True), ("d", "3"), ("id", "3"), ("s", 2)]
)


@st.composite
def full_inserts(draw, ts):
    """Two or more full rows; in 3 statements of 10 one row is permuted,
    carries a hidden field or holds a spoiler."""
    names = column_names(ts)
    full = st.tuples(*(exact_values[name] for name in names))
    rows = [dict(zip(names, values)) for values in draw(st.lists(full, min_size=2, max_size=10))]
    at = draw(st.integers(0, len(rows) - 1))
    variant = draw(st.sampled_from(["exact"] * 7 + ["permuted", "hidden", "spoiled"]))
    if variant == "permuted":
        order = draw(st.permutations(names))
        rows[at] = {name: rows[at][name] for name in order}
    elif variant == "hidden":
        rows[at][draw(st.sampled_from(HIDDEN_FIELDS))] = draw(st.integers(0, 99))
    elif variant == "spoiled":
        name, value = draw(spoilers)
        rows[at][name] = value
    return ("insert", rows)


wheres = st.sampled_from([None, 0, 1, 2])  # all rows, or ``a = n``
deletes_where = st.tuples(st.just("delete"), wheres)
deletes_tids = st.tuples(st.just("delete_tids"), st.lists(st.integers(1, 30), max_size=6))

# Change maps take their values from the row pools above, so an UPDATE
# collides -- with the table, with an earlier row of its own statement, as
# a swap -- spells values coercibly and names bad values and columns as
# often as an INSERT does.
good_changes = st.fixed_dictionaries({}, optional={"id": ids, **others})
bad_changes = st.builds(  # a good map with one bad cell
    lambda good, bad: {**good, **dict(list(bad.items())[-1:])}, good_changes, bad_rows
)
changes = st.integers(0, 7).flatmap(lambda n: good_changes if n else bad_changes)
updates_where = st.tuples(st.just("update"), st.tuples(wheres, changes))
# Per-tid maps; the tids come in drawn order and may be absent.
updates_tids = st.tuples(
    st.just("update_tids"), st.dictionaries(st.integers(1, 7), changes, max_size=6)
)
# ``SET id = id + 1`` over ascending ids hits the next row's key; over
# descending ids every row moves onto the key the row before it released.
updates_sql = st.tuples(
    st.just("update_sql"),
    st.tuples(st.sampled_from(["a", "id", "s"]), st.sampled_from([1, -1]), wheres),
)


def statements(ts=False):
    # Repeated alternatives weight the draw: most INSERTs have full rows.
    return st.lists(
        st.tuples(
            st.one_of(
                full_inserts(ts),
                full_inserts(ts),
                full_inserts(ts),
                full_inserts(ts),
                full_inserts(ts),
                inserts(),
                deletes_where,
                deletes_tids,
                updates_where,
                updates_tids,
                updates_sql,
            ),
            st.sampled_from(["auto", "commit", "rollback"]),
        ),
        max_size=7,
    )


# A schema and a script of statements for it.
programs = schemas.flatmap(lambda shape: st.tuples(st.just(shape), statements(shape["ts"])))


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
            *([Column("ts", TIMESTAMP)] if shape["ts"] else []),
            Column("any", ANY),
        ],
        primary_key="id" if shape["pk"] else None,
        unique=[("a", "b")] if shape["unique_ab"] else (),
    )
    if shape["sorted_s"]:
        table.create_index("ix_s", ("s",), sorted=True)
    if shape["column_store"]:
        table.column_store()
    changes = []
    db.on("t", ("insert", "update", "delete"), changes.append)
    return changes


def matching(db, a):
    """Tids of the rows with ``a = a`` (all rows for None), in tid order."""
    return [r["__tid__"] for r in db.table("t").rows() if a is None or r["a"] == a]


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
                for tid in matching(db, arg):
                    db.delete_by_tids("t", [tid])
        elif kind == "delete_tids":
            if batch:
                db.delete_by_tids("t", arg)
            else:
                for tid in arg:
                    db.delete_by_tids("t", [tid])
        elif kind == "update":
            a, changes = arg
            if batch:
                db.update("t", changes, None if a is None else (col("a") == a))
            else:
                for tid in matching(db, a):
                    db.update_by_tid("t", tid, changes)
        elif kind == "update_tids":
            if batch:
                db.update_by_tids("t", arg)
            else:
                for tid, changes in arg.items():
                    db.update_by_tid("t", tid, changes)
        else:
            column, step, a = arg
            if batch:
                where, params = ("", (step,)) if a is None else (" WHERE a = ?", (step, a))
                db.execute(f"UPDATE t SET {column} = {column} + ?{where}", params)
            else:
                table = db.table("t")
                for tid in matching(db, a):
                    value = table.get(tid)[column]
                    db.update_by_tid(
                        "t", tid, {column: None if value is None else value + step}
                    )

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
    for name, index in table._indexes.items():
        if isinstance(index, HashIndex):
            indexes[name] = tids_by_key(index)
        else:
            assert isinstance(index, SortedIndex)
            indexes[name] = index.slice()
    # The live rows' creation stamps (the stamp list keeps the dead
    # tids' too; their count is the next tid).
    indexes["created"] = [(table.created[tid - 1], tid) for tid in table.tids()]
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
        "next_tid": len(table.created) + 1,
        "clock": db.now(),
        "indexes": indexes,
        "store": store,
    }


def flatten(changes):
    return (
        [list(r.items()) for c in changes for r in c.inserted],
        [(list(b.items()), list(a.items())) for c in changes for b, a in c.updated],
        [list(r.items()) for c in changes for r in c.deleted],
    )


def open_twin(shape, directory):
    if shape["durable"]:
        return open_durable(directory, fsync=FSYNC_NEVER)
    return Database(), None


def preload(db, rows):
    """Rows for the script's updates and deletes to find: the same loop of
    ``insert`` on every twin, a colliding row skipped."""
    for values in rows:
        with contextlib.suppress(ConstraintViolation):
            db.insert("t", values)


@given(
    programs,
    st.lists(good_rows, min_size=5, max_size=12),
    st.integers(1, 4),
)
@settings(max_examples=200, deadline=None)
def test_batch_equals_row_at_a_time(program, stock, span):
    shape, script = program
    with tempfile.TemporaryDirectory() as tmp:
        batch_db, batch_mgr = open_twin(shape, Path(tmp) / "batch")
        loop_db, loop_mgr = open_twin(shape, Path(tmp) / "loop")
        # A third twin runs the batch statements inside transactions that
        # span up to ``span`` of them: the same rows, the same clock, the
        # same ``recover()``, whatever the commit boundaries.
        wrapped_db, wrapped_mgr = open_twin(shape, Path(tmp) / "wrapped")
        batch_changes = create(batch_db, shape)
        loop_changes = create(loop_db, shape)
        create(wrapped_db, shape)
        for database in (batch_db, loop_db, wrapped_db):
            preload(database, stock)
        history = []
        group, grouped = contextlib.ExitStack(), 0
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
                preload(replay, stock)
                for done, done_mode in history:
                    run(replay, done, done_mode, batch=False)
                expected = run(replay, statement, "commit", batch=False)
                assert type(error) is type(expected)
                assert str(error) == str(expected)
            assert state(batch_db) == state(loop_db)
            assert flatten(batch_changes) == flatten(loop_changes)
            if mode == "rollback":
                # Its own transaction, between two groups.
                group.close()
                grouped = 0
                run(wrapped_db, statement, mode, batch=True)
            else:
                if not grouped:
                    group.enter_context(wrapped_db.transaction())
                # A failing statement costs the open transaction nothing.
                wrapped_error = run(wrapped_db, statement, "auto", batch=True)
                assert type(wrapped_error) is type(error)
                grouped = (grouped + 1) % span
                if not grouped:
                    group.close()
            assert state(wrapped_db) == state(batch_db)
        group.close()
        if shape["durable"]:
            for manager in (batch_mgr, loop_mgr, wrapped_mgr):
                manager.close()
            # One bulk record per statement, one record per row or one
            # record per transaction: the log replays to the same tables
            # (and the same clock) either way.
            live = [list(r.items()) for r in batch_db.table("t").rows()]
            recovered = [recover(Path(tmp) / name) for name in ("batch", "loop", "wrapped")]
            for database in recovered:
                assert [list(r.items()) for r in database.table("t").rows()] == live
            assert recovered[0].now() == recovered[1].now() == recovered[2].now()


def test_updates_are_drawn_in_a_quarter_of_the_programs():
    drawn = []

    @given(statements())
    @settings(max_examples=200, derandomize=True, database=None)
    def draw(script):
        drawn.append(any(kind.startswith("update") for (kind, _arg), _mode in script))

    draw()
    assert sum(drawn) >= len(drawn) / 4


def test_most_insert_statements_take_the_column_at_a_time_path():
    """Most drawn INSERTs are exact, so the oracle above holds the
    column-at-a-time path to the loop; each way out of it is drawn too.
    An exact statement's rows are what ``validate_row`` makes of them,
    key order included."""
    schema = {}
    for ts in (False, True):
        db = Database()
        create(db, {"pk": False, "unique_ab": False, "sorted_s": False,
                    "column_store": False, "ts": ts})
        schema[ts] = db.table("t").schema
    exact = {False: [], True: []}

    @given(programs)
    @settings(max_examples=200, derandomize=True, database=None)
    def draw(program):
        shape, script = program
        for (kind, rows), _mode in script:
            if kind == "insert":
                stored = schema[shape["ts"]].validate_rows(rows)
                exact[shape["ts"]].append(stored is not None)
                if stored is not None:
                    assert [list(row.items()) for row in stored] == [
                        list(schema[False].validate_row(row).items()) for row in rows
                    ]

    draw()
    assert sum(exact[False]) > len(exact[False]) / 2
    assert exact[True] and not any(exact[True])


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
    indexes = list(table._indexes.values())
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
    # The creation stamps are the statement's clock range, extended once.
    assert table.created == list(range(before + 1, before + n + 1))
    for add_many, add in spies:
        assert (add_many.call_count, add.call_count) == (1, 0)
    assert table._store.bulk_append.call_count == 1
    assert table._store.append.call_count == 0
    assert len(table) == n and len(store) == n


def test_update_many_takes_no_clock_and_only_the_indexes_whose_key_moved():
    db = Database()
    table = db.create_table(
        "t",
        [
            Column("id", INTEGER, nullable=False),
            Column("a", INTEGER),
            Column("s", FLOAT),
            Column("v", INTEGER),
        ],
        primary_key="id",
        unique=[("a",)],
    )
    table.create_index("ix_s", ("s",), sorted=True)
    store = table.column_store()
    n = 500
    db.insert_many("t", [{"id": i, "a": i, "s": i / 2, "v": 0} for i in range(n)])
    pk, unique_a, sorted_s = (table.index(name) for name in ("pk_t", "uq_t_0", "ix_s"))
    table._clock = mock.Mock(wraps=table._clock)
    table._store = mock.Mock(wraps=store)
    with contextlib.ExitStack() as stack:
        spies = {
            index: [
                stack.enter_context(mock.patch.object(index, name, wraps=getattr(index, name)))
                for name in ("remove_many", "add_many", "remove", "add")
            ]
            for index in (pk, unique_a, sorted_s)
        }
        before = db.now()
        # Every row names its unchanged ``id`` and ``a``; ``s`` moves.
        changed = db.update_by_tids(
            "t",
            {
                row["__tid__"]: {"id": row["id"], "a": row["a"], "s": row["s"] + 0.25, "v": 1}
                for row in list(table.rows())
            },
        )

    def calls(index):
        return [spy.call_count for spy in spies[index]]

    assert changed == n
    # An UPDATE records no stamp, so it takes no clock tick.
    table._clock.assert_not_called()
    assert db.now() == before
    assert table.created == list(range(before - n + 1, before + 1))
    assert calls(sorted_s) == [1, 1, 0, 0]
    assert calls(pk) == calls(unique_a) == [0, 0, 0, 0]
    # The column store is written where the statement wrote.
    assert table._store.update.call_count == n
    chunk, _n = next(store.batches())
    assert chunk["s"] == [i / 2 + 0.25 for i in range(n)]


def test_delete_many_removes_a_log_prefix_as_one_slice():
    db = Database()
    table = db.create_table("log", [Column("seq_no", INTEGER, nullable=False)])
    table.create_index("ix_seq", ("seq_no",), sorted=True)
    db.insert_many("log", [{"seq_no": i} for i in range(1000)])
    indexes = (table.index("ix_seq"),)
    with contextlib.ExitStack() as stack:
        spies = [
            stack.enter_context(mock.patch.object(index, "remove", wraps=index.remove))
            for index in indexes
        ]
        assert db.delete("log", col("seq_no") < 600) == 600
    assert [spy.call_count for spy in spies] == [0]
    assert [key for key, _tid in table.index("ix_seq").slice()] == list(range(600, 1000))
    # A stamp outlives its row; the creation range skips the dead tids.
    assert len(table.created) == 1000
    assert [row["seq_no"] for row in table.created_between()] == list(range(600, 1000))


def test_a_purged_log_holds_only_its_live_tail():
    db = Database()
    table = db.create_table("log", [Column("seq_no", INTEGER, nullable=False)])
    db.insert_many("log", [{"seq_no": i} for i in range(1000)])
    db.delete("log", col("seq_no") < 600)
    assert len(table._rows) == 400 and table.tids() == list(range(601, 1001))
    assert table.get(600) is None and table.get(601)["seq_no"] == 600
    assert table.images(range(599, 603)) == [None, None, table.get(601), table.get(602)]
    db.delete("log", col("seq_no") >= 0)
    assert table._rows == [] and len(table) == 0
    assert db.insert("log", {"seq_no": 7})[TID] == 1001 and table.tids() == [1001]


def _unique_and_plain_indexes():
    db = Database()
    table = db.create_table(
        "t",
        [Column("id", INTEGER, nullable=False), Column("a", INTEGER), Column("b", INTEGER)],
        primary_key="id",
        unique=[("a", "b")],
    )
    table.create_index("ix_b", ("b",))
    return db, table


def test_a_statement_splits_its_rows_once_per_index():
    """The uniqueness check and the filing of a statement share each
    unique index's batch: one split per hash index, not one per use."""
    db, table = _unique_and_plain_indexes()
    with mock.patch.object(HashIndex, "batch", autospec=True, side_effect=HashIndex.batch) as split:
        db.insert_many("t", [{"id": i, "a": 1, "b": i} for i in range(4)])
        assert split.call_count == 3
        split.reset_mock()
        stamps = range(db.now() + 1, db.now() + 5)
        assert table.bulk_restore(
            [{"id": 10 + i, "a": 2, "b": i, TID: 10 + i} for i in range(4)], stamps
        )
        assert split.call_count == 3
        split.reset_mock()
        with pytest.raises(ConstraintViolation, match=r"\(1, 2\)"):
            db.insert_many("t", [{"id": 20, "a": 3, "b": 0}, {"id": 21, "a": 1, "b": 2}])
        assert split.call_count == 2  # the unique ones; nothing is filed
    assert len(table) == 8


def test_the_visual_attributes_write_splits_its_key_once():
    from repro.core import datamodel
    from repro.vis import VisualAttributesStore, VisualItem

    db = Database()
    store = VisualAttributesStore(db)
    with mock.patch.object(HashIndex, "batch", autospec=True, side_effect=HashIndex.batch) as split:
        store.write(1, [VisualItem(obj_id=i, x=i, y=i) for i in range(4)])
    assert split.call_count == 1
    assert len(db.table(datamodel.T_VISUAL_ATTRIBUTES)) == 4


def test_a_one_row_insert_checks_each_index_once():
    db, table = _unique_and_plain_indexes()
    with mock.patch.object(
        HashIndex, "check_insert", autospec=True, side_effect=HashIndex.check_insert
    ) as check:
        db.insert("t", {"id": 1, "a": 1, "b": 1})
        assert check.call_count == 3
        check.reset_mock()
        with pytest.raises(ConstraintViolation):
            db.insert("t", {"id": 2, "a": 1, "b": 1})
    assert len(table) == 1


def test_a_restore_that_collides_touches_nothing():
    """A rollback's restore is refused before the row list or any index
    holds the row: the collision is in the second unique index."""
    db, table = _unique_and_plain_indexes()
    db.insert("t", {"id": 1, "a": 1, "b": 1})

    def filed():
        return {name: tids_by_key(index) for name, index in table._indexes.items()}

    before = filed()
    with pytest.raises(ConstraintViolation):
        table.restore_row({"id": 2, "a": 1, "b": 1, TID: 5}, created=db.now() + 1)
    assert table.get(5) is None and table.tids() == [1] and len(table) == 1
    assert len(table.created) == 1
    assert filed() == before


# ----------------------------------------------------------------------
# A failed multi-row statement leaves no trace
def _trace(db):
    table = db.table("t")
    return (
        [dict(row) for row in table.rows()],
        {name: len(index) for name, index in table._indexes.items()},
        len(table.created),
        table.column_store().dead_rows,
        len(table.column_store()),
        len(table.created) + 1,  # the next tid
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


def test_first_offending_row_then_first_index_decide_the_update_error():
    db = Database()
    db.create_table(
        "t",
        [Column("id", INTEGER, nullable=False), Column("u", INTEGER)],
        primary_key="id",
        unique=[("u",)],
    )
    db.insert_many("t", [{"id": i, "u": i} for i in (1, 2, 3, 4)])
    # Tid 3 collides on both keys: the primary key is the earlier index.
    with pytest.raises(ConstraintViolation, match=r"t\(id\) violated by key 2"):
        db.update_by_tids("t", {1: {"u": 8}, 3: {"id": 2, "u": 2}, 4: {"id": "x"}})
    # Statement order beats index order; a later type error is not reached.
    with pytest.raises(ConstraintViolation, match=r"t\(u\) violated by key 1"):
        db.update_by_tids("t", {2: {"u": 1}, 3: {"id": 1}, 4: {"id": "x"}})
    with pytest.raises(TypeMismatchError, match="t.id"):
        db.update_by_tids("t", {4: {"id": "x"}, 2: {"u": 1}})
    assert db.now() == 4  # no failure took a tick
    # Keys move in statement order: each row onto the key the row before it
    # released -- but not onto one whose holder has yet to move.
    assert db.update_by_tids("t", {4: {"u": 5}, 3: {"u": 4}, 2: {"u": 3}}) == 3
    with pytest.raises(ConstraintViolation, match=r"t\(u\) violated by key 4"):
        db.update_by_tids("t", {2: {"u": 4}, 3: {"u": 5}})
    assert [r["u"] for r in db.table("t").rows()] == [1, 3, 4, 5]
def _unique_db(directory=None):
    """``t(id PK, u UNIQUE)`` holding (1,1), (2,2), (3,3): tids 1..3."""
    if directory is None:
        db, manager = Database(), None
    else:
        db, manager = open_durable(directory, fsync=FSYNC_NEVER)
    table = db.create_table(
        "t",
        [Column("id", INTEGER, nullable=False), Column("u", INTEGER)],
        primary_key="id",
        unique=[("u",)],
    )
    table.create_index("ix_u", ("u",), sorted=True)
    table.column_store()
    db.insert_many("t", [{"id": i, "u": i} for i in (1, 2, 3)])
    return db, manager


# Each changes at least one row before the row that fails.
FAILING_UPDATES = {
    "sql, earlier row of the statement": (
        lambda db: db.execute("UPDATE t SET u = 9 WHERE id >= 1"),
        ConstraintViolation,
    ),
    "shared map, earlier row of the statement": (
        lambda db: db.update("t", {"u": 9}),
        ConstraintViolation,
    ),
    "against the table": (
        lambda db: db.update_by_tids("t", {1: {"u": 8}, 2: {"u": 3}}),
        ConstraintViolation,
    ),
    "swap": (
        lambda db: db.update_by_tids("t", {3: {"u": 7}, 1: {"u": 2}, 2: {"u": 1}}),
        ConstraintViolation,
    ),
    "type": (
        lambda db: db.update_by_tids("t", {3: {"u": 7}, 1: {"u": "x"}}),
        TypeMismatchError,
    ),
    "not null": (
        lambda db: db.update_by_tids("t", {3: {"u": 7}, 1: {"id": None}}),
        ConstraintViolation,
    ),
    "unknown column": (
        lambda db: db.update_by_tids("t", {3: {"u": 7}, 1: {"bogus": 0}}),
        SchemaError,
    ),
    "absent tid": (
        lambda db: db.update_by_tids("t", {3: {"u": 7}, 99: {"u": 8}}),
        DatabaseError,
    ),
}


def _rows(db):
    return [list(row.items()) for row in db.table("t").rows()]


@pytest.mark.parametrize("case", FAILING_UPDATES)
def test_failed_update_leaves_no_trace(case, tmp_path):
    statement, error = FAILING_UPDATES[case]
    db, manager = _unique_db(tmp_path)
    fired, committed = [], []
    db.on("t", ("insert", "update", "delete"), fired.append)
    db.add_commit_hook(committed.append)
    held = {tid: db.table("t").get(tid) for tid in (1, 2, 3)}
    before = state(db)
    with pytest.raises(error):
        statement(db)
    assert state(db) == before  # rows, every index, column store, clock
    assert all(db.table("t").get(tid) is row for tid, row in held.items())
    assert fired == [] and committed == []
    manager.close()
    recovered = recover(tmp_path)
    assert _rows(recovered) == _rows(db)
    assert recovered.now() == db.now()


@pytest.mark.parametrize("case", FAILING_UPDATES)
def test_failed_update_in_a_transaction_rolls_back_to_nothing(case):
    statement, error = FAILING_UPDATES[case]
    db, _manager = _unique_db()
    fired = []
    db.on("t", ("insert", "update", "delete"), fired.append)
    before = state(db)
    with pytest.raises(_Rollback):
        with db.transaction():
            db.insert("t", {"id": 4, "u": 4})
            with pytest.raises(error):
                statement(db)
            raise _Rollback()
    after = state(db)
    # The undone insert cost a tid, a tick and a tombstone; nothing else.
    assert after.pop("store")[0] == before.pop("store")[0]
    assert dict(after, clock=0, next_tid=0) == dict(before, clock=0, next_tid=0)
    assert after["clock"] == before["clock"] + 1
    assert fired == []


@pytest.mark.parametrize("case", FAILING_UPDATES)
def test_failed_update_in_a_transaction_commits_only_what_succeeded(case, tmp_path):
    statement, error = FAILING_UPDATES[case]
    db, manager = _unique_db(tmp_path)
    fired, committed = [], []
    db.on("t", ("insert", "update", "delete"), fired.append)
    db.add_commit_hook(committed.append)
    with db.transaction():
        db.insert("t", {"id": 4, "u": 4})
        with pytest.raises(error):
            statement(db)
        db.update("t", {"u": 6}, col("id") == 4)
    assert [(r["id"], r["u"]) for r in db.table("t").rows()] == [
        (1, 1), (2, 2), (3, 3), (4, 6),
    ]
    # The triggers see the transaction's net delta, once: the row arrives
    # as it was left (insert + update -> insert of the last image) ...
    (net,) = fired
    assert [(r["id"], r["u"]) for r in net.inserted] == [(4, 6)]
    assert not net.updated and not net.deleted
    # ... while the log keeps the two statements that succeeded, in order.
    ((inserted, updated),) = committed
    assert [(r["id"], r["u"]) for r in inserted.inserted] == [(4, 4)]
    assert [after["u"] for _before, after in updated.updated] == [6]
    assert db.now() == 4  # 3 + the insert: an UPDATE, failing or not, takes no tick
    manager.close()
    recovered = recover(tmp_path)
    assert _rows(recovered) == _rows(db)
    assert recovered.now() == db.now()
