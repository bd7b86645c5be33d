"""Row storage: tids, creation stamps, indexes, constraint enforcement."""

import pytest

from repro.db import Column, TableSchema
from repro.db.schema import TID
from repro.db.table import Table
from repro.db.types import ANY, BOOLEAN, FLOAT, INTEGER, TEXT, TIMESTAMP
from repro.errors import ConstraintViolation, DatabaseError, SchemaError, TypeMismatchError


def _new_clock():
    state = {"t": 0}

    def tick(n=1):
        state["t"] += n
        return state["t"]

    return tick


@pytest.fixture
def clock():
    return _new_clock()


@pytest.fixture
def table(clock):
    schema = TableSchema(
        "items",
        [
            Column("id", INTEGER, nullable=False),
            Column("name", TEXT),
            Column("qty", INTEGER, default=1),
        ],
        primary_key="id",
    )
    return Table(schema, clock)


class TestInsert:
    def test_assigns_tid_and_timestamps(self, table):
        row = table.insert({"id": 1, "name": "a"})
        assert row[TID] == 1
        assert table.created[row[TID] - 1] > 0
        # The image is the columns and the tid; the stamp is beside it.
        assert list(row) == ["id", "name", "qty", TID]

    def test_tids_are_dense_and_increasing(self, table):
        first = table.insert({"id": 1})
        second = table.insert({"id": 2})
        assert second[TID] == first[TID] + 1

    def test_timestamps_totally_ordered(self, table):
        a = table.insert({"id": 1})
        b = table.insert({"id": 2})
        assert table.created[b[TID] - 1] > table.created[a[TID] - 1]

    def test_primary_key_enforced(self, table):
        table.insert({"id": 1})
        with pytest.raises(ConstraintViolation):
            table.insert({"id": 1})

    def test_pk_check_leaves_no_trace(self, table):
        table.insert({"id": 1})
        try:
            table.insert({"id": 1})
        except ConstraintViolation:
            pass
        assert len(table) == 1


class TestUpdate:
    def test_update_returns_before_after(self, table):
        row = table.insert({"id": 1, "qty": 5})
        before, after = table.update_row(row[TID], {"qty": 6})
        assert before["qty"] == 5
        assert after["qty"] == 6

    def test_update_keeps_the_creation_stamp(self, table, clock):
        row = table.insert({"id": 1})
        created = list(table.created)
        _before, after = table.update_row(row[TID], {"qty": 9})
        assert table.created == created and clock(0) == created[-1]
        assert list(after) == ["id", "name", "qty", TID]

    def test_update_unknown_tid(self, table):
        with pytest.raises(DatabaseError):
            table.update_row(999, {"qty": 1})

    def test_update_violating_pk_rolls_back(self, table):
        table.insert({"id": 1})
        row2 = table.insert({"id": 2, "qty": 7})
        with pytest.raises(ConstraintViolation):
            table.update_row(row2[TID], {"id": 1})
        # Row unchanged and still findable via index.
        assert table.by_key(2)["qty"] == 7


    def test_failed_update_takes_no_clock_tick(self, table, clock):
        table.insert({"id": 1})
        row2 = table.insert({"id": 2})
        with pytest.raises(ConstraintViolation):
            table.update_row(row2[TID], {"id": 1})
        assert clock(0) == 2 and table.get(row2[TID]) is row2

    def test_update_many_is_the_loop_of_update_row(self, table, clock):
        rows = [table.insert({"id": i, "qty": i}) for i in (1, 2, 3)]
        pairs = table.update_many({3: {"qty": "30"}, 1: {"id": 10, "qty": 10}})
        assert [(b["qty"], a["qty"]) for b, a in pairs] == [(3, 30), (1, 10)]
        # Copy on write: the stored dict is the after image, the dict it
        # replaced -- what the insert returned -- is the before image, untouched.
        assert pairs[0][1] is table.get(3) and pairs[1][1] is table.get(1)
        assert pairs[0][0] is rows[2] and pairs[1][0] is rows[0]
        assert rows[2]["qty"] == 3 and rows[0]["id"] == 1
        assert clock(0) == 3  # an UPDATE takes no clock tick
        assert table.by_key(10) is pairs[1][1] and table.by_key(1) is None
        assert table.update_many({}) == []
        # One row: update_row's own calls.
        ((before, after),) = table.update_many({2: {"name": "two"}})
        assert (before["name"], after["name"], clock(0)) == (None, "two", 3)

    def test_update_many_fails_whole(self, table, clock):
        for i in (1, 2, 3):
            table.insert({"id": i})
        with pytest.raises(ConstraintViolation, match="key 3"):
            table.update_many({1: {"id": 4}, 2: {"id": 3}, 99: {"qty": 0}})
        with pytest.raises(DatabaseError, match="no row with tid 99"):
            table.update_many({1: {"id": 4}, 99: {"qty": 0}, 2: {"id": 3}})
        assert [r["id"] for r in table.rows()] == [1, 2, 3] and clock(0) == 3


class TestDelete:
    def test_delete_returns_image(self, table):
        row = table.insert({"id": 1, "name": "x"})
        image = table.delete_row(row[TID])
        assert image["name"] == "x"
        assert len(table) == 0

    def test_delete_removes_from_index(self, table):
        row = table.insert({"id": 1})
        table.delete_row(row[TID])
        assert table.by_key(1) is None
        table.insert({"id": 1})  # pk free again

    def test_restore_row(self, table):
        row = table.insert({"id": 1, "name": "x"})
        image = table.delete_row(row[TID])
        table.restore_row(image)
        assert table.by_key(1)["name"] == "x"
        assert table.by_key(1)[TID] == row[TID]

    def test_restore_duplicate_tid_rejected(self, table):
        row = table.insert({"id": 1})
        with pytest.raises(DatabaseError):
            table.restore_row(dict(row))


class TestScans:
    def test_rows_in_tid_order(self, table):
        for i in (3, 1, 2):
            table.insert({"id": i})
        ids = [r["id"] for r in table.rows()]
        assert ids == [3, 1, 2]  # insertion order == tid order

    def test_created_between(self, table):
        table.insert({"id": 1})
        b = table.insert({"id": 2})
        table.insert({"id": 3})
        stamp = table.created[b[TID] - 1]
        middle = [r["id"] for r in table.created_between(stamp, stamp)]
        assert middle == [2]
        up_to_b = [r["id"] for r in table.created_between(None, stamp)]
        assert sorted(up_to_b) == [1, 2]

    def test_clear(self, table):
        table.insert({"id": 1})
        table.insert({"id": 2})
        removed = table.clear()
        assert len(removed) == 2
        assert len(table) == 0


class TestSecondaryIndexes:
    def test_create_index_backfills(self, table):
        table.insert({"id": 1, "name": "a"})
        table.insert({"id": 2, "name": "a"})
        table.create_index("by_name", ("name",))
        idx = table.index("by_name")
        assert len(idx.lookup("a")) == 2

    def test_unique_index_on_existing_violation(self, table):
        table.insert({"id": 1, "name": "a"})
        table.insert({"id": 2, "name": "a"})
        with pytest.raises(ConstraintViolation):
            table.create_index("uq_name", ("name",), unique=True)

    def test_duplicate_index_name(self, table):
        table.create_index("x", ("name",))
        with pytest.raises(SchemaError):
            table.create_index("x", ("name",))

    def test_index_maintained_on_update(self, table):
        row = table.insert({"id": 1, "name": "a"})
        table.create_index("by_name", ("name",))
        table.update_row(row[TID], {"name": "b"})
        idx = table.index("by_name")
        assert not idx.lookup("a")
        assert len(idx.lookup("b")) == 1

    def test_find_hash_index(self, table):
        assert table.find_hash_index("id") is not None
        assert table.find_hash_index("name") is None


class TestStatementAtATime:
    def test_insert_many_stamps_like_a_loop_of_insert(self, table):
        table.insert({"id": 1})
        rows = table.insert_many([{"id": 2, "name": "b"}, {"id": "3"}, {"id": 4.0}])
        assert [r[TID] for r in rows] == [2, 3, 4]
        assert table.created == [1, 2, 3, 4]
        assert [r["id"] for r in rows] == [2, 3, 4]
        assert list(rows[1]) == ["id", "name", "qty", TID]
        assert table.by_key(3) is rows[1]
        assert [r["id"] for r in table.created_between(3, 4)] == [3, 4]
        assert table.insert({"id": 5})[TID] == 5

    def test_insert_many_of_nothing(self, table):
        assert table.insert_many([]) == []
        assert table.insert({"id": 1})[TID] == 1 and table.created == [1]

    def test_delete_many_returns_images_in_the_order_given(self, table):
        table.insert_many([{"id": i} for i in range(1, 6)])
        images = table.delete_many([4, 2, 5])
        assert [r["id"] for r in images] == [4, 2, 5]
        assert table.tids() == [1, 3]
        assert table.by_key(4) is None
        assert [r["id"] for r in table.created_between()] == [1, 3]

    @pytest.mark.parametrize("tids", [[1, 99], [2, 1, 2]])
    def test_delete_many_touches_nothing_unless_every_tid_resolves(self, table, tids):
        table.insert_many([{"id": 1}, {"id": 2}])
        with pytest.raises(DatabaseError):
            table.delete_many(tids)
        assert table.tids() == [1, 2] and table.by_key(1)[TID] == 1


# ----------------------------------------------------------------------
# Exact statements: stored as copies, checked a column at a time
def _attrs_schema(with_ts=False):
    """VisualAttributes-shaped: ``obj_id`` is ``ANY NOT NULL``."""
    return TableSchema(
        "attrs",
        [
            Column("id", INTEGER, nullable=False),
            Column("obj_id", ANY, nullable=False),
            Column("x", FLOAT),
            Column("label", TEXT),
            Column("selected", BOOLEAN, default=False),
            *([Column("ts", TIMESTAMP)] if with_ts else []),
        ],
    )


def _full_rows(with_ts=False):
    extra = {"ts": 4} if with_ts else {}
    return [
        {"id": 1, "obj_id": "a", "x": 0.5, "label": "p", "selected": False, **extra},
        {"id": 2, "obj_id": (2, 3), "x": None, "label": None, "selected": True, **extra},
        {"id": 3, "obj_id": 3, "x": 1.5, "label": "q", "selected": None, **extra},
    ]


def _twin_outcomes(schema, rows):
    """What ``insert_many`` and a loop of ``insert`` make of ``rows``:
    the stored rows (key order included) or the error, per twin.  A
    failing ``insert_many`` must leave an empty table behind."""
    outcomes = []
    for batch in (True, False):
        table = Table(schema, _new_clock())
        try:
            if batch:
                table.insert_many(rows)
            else:
                for values in rows:
                    table.insert(values)
        except DatabaseError as exc:
            assert not batch or len(table) == 0
            outcomes.append((type(exc), str(exc)))
        else:
            outcomes.append([list(row.items()) for row in table.rows()])
    return outcomes


def _spoil(index, **values):
    rows = _full_rows()
    rows[index] = {**rows[index], **values}
    return rows


def _permuted(index):
    rows = _full_rows()
    rows[index] = dict(reversed(rows[index].items()))
    return rows


class TestExactStatements:
    @pytest.mark.parametrize(
        "rows",
        [
            _full_rows(),
            _permuted(1),  # stored in schema order, not the row's
            _spoil(2, **{TID: 9}),  # a hidden field is dropped
            _spoil(1, id=True),  # bool is not INTEGER
            _spoil(1, x=2),  # an int is stored as a float
            _spoil(2, id="3"),  # a string is parsed
            _spoil(1, obj_id=None),  # ANY NOT NULL
            _spoil(1, selected=None) + [{"id": 4, "obj_id": 4}],  # a default
        ],
        ids=["exact", "permuted", "hidden", "bool", "int-float", "str", "null", "default"],
    )
    def test_insert_many_stores_what_a_loop_of_insert_stores(self, rows):
        batch, loop = _twin_outcomes(_attrs_schema(), rows)
        assert batch == loop

    def test_only_exact_statements_are_copied(self):
        schema = _attrs_schema()
        stored = schema.validate_rows(_full_rows())
        assert [list(row.items()) for row in stored] == [
            list(row.items()) for row in _full_rows()
        ]
        for rows in (_full_rows()[:1], _permuted(0), _spoil(0, id=True), _spoil(2, x=1)):
            assert schema.validate_rows(rows) is None

    def test_any_not_null_refuses_null_in_an_otherwise_exact_statement(self, clock):
        table = Table(_attrs_schema(), clock)
        rows = _full_rows()
        rows[1]["obj_id"] = None
        assert table.schema.validate_rows(rows) is None
        with pytest.raises(ConstraintViolation, match="attrs.obj_id is NOT NULL"):
            table.insert_many(rows)
        assert len(table) == 0 and clock(0) == 0

    def test_a_timestamp_column_keeps_every_statement_on_validate_row(self):
        schema = _attrs_schema(with_ts=True)
        assert schema.validate_rows(_full_rows(with_ts=True)) is None
        for bad in (-5, "x"):
            rows = _full_rows(with_ts=True)
            rows[2]["ts"] = bad
            batch, loop = _twin_outcomes(schema, rows)
            assert batch == loop and batch[0] is TypeMismatchError
