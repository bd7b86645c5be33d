"""The vectorized aggregate's chunk memo and prefix against the row engine.

``VAggregate`` keeps, per column chunk, the per-group partial it folded
from it, keyed by the chunk's stamp and row count; a re-run of the cached
plan merges kept partials and folds only the chunks whose stamp changed.
Beside the memo it keeps a *prefix*: the keys of the leading run of kept
chunks and the groups merged from them, which a re-run whose leading keys
are unchanged copies instead of merging those partials (``merged`` counts
the partials a run still merged one by one); when the prefix's last chunk
comes back grown under its stamp, only the appended rows are folded into
the copy (``folded`` counts the rows a run folded).  The model test
shrinks chunks to 32 rows and drives one table through seeded sequences
of inserts (some crossing a chunk boundary), updates and deletes inside
full chunks, rolled-back transactions, compactions, folds that raise
part-way and a drop/re-create.  After every step each query, run through
``db.query`` on its cached plan, must equal its row plan exactly -- the
same rows, in the same key order, to the float bit -- no prefix state
published earlier may have changed, and after appends alone a global
aggregate must have folded exactly the appended rows.  Float SUM/AVG
must stay the row engine's left fold also under a compensating ``sum()``
(CPython >= 3.12's), emulated here by :func:`compensated_sum`.
"""

import math
import random

import pytest

from repro.db import Database, Vectorized, aggstate, columnar, vectorize_plan
from repro.db.vector import VAggregate, _walk
from tests.db.engines import forced_engine

CREATE = (
    "CREATE TABLE t (id INTEGER PRIMARY KEY, g INTEGER, b BOOLEAN, "
    "i INTEGER, f FLOAT, n INTEGER, s TEXT)"
)

#: Queries whose kept partials merge exactly: the memo must serve them.
MEMO_QUERIES = [
    "SELECT g, COUNT(*) AS c, SUM(i) AS si, AVG(i) AS ai, MIN(i) AS lo, "
    "MAX(i) AS hi FROM t GROUP BY g",
    "SELECT COUNT(*) AS c, SUM(i) AS si, AVG(i) AS ai, MIN(i) AS lo, "
    "MAX(i) AS hi FROM t",
    "SELECT g, SUM(b) AS sb, AVG(b) AS ab, MIN(b) AS lb, MAX(b) AS hb "
    "FROM t GROUP BY g",
    "SELECT SUM(b) AS sb, AVG(b) AS ab, COUNT(b) AS cb FROM t",
    "SELECT g, COUNT(n) AS cn, SUM(n) AS sn, AVG(n) AS an, MIN(n) AS ln, "
    "MAX(n) AS hn FROM t GROUP BY g",
    "SELECT COUNT(n) AS cn, SUM(n) AS sn, AVG(n) AS an FROM t",
    "SELECT g, MIN(s) AS ls, MAX(s) AS hs, COUNT(s) AS cs FROM t GROUP BY g",
    "SELECT MIN(s) AS ls, MAX(s) AS hs, MIN(f) AS lf, MAX(f) AS hf FROM t",
    "SELECT g, COUNT(*) AS c, SUM(i) AS si FROM t WHERE i > 50 GROUP BY g",
    "SELECT g, b, COUNT(*) AS c, MAX(f) AS hf FROM t GROUP BY g, b",
]
#: The memo queries without GROUP BY: their one group is never new, so
#: after appends alone a re-run folds exactly the appended rows.
GLOBAL_MEMO_QUERIES = [sql for sql in MEMO_QUERIES if "GROUP BY" not in sql]
#: Queries that fold every chunk: float SUM/AVG, DISTINCT, a global
#: COUNT(*) (an O(1) fold), and a GROUP BY on the key (a partial per row
#: is never kept).
FOLD_QUERIES = [
    "SELECT COUNT(*) AS c FROM t",
    "SELECT g, SUM(f) AS sf, AVG(f) AS af, COUNT(f) AS cf FROM t GROUP BY g",
    "SELECT SUM(f) AS sf, AVG(f) AS af FROM t",
    "SELECT g, COUNT(DISTINCT i) AS di, SUM(i) AS si FROM t GROUP BY g",
    "SELECT id, COUNT(*) AS c, SUM(i) AS si FROM t GROUP BY id",
]


class Boom(Exception):
    pass


@pytest.fixture
def small_chunks(monkeypatch):
    monkeypatch.setattr(columnar, "CHUNK_ROWS", 32)
    monkeypatch.setattr(columnar, "COMPACT_MIN_DEAD", 8)
    with forced_engine("vector"):
        yield


def exact(rows):
    """Rows as comparable text: key order, value types, float bits."""
    return [[(k, type(v).__name__, repr(v)) for k, v in row.items()] for row in rows]


def aggregate_of(db, sql):
    plan = db.plan(sql)
    assert isinstance(plan, Vectorized), sql
    return next(op for op in _walk(plan.root) if isinstance(op, VAggregate))


def compensated_sum(values, start=0):
    """CPython 3.12's ``sum()``: once the total is a float, float items are
    added with Neumaier compensation, int items as plain doubles."""
    total, comp = start, 0.0
    for value in values:
        if type(total) is not float or type(value) not in (float, int):
            if comp and math.isfinite(comp):
                total, comp = total + comp, 0.0
            total = total + value
        elif type(value) is int:
            total += float(value)
        else:
            t = total + value
            if abs(total) >= abs(value):
                comp += (total - t) + value
            else:
                comp += (value - t) + total
            total = t
    return total + comp if comp and math.isfinite(comp) else total


def use_sum(monkeypatch, summer):
    """Make ``summer`` the ``sum()`` the aggregate fold calls.  ``sum`` is
    a builtin, not a module attribute, hence ``raising=False``; the assert
    fails loudly if the fold stops calling it here."""
    assert "sum" in aggstate.AggState._fold.__code__.co_names
    monkeypatch.setattr(aggstate, "sum", summer, raising=False)


class Model:
    """One table under seeded mutations; ``check`` diffs every query."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.db = Database()
        self.next_id = 0
        self.reused = {sql: 0 for sql in MEMO_QUERIES + FOLD_QUERIES}
        # id -> (prefix state, its text when published): never mutated.
        self.published = {}
        # Per query, rows appended since its last completed run, or None
        # once anything but an append happened since.
        self.appended = {sql: None for sql in MEMO_QUERIES + FOLD_QUERIES}
        self.recreate()

    def row(self):
        rng = self.rng
        self.next_id += 1
        return {
            "id": self.next_id,
            "g": rng.choice([0, 1, 2, None]),
            "b": rng.random() < 0.5,
            "i": rng.randrange(-100, 200),
            "f": rng.choice([rng.uniform(-1, 1), rng.uniform(-1e6, 1e6), 0.1]),
            "n": None if rng.random() < 0.3 else rng.randrange(50),
            "s": rng.choice(["a", "bb", "c", "zz", "m"]),
        }

    def ids(self):
        return [r["id"] for r in self.db.table("t").rows()]

    def insert(self, count=None):
        count = self.rng.randint(1, 40) if count is None else count
        self.db.insert_many("t", [self.row() for _ in range(count)])
        for sql, rows in self.appended.items():
            if rows is not None:
                self.appended[sql] = rows + count

    def changed(self):
        """Something other than an append: no fold count is exact now."""
        self.appended = dict.fromkeys(self.appended)

    def cross(self):
        """Append more than a chunk: the tail fills and a new one starts."""
        self.insert(self.rng.randint(33, 80))

    def boom(self):
        """Append, then make each query's fold raise part-way: a run that
        fails publishes nothing, so the next one folds what this one did
        not finish."""
        self.insert()
        real = VAggregate._fold_batch

        def failing(op, *args, **kwargs):
            if not next(calls, 0):  # raise once `calls` runs down to 0
                raise Boom
            return real(op, *args, **kwargs)

        VAggregate._fold_batch = failing
        try:
            for sql in MEMO_QUERIES + FOLD_QUERIES:
                calls = iter(range(self.rng.randrange(3), -1, -1))
                try:
                    self.db.query(sql)
                except Boom:
                    continue
                self.appended[sql] = 0
        finally:
            VAggregate._fold_batch = real

    def update(self):
        self.changed()
        live = self.ids()
        if live:
            # Early ids sit in full chunks, which the memo serves.
            key = self.rng.choice(live[: max(1, len(live) // 2)])
            fresh = self.row()
            self.db.execute(
                "UPDATE t SET i = ?, f = ?, n = ?, s = ?, b = ? WHERE id = ?",
                [fresh["i"], fresh["f"], fresh["n"], fresh["s"], fresh["b"], key],
            )

    def delete(self):
        self.changed()
        live = self.ids()
        if live:
            key = self.rng.choice(live[: max(1, len(live) // 2)])
            self.db.execute("DELETE FROM t WHERE id = ?", [key])

    def rollback(self):
        with pytest.raises(Boom):
            with self.db.transaction():
                self.insert()
                self.update()
                self.delete()
                self.check()  # the memo sees uncommitted chunks too
                raise Boom
        self.changed()

    def compact(self):
        self.changed()
        live = self.ids()
        for key in self.rng.sample(live, len(live) // 3):
            self.db.execute("DELETE FROM t WHERE id = ?", [key])
        self.insert(len(live) // 3)

    def recreate(self):
        self.changed()
        self.db.drop_table("t", if_exists=True)
        self.db.execute(CREATE)
        self.insert(200)

    def check(self):
        for sql in MEMO_QUERIES + FOLD_QUERIES:
            got = self.db.query(sql)
            plan = self.db.plan(sql)
            assert exact(got) == exact(plan.row_plan.to_list(self.db)), sql
            op = aggregate_of(self.db, sql)
            self.reused[sql] += op.reused[0]
            if sql in GLOBAL_MEMO_QUERIES and self.appended[sql] is not None:
                assert op.folded == self.appended[sql], sql
            self.appended[sql] = 0
            state = op._prefix[1]
            self.published.setdefault(id(state), (state, repr(state)))
        for state, text in self.published.values():
            assert repr(state) == text, "a published prefix state changed"

    def run(self, steps):
        moves = [self.insert] * 4 + [self.update] * 3 + [self.delete] * 2 + [
            self.rollback,
            self.compact,
            self.cross,
            self.boom,
        ]
        self.check()
        for step in range(steps):
            if step == steps // 2:
                self.recreate()
            else:
                self.rng.choice(moves)()
            self.check()
        return self


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_memo_matches_the_row_engine_through_every_mutation(small_chunks, seed):
    model = Model(seed).run(60)
    # The memo did serve the mergeable queries and never the others.
    assert all(model.reused[sql] > 0 for sql in MEMO_QUERIES)
    assert all(model.reused[sql] == 0 for sql in FOLD_QUERIES)


def test_a_re_run_folds_only_the_tail(small_chunks):
    model = Model(7)  # 200 rows: 6 full chunks and a tail of 8
    db, sql = model.db, MEMO_QUERIES[0]
    db.query(sql)
    op = aggregate_of(db, sql)
    assert (op.reused, op.folded) == ((0, 7), 200)
    model.insert(1)
    db.query(sql)
    # The tail grew under its stamp: only the appended row is folded.
    assert (op.reused, op.folded) == ((7, 7), 1)
    assert len(op._memo) == 7
    assert all(type(stamp) is int and type(n) is int for stamp, n in op._memo)
    model.update()  # re-stamps one full chunk
    db.query(sql)
    # That chunk, and the tail, which kept no partial of its own.
    assert (op.reused, op.folded) == ((5, 7), 32 + 9)


def test_a_key_group_by_keeps_no_partial(small_chunks):
    model = Model(4)
    for _ in range(5):
        model.insert()
    sql = FOLD_QUERIES[-1]
    model.db.query(sql)
    model.db.query(sql)
    assert aggregate_of(model.db, sql)._memo == {}


def test_an_append_only_re_run_starts_from_the_prefix(small_chunks):
    model = Model(7)  # 200 rows: 6 full chunks and a tail of 8
    db, sql = model.db, MEMO_QUERIES[0]
    db.query(sql)
    op = aggregate_of(db, sql)
    assert (op.reused, op.merged, op.folded, len(op._prefix[0])) == ((0, 7), 7, 200, 7)
    prefix = op._prefix
    db.query(sql)
    assert (op.reused, op.merged, op.folded) == ((7, 7), 0, 0)
    assert op._prefix is prefix  # an unchanged run: no new copy
    model.insert(1)
    db.query(sql)
    assert (op.reused, op.merged, op.folded) == ((7, 7), 0, 1)
    assert op._prefix[1] is not prefix[1] and repr(prefix[1]) != repr(op._prefix[1])
    model.insert(23)  # the tail fills: a seventh full chunk, folded once
    db.query(sql)
    assert (op.reused, op.merged, op.folded, len(op._prefix[0])) == ((7, 7), 0, 23, 7)
    model.insert(1)  # an eighth chunk: its first row gets a partial
    db.query(sql)
    assert (op.reused, op.merged, op.folded, len(op._prefix[0])) == ((7, 8), 1, 1, 8)
    model.insert(40)  # across the next boundary: 31 rows, then 9
    db.query(sql)
    assert (op.reused, op.merged, op.folded, len(op._prefix[0])) == ((8, 9), 1, 40, 9)


def test_a_fold_that_raises_publishes_nothing(small_chunks):
    model = Model(7)
    db, sql = model.db, MEMO_QUERIES[0]
    db.query(sql)
    op = aggregate_of(db, sql)
    memo, prefix, text = op._memo, op._prefix, repr(op._prefix[1])
    model.insert(40)  # the tail fills and a new one starts
    real = VAggregate._fold_batch

    def failing(self, groups, batch, glins=None):
        if batch.n == 16:  # the new tail's partial, after the extension
            raise Boom
        return real(self, groups, batch, glins)

    VAggregate._fold_batch = failing
    try:
        with pytest.raises(Boom):
            db.query(sql)
    finally:
        VAggregate._fold_batch = real
    assert op._memo is memo and op._prefix is prefix
    assert repr(prefix[1]) == text
    got = db.query(sql)
    assert exact(got) == exact(db.plan(sql).row_plan.to_list(db))
    assert (op.reused, op.folded) == ((7, 8), 40)


def test_a_break_after_a_grown_chunk_folds_that_chunk_first(small_chunks):
    model = Model(7)  # 200 rows: 6 full chunks and a tail of 8
    db, sql = model.db, MEMO_QUERIES[0]
    db.query(sql)
    op = aggregate_of(db, sql)
    model.insert(30)  # the tail fills (24 rows) and a new one holds 6
    db.query(sql)
    assert (op.reused, op.folded) == ((7, 8), 30)
    assert list(op._memo.values())[6] is None  # the grown chunk: no partial
    db.execute("UPDATE t SET i = i + 1 WHERE id = ?", [model.next_id])
    got = db.query(sql)
    assert exact(got) == exact(db.plan(sql).row_plan.to_list(db))
    # The prefix broke at the new tail: the grown chunk is folded, then
    # the seven partials merged one by one, then the re-stamped tail.
    assert (op.reused, op.merged, op.folded) == ((7, 8), 8, 32 + 6)
    db.query(sql)
    assert (op.reused, op.merged, op.folded) == ((8, 8), 0, 0)


def test_a_tail_growing_new_groups_keeps_the_old_prefix(small_chunks):
    db = Database()
    db.execute(CREATE)
    db.insert_many("t", [{"id": k, "g": k % 2, "i": k} for k in range(1, 41)])
    sql = "SELECT g, COUNT(*) AS c, SUM(i) AS si FROM t GROUP BY g"
    db.query(sql)  # one full chunk and a tail of 8, both kept
    op = aggregate_of(db, sql)
    prefix = op._prefix
    # Four appended rows open four groups: more than a quarter per row.
    db.insert_many("t", [{"id": 100 + k, "g": 100 + k, "i": k} for k in range(4)])
    got = db.query(sql)
    assert exact(got) == exact(db.plan(sql).row_plan.to_list(db))
    assert op._prefix is prefix and op.folded == 4
    # Twenty more in old groups: the old prefix grows by all 24 rows.
    db.insert_many("t", [{"id": 200 + k, "g": k % 2, "i": k} for k in range(20)])
    got = db.query(sql)
    assert exact(got) == exact(db.plan(sql).row_plan.to_list(db))
    assert op._prefix is not prefix and op.folded == 24
    db.query(sql)
    assert op.folded == 0


@pytest.mark.parametrize("chunk", range(6))
def test_a_re_stamped_chunk_breaks_the_prefix_there(small_chunks, chunk):
    model = Model(7)
    db, sql = model.db, MEMO_QUERIES[0]
    db.query(sql)
    op = aggregate_of(db, sql)
    db.execute("UPDATE t SET i = i + 1 WHERE id = ?", [chunk * 32 + 1])
    got = db.query(sql)
    assert exact(got) == exact(db.plan(sql).row_plan.to_list(db))
    # The `chunk` matched partials, the re-folded chunk, the 5 - chunk
    # after it and the tail's.
    assert (op.reused, op.merged, op.folded) == ((6, 7), 7, 32)
    db.query(sql)
    assert (op.reused, op.merged, op.folded) == ((7, 7), 0, 0)


def rollback_an_update(db):
    with pytest.raises(Boom):
        with db.transaction():
            db.execute("UPDATE t SET i = i + 1 WHERE id = 1")
            raise Boom


def compact_in_place(db):
    db.execute("DELETE FROM t WHERE id <= 67")  # a quarter of 267 stored rows
    db.insert_many("t", [{"id": 1000 + k, "g": k % 3, "i": k} for k in range(67)])


@pytest.mark.parametrize("rebuild", [rollback_an_update, compact_in_place])
def test_a_rebuild_drops_the_prefix(small_chunks, rebuild):
    model = Model(7)
    db, sql = model.db, MEMO_QUERIES[0]
    db.query(sql)
    op = aggregate_of(db, sql)
    old = op._prefix[0]
    rebuild(db)  # 200 live rows again, every chunk under a fresh stamp
    db.query(sql)
    assert (op.reused, op.merged, op.folded, len(op._prefix[0])) == ((0, 7), 7, 200, 7)
    assert {stamp for stamp, _ in old}.isdisjoint(s for s, _ in op._prefix[0])
    db.query(sql)
    assert (op.reused, op.merged, op.folded) == ((7, 7), 0, 0)


def test_lineage_and_an_uncached_plan_leave_memo_and_prefix(small_chunks):
    model = Model(7)
    db, sql = model.db, MEMO_QUERIES[0]
    db.query(sql)
    op = aggregate_of(db, sql)
    memo, prefix = op._memo, op._prefix
    plan = db.plan(sql)
    rows, _ = plan.to_list_lineage(db)
    assert exact(rows) == exact(plan.row_plan.to_list(db))
    assert db.query(f"EXPLAIN LINEAGE {sql}")
    fresh = vectorize_plan(plan.row_plan)
    assert exact(fresh.to_list(db)) == exact(rows)
    fresh_op = next(op for op in _walk(fresh.root) if isinstance(op, VAggregate))
    assert (fresh_op.reused, fresh_op.merged, fresh_op.folded) == ((0, 7), 7, 200)
    assert op._memo is memo and op._prefix is prefix
    db.query(sql)
    assert (op.reused, op.merged, op.folded) == ((7, 7), 0, 0)


@pytest.mark.parametrize(
    "move", ["UPDATE t SET g = 7 WHERE id = 40", "DELETE FROM t WHERE id = 40"]
)
def test_a_group_whose_first_row_leaves_the_prefix_keeps_row_order(
    small_chunks, move
):
    db = Database()
    db.execute(CREATE)
    # Group 9 first occurs in chunk 1 (id 40), then only in the tail (id 70).
    rows = [{"id": k, "g": 9 if k in (40, 70) else k % 3, "i": k} for k in range(1, 73)]
    db.insert_many("t", rows)
    sql = "SELECT g, COUNT(*) AS c, SUM(i) AS si FROM t GROUP BY g"
    db.query(sql)
    db.execute(move)
    got = db.query(sql)
    assert exact(got) == exact(db.plan(sql).row_plan.to_list(db))
    assert got[-1]["g"] == 9
    # Chunk 0's partial, chunk 1 re-folded, then the tail's partial.
    op = aggregate_of(db, sql)
    assert (op.reused, op.merged) == ((2, 3), 3)
    assert op.folded == (32 if move.startswith("UPDATE") else 31)


@pytest.mark.parametrize("summer", [sum, compensated_sum])
def test_float_sum_is_the_row_engines_left_fold(small_chunks, monkeypatch, summer):
    use_sum(monkeypatch, summer)
    db = Database()
    db.execute(CREATE)
    db.insert_many("t", [{"id": k, "f": f} for k, f in enumerate([1e16, 1.0, -1e16])])
    for sql in ["SELECT SUM(f) AS s, AVG(f) AS a FROM t", FOLD_QUERIES[1]]:
        got = db.query(sql)
        assert exact(got) == exact(db.plan(sql).row_plan.to_list(db)), sql
    assert db.query("SELECT SUM(f) AS s FROM t") == [{"s": 0.0}]


def test_float_aggregates_match_under_a_compensating_sum(small_chunks, monkeypatch):
    use_sum(monkeypatch, compensated_sum)
    Model(1).run(30)
