"""The vectorized aggregate's chunk memo and prefix against the row engine.

``VAggregate`` keeps, per full column chunk, the per-group partial it
folded from it, keyed by the chunk's stamp; a re-run of the cached plan
merges kept partials and folds only the chunks whose stamp changed.
Beside the memo it keeps a *prefix*: the stamps of the leading run of
kept chunks and the groups merged from them, which a re-run whose
leading stamps are unchanged copies instead of merging those partials
(``merged`` counts the partials a run still merged one by one).  The
model test shrinks chunks to 32 rows and drives one table through seeded
sequences of inserts, updates and deletes inside full chunks, rolled-back
transactions, compactions and a drop/re-create.  After every step each
query, run through ``db.query`` on its cached plan, must equal its row
plan exactly -- the same rows, in the same key order, to the float bit --
and no prefix state published earlier may have changed.  Float SUM/AVG
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

    def update(self):
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

    def compact(self):
        live = self.ids()
        for key in self.rng.sample(live, len(live) // 3):
            self.db.execute("DELETE FROM t WHERE id = ?", [key])
        self.insert(len(live) // 3)

    def recreate(self):
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
            state = op._prefix[1]
            self.published.setdefault(id(state), (state, repr(state)))
        for state, text in self.published.values():
            assert repr(state) == text, "a published prefix state changed"

    def run(self, steps):
        moves = [self.insert] * 4 + [self.update] * 3 + [self.delete] * 2 + [
            self.rollback,
            self.compact,
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
    assert op.reused == (0, 7)
    model.insert(1)
    db.query(sql)
    assert op.reused == (6, 7)
    assert len(op._memo) == 6 and all(type(k) is int for k in op._memo)
    model.update()  # re-stamps one full chunk
    db.query(sql)
    assert op.reused == (5, 7)


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
    assert (op.reused, op.merged, len(op._prefix[0])) == ((0, 7), 6, 6)
    prefix = op._prefix
    model.insert(1)
    db.query(sql)
    assert (op.reused, op.merged) == ((6, 7), 0)
    assert op._prefix is prefix  # an unchanged leading run: no new copy
    model.insert(24)  # the tail fills: a seventh full chunk, folded once
    db.query(sql)
    assert (op.reused, op.merged, len(op._prefix[0])) == ((6, 8), 1, 7)
    model.insert(1)
    db.query(sql)
    assert (op.reused, op.merged) == ((7, 8), 0)


@pytest.mark.parametrize("chunk", range(6))
def test_a_re_stamped_chunk_breaks_the_prefix_there(small_chunks, chunk):
    model = Model(7)
    db, sql = model.db, MEMO_QUERIES[0]
    db.query(sql)
    op = aggregate_of(db, sql)
    db.execute("UPDATE t SET i = i + 1 WHERE id = ?", [chunk * 32 + 1])
    got = db.query(sql)
    assert exact(got) == exact(db.plan(sql).row_plan.to_list(db))
    # The `chunk` matched partials, the re-folded chunk, the 5 - chunk after.
    assert (op.reused, op.merged) == ((5, 7), 6)
    db.query(sql)
    assert (op.reused, op.merged) == ((6, 7), 0)


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
    assert (op.reused, op.merged, len(op._prefix[0])) == ((0, 7), 6, 6)
    assert set(old).isdisjoint(op._prefix[0])
    db.query(sql)
    assert (op.reused, op.merged) == ((6, 7), 0)


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
    assert (fresh_op.reused, fresh_op.merged) == ((0, 7), 6)
    assert op._memo is memo and op._prefix is prefix
    db.query(sql)
    assert (op.reused, op.merged) == ((6, 7), 0)


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
    op = aggregate_of(db, sql)  # chunk 0's partial, then chunk 1 re-folded
    assert (op.reused, op.merged) == ((1, 3), 2)


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
