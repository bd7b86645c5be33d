"""The vectorized aggregate's chunk memo against the row engine.

``VAggregate`` keeps, per full column chunk, the per-group partial it
folded from it, keyed by the chunk's stamp; a re-run of the cached plan
merges kept partials and folds only the chunks whose stamp changed.  This
model test shrinks chunks to 32 rows and drives one table through seeded
sequences of inserts, updates and deletes inside full chunks, rolled-back
transactions, compactions and a drop/re-create.  After every step each
query, run through ``db.query`` on its cached plan, must equal its row
plan exactly: the same rows, in the same key order, to the float bit.
"""

import random

import pytest

from repro.db import Database, Vectorized, columnar
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


class Model:
    """One table under seeded mutations; ``check`` diffs every query."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.db = Database()
        self.next_id = 0
        self.reused = {sql: 0 for sql in MEMO_QUERIES + FOLD_QUERIES}
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
            self.reused[sql] += aggregate_of(self.db, sql).reused[0]

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
