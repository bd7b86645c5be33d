"""Statement/plan caching: hit accounting, safety rules, invalidation."""

import pytest

from repro.db import Column, Database, LRUCache
from repro.errors import DatabaseError
from repro.db.plancache import param_count, plan_cachable
from repro.db.sql.parser import parse
from repro.db.types import INTEGER, TEXT


@pytest.fixture
def db():
    database = Database()
    database.create_table(
        "t",
        [Column("id", INTEGER, nullable=False), Column("name", TEXT)],
        primary_key="id",
    )
    for i in range(20):
        database.insert("t", {"id": i, "name": f"n{i}"})
    return database


class TestLRUCache:
    def test_get_put_and_counters(self):
        cache = LRUCache(capacity=2)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        info = cache.info()
        assert info["hits"] == 1 and info["misses"] == 1
        assert info["size"] == 1 and info["capacity"] == 2

    def test_lru_eviction_order(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a: b is now the eviction victim
        cache.put("c", 3)
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert len(cache) == 2

    def test_put_refreshes_and_overwrites(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh + overwrite
        cache.put("c", 3)
        assert cache.get("a") == 10
        assert "b" not in cache

    def test_clear(self):
        cache = LRUCache(capacity=4)
        cache.put("a", 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.get("a") is None


class TestCachability:
    def test_plain_select_cachable(self):
        assert plan_cachable(parse("SELECT * FROM t WHERE id = 1"))

    def test_params_in_expressions_cachable(self):
        # A ``?`` in an expression is a slot each execution binds, so the
        # plan does not depend on the values.
        stmt = parse("SELECT * FROM t WHERE id = ? AND name >= ?")
        assert plan_cachable(stmt)
        assert param_count(stmt) == 2

    def test_in_subquery_not_cachable(self):
        # IN (SELECT ...) is materialized to a value-set snapshot at plan
        # time; reusing it would freeze the subquery result.
        assert not plan_cachable(
            parse("SELECT * FROM t WHERE id IN (SELECT id FROM t)")
        )

    def test_in_literal_list_cachable(self):
        assert plan_cachable(parse("SELECT * FROM t WHERE id IN (1, 2, 3)"))

    def test_param_in_select_items_cachable(self):
        assert plan_cachable(parse("SELECT id + ? FROM t"))

    def test_param_in_compound_cachable(self):
        stmt = parse("SELECT id FROM t WHERE id > ? UNION SELECT id FROM t WHERE id = ?")
        assert plan_cachable(stmt)
        assert param_count(stmt) == 2

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT * FROM t WHERE id IN (?, 2)",
            "SELECT * FROM t WHERE NOT (id IN (1, ?))",
            "SELECT * FROM t WHERE id IN (SELECT id FROM t WHERE id > ?)",
            "SELECT * FROM t LIMIT ?",
            "SELECT * FROM t LIMIT 2 OFFSET ?",
            "SELECT id FROM t UNION SELECT id FROM t LIMIT ?",
            "SELECT id FROM t UNION SELECT id FROM t WHERE id IN (?)",
        ],
    )
    def test_values_read_while_planning_not_cachable(self, sql):
        # IN (?, ...) lists and LIMIT / OFFSET counts are fixed in the
        # plan, so their statements are planned per call.
        assert not plan_cachable(parse(sql))


class TestDatabaseCaches:
    def test_statement_cache_hits_on_repeat(self, db):
        before = db.cache_info()["statements"]["hits"]
        db.query("SELECT * FROM t WHERE id = 1")
        db.query("SELECT * FROM t WHERE id = 1")
        after = db.cache_info()["statements"]["hits"]
        assert after > before

    def test_plan_cache_hits_on_repeat(self, db):
        sql = "SELECT name FROM t WHERE id = 3"
        db.query(sql)
        before = db.cache_info()["plans"]["hits"]
        db.query(sql)
        assert db.cache_info()["plans"]["hits"] == before + 1

    def test_cached_plan_sees_new_rows(self, db):
        sql = "SELECT * FROM t WHERE id >= 18"
        assert len(db.query(sql)) == 2
        db.insert("t", {"id": 25, "name": "late"})
        # The cached plan re-executes against live indexes/tables.
        assert len(db.query(sql)) == 3

    def test_parameterized_statement_plan_cached_once(self, db):
        sql = "SELECT * FROM t WHERE id = ?"
        size_before = db.cache_info()["plans"]["size"]
        assert db.query(sql, [4])[0]["id"] == 4
        assert db.cache_info()["plans"]["size"] == size_before + 1
        plan = db.plan(sql, [9]).child
        # ...and rebinding is correct per call, on the one plan.
        for key in (9, 0, 19, 20, None):
            expected = [] if key in (20, None) else [{"id": key, "name": f"n{key}"}]
            assert db.query(sql, [key]) == expected
        assert db.plan(sql, [1]).child is plan
        assert db.cache_info()["plans"]["misses"] == 1

    def test_cached_slot_plan_needs_every_value(self, db):
        # No row has id 99, so the second slot is never read: the cached
        # entry's count of values raises what planning would.
        sql = "SELECT * FROM t WHERE id = ? AND name = ?"
        db.query(sql, [1, "n1"])
        with pytest.raises(DatabaseError, match="index 1 but only 1"):
            db.query(sql, [99])

    @pytest.mark.parametrize(
        "sql, calls",
        [
            ("SELECT id FROM t WHERE id IN (?, ?)", [([1, 2], [1, 2]), ([5, 3], [3, 5])]),
            ("SELECT id FROM t ORDER BY id LIMIT ?", [([2], [0, 1]), ([1], [0])]),
            (
                "SELECT id FROM t WHERE id IN (SELECT id FROM t WHERE id > ?)",
                [([17], [18, 19]), ([18], [19])],
            ),
        ],
    )
    def test_plan_time_values_stay_uncached(self, db, sql, calls):
        size_before = db.cache_info()["plans"]["size"]
        for params, ids in calls:
            assert [r["id"] for r in db.query(sql, params)] == ids
        assert db.cache_info()["plans"]["size"] == size_before

    def test_create_table_evicts_plans(self, db):
        db.query("SELECT * FROM t")
        assert db.cache_info()["plans"]["size"] > 0
        db.execute("CREATE TABLE other (x INTEGER)")
        assert db.cache_info()["plans"]["size"] == 0

    def test_drop_table_evicts_plans(self, db):
        db.execute("CREATE TABLE doomed (x INTEGER)")
        db.query("SELECT * FROM t")
        assert db.cache_info()["plans"]["size"] > 0
        db.execute("DROP TABLE doomed")
        assert db.cache_info()["plans"]["size"] == 0

    def test_drop_and_recreate_same_name_is_safe(self, db):
        db.execute("CREATE TABLE v (a INTEGER)")
        db.execute("INSERT INTO v (a) VALUES (1)")
        assert db.query("SELECT a FROM v") == [{"a": 1}]
        db.execute("DROP TABLE v")
        db.execute("CREATE TABLE v (a INTEGER, b INTEGER)")
        db.execute("INSERT INTO v (a, b) VALUES (2, 3)")
        # A stale cached plan would project the old single-column shape.
        assert db.query("SELECT a, b FROM v") == [{"a": 2, "b": 3}]

    def test_repeated_query_results_stable(self, db):
        sql = "SELECT * FROM t WHERE id BETWEEN 5 AND 9 ORDER BY id"
        first = db.query(sql)
        for _ in range(5):
            assert db.query(sql) == first

    def test_cache_info_shape(self, db):
        info = db.cache_info()
        assert set(info) == {"statements", "plans"}
        for section in info.values():
            assert {"hits", "misses", "size", "capacity"} <= set(section)
