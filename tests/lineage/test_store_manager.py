"""LineageStore persistence guards + LineageManager sampling + the
Database-level lineage surface (enable_lineage, EXPLAIN LINEAGE,
query_lineage, backward/forward_lineage)."""

import pytest

from repro.db import Column, Database
from repro.db.algebra import AggSpec
from repro.db.expression import col
from repro.db.types import INTEGER, TEXT
from repro.errors import DatabaseError, LineageError
from repro.ivm.registry import ViewRegistry
from repro.ivm.view import AggregateView
from repro.lineage.store import (
    SYS_LINEAGE_EDGES,
    SYS_LINEAGE_QUERIES,
    LineageStore,
)


def make_db(n=10):
    db = Database("lin")
    db.create_table("t", [Column("k", INTEGER), Column("v", INTEGER), Column("tag", TEXT)])
    if n:
        db.insert_many(
            "t", [{"k": i % 3, "v": i, "tag": "ab"[i % 2]} for i in range(n)]
        )
    return db


class TestLineageStore:
    def test_record_and_read_back(self):
        db = make_db()
        store = LineageStore(db)
        qid = store.record(
            "SELECT ...", "vector", [(("t", 1), ("t", 2)), (("t", 3),)], ["t"]
        )
        assert qid == 1
        edges = store.edges_for(qid)
        assert [(e["out_row"], e["src_tid"]) for e in edges] == [(0, 1), (0, 2), (1, 3)]
        assert store.backward(qid, 0) == {("t", 1), ("t", 2)}
        (qrow,) = db.query(f"SELECT * FROM {SYS_LINEAGE_QUERIES}")
        assert qrow["rows"] == 2 and qrow["edges"] == 3 and not qrow["truncated"]

    def test_recursion_guard_skips_sys_tables(self):
        store = LineageStore(make_db())
        assert store.record("SELECT ...", "row", [(("sys_spans", 1),)], ["sys_spans"]) is None
        assert store.guard_skipped == 1
        assert store.queries_stored == 0

    def test_retention_prunes_old_queries(self):
        db = make_db()
        store = LineageStore(db, retention=3)
        for i in range(7):
            store.record(f"q{i}", "row", [(("t", i),)], ["t"])
        kept = {r["query_id"] for r in db.query(f"SELECT query_id FROM {SYS_LINEAGE_QUERIES}")}
        assert kept == {5, 6, 7}
        edge_qids = {r["query_id"] for r in db.query(f"SELECT query_id FROM {SYS_LINEAGE_EDGES}")}
        assert edge_qids == {5, 6, 7}
        assert store.pruned > 0

    def test_edge_cap_truncates_and_flags(self):
        db = make_db()
        store = LineageStore(db, max_edges_per_query=3)
        lins = [(("t", 1), ("t", 2)), (("t", 3), ("t", 4)), (("t", 5),)]
        qid = store.record("big", "row", lins, ["t"])
        assert len(store.edges_for(qid)) == 2  # second row would overflow
        (qrow,) = db.query(f"SELECT * FROM {SYS_LINEAGE_QUERIES}")
        assert qrow["truncated"] == 1
        assert store.truncated == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            LineageStore(make_db(0), retention=0)
        with pytest.raises(ValueError):
            LineageStore(make_db(0), max_edges_per_query=0)


class TestSampling:
    def test_every_nth_select_is_captured(self):
        db = make_db()
        mgr = db.enable_lineage(sample=3)
        for _ in range(9):
            db.query("SELECT k, SUM(v) AS s FROM t GROUP BY k")
        assert mgr.captures == 3  # statements 1, 4, 7
        assert mgr.sampled_out == 6
        assert mgr.store.queries_stored == 3

    def test_sampled_rows_identical_to_unsampled(self):
        db = make_db()
        sql = "SELECT tag, COUNT(*) AS n FROM t GROUP BY tag ORDER BY tag"
        plain = db.query(sql)
        db.enable_lineage(sample=1)
        assert db.query(sql) == plain

    def test_sys_reads_never_captured(self):
        db = make_db()
        mgr = db.enable_lineage(sample=1)
        db.query("SELECT k FROM t")
        assert mgr.captures == 1
        db.query(f"SELECT sql FROM {SYS_LINEAGE_QUERIES}")
        assert mgr.captures == 1  # the sys_ read itself was not captured
        assert mgr.store.guard_skipped == 0  # skipped upstream, pre-store

    def test_disable_lineage(self):
        db = make_db()
        mgr = db.enable_lineage(sample=1)
        db.query("SELECT k FROM t")
        db.disable_lineage()
        assert db.lineage is None
        db.query("SELECT k FROM t")
        assert mgr.captures == 1

    def test_reenabled_lineage_numbers_on_from_the_tables(self):
        """A replaced manager keeps the tables, so it must not hand out
        their query_ids again: two queries' edges under one id read back
        as one query's lineage."""
        db = make_db()
        db.enable_lineage(sample=1)
        db.query("SELECT k FROM t WHERE v < 3")
        store = db.enable_lineage(sample=1).store
        db.query("SELECT k FROM t WHERE v < 5")
        ids = [r["query_id"] for r in db.query(f"SELECT * FROM {SYS_LINEAGE_QUERIES}")]
        assert ids == [1, 2]
        assert len(store.edges_for(1)) == 3
        assert len(store.edges_for(2)) == 5
        assert store.backward(2, 4) == {("t", 5)}
        assert store.latest_query_id() == 2


class TestDatabaseSurface:
    def test_query_lineage(self):
        db = make_db(4)
        db.enable_lineage(store=False)
        rows, lins = db.query_lineage("SELECT tag, COUNT(*) AS n FROM t GROUP BY tag ORDER BY tag")
        assert len(rows) == len(lins) == 2
        all_tids = {tid for lin in lins for (_, tid) in lin}
        assert len(all_tids) == 4

    def test_query_lineage_requires_enable(self):
        db = make_db(2)
        with pytest.raises(DatabaseError, match="enable_lineage"):
            db.query_lineage("SELECT k FROM t")

    def test_explain_lineage_sql(self):
        db = make_db(4)  # works without enable_lineage: explicit capture
        edges = db.query("EXPLAIN LINEAGE SELECT tag, COUNT(*) AS n FROM t GROUP BY tag")
        assert {e["src_table"] for e in edges} == {"t"}
        assert len(edges) == 4  # every base row feeds some group
        assert {e["out_row"] for e in edges} == {0, 1}

    def test_explain_lineage_parses_alongside_analyze(self):
        db = make_db(2)
        plan_rows = db.query("EXPLAIN SELECT k FROM t")
        assert "plan" in plan_rows[0]
        analyzed = db.query("EXPLAIN ANALYZE SELECT k FROM t")
        assert "(rows=2)" in analyzed[0]["plan"]

    def test_backward_and_forward_lineage_via_views(self):
        db = make_db(6)
        mgr = db.enable_lineage(store=False)
        view = AggregateView(
            "by_tag", "t", ("tag",), [AggSpec("COUNT", None, "n")]
        ).enable_lineage()
        ViewRegistry(db).register(view)  # auto-registers with the manager
        assert "by_tag" in mgr.views()
        back = db.backward_lineage("by_tag", ("a",))
        assert back and all(tbl == "t" for tbl, _ in back)
        some_tid = next(tid for _, tid in back)
        fwd = db.forward_lineage("t", [some_tid])
        assert fwd == {"by_tag": {("a",)}}

    def test_manager_rejects_lineageless_view(self):
        db = make_db(0)
        mgr = db.enable_lineage(store=False)
        plain = AggregateView("v", "t", ("tag",), [AggSpec("COUNT", None, "n")])
        with pytest.raises(LineageError, match="no lineage index"):
            mgr.register_view(plain)

    def test_unknown_view_lookup(self):
        db = make_db(0)
        mgr = db.enable_lineage(store=False)
        with pytest.raises(LineageError, match="no lineage-enabled view"):
            mgr.view("ghost")
