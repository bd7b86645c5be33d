"""Cost-aware routing: range scans, composite probes, pushdown, join choice.

The overarching property: every routed plan must return exactly the rows
(and row order) of the naive full-scan plan -- routing is purely a cost
transformation.  Several tests below compare ``optimize=True`` against
``optimize=False`` plans over the same statement to enforce that.
"""

import random

import pytest

from repro.db import Column, Database, col
from repro.db.algebra import (
    CompositeIndexScan,
    HashJoin,
    IndexNestedLoopJoin,
    IndexScan,
    RangeIndexScan,
    Scan,
)
from repro.db.schema import CREATED_AT, TID
from repro.db.sql.parser import parse
from repro.db.sql.planner import plan_select
from repro.db.types import INTEGER, TEXT
from repro.db.vector import running_plan

ROWS = 300


@pytest.fixture
def db():
    database = Database()
    database.create_table(
        "ev",
        [
            Column("id", INTEGER, nullable=False),
            Column("kind", TEXT),
            Column("shard", INTEGER),
            Column("seq", INTEGER),
        ],
        primary_key="id",
    )
    table = database.table("ev")
    table.create_index("ix_ev_seq", ("seq",), sorted=True)
    table.create_index("ix_ev_kind_shard", ("kind", "shard"))
    for i in range(ROWS):
        database.insert(
            "ev", {"id": i, "kind": f"k{i % 3}", "shard": i % 7, "seq": i * 2}
        )
    return database


def leaves(plan):
    out = []
    stack = [plan]
    while stack:
        node = stack.pop()
        if isinstance(
            node, (Scan, IndexScan, RangeIndexScan, CompositeIndexScan)
        ):
            out.append(node)
        stack.extend(node.children())
    return out


def plans_for(db, sql):
    stmt = parse(sql)
    routed = plan_select(stmt, db, ())
    naive = plan_select(stmt, db, (), optimize=False)
    return routed, naive


def assert_equivalent(db, sql):
    routed, naive = plans_for(db, sql)
    assert routed.to_list(db) == naive.to_list(db)
    # An un-routed plan comes wrapped for the run-time engine choice;
    # the tests below inspect the operators that run on this table.
    return running_plan(routed, db)


class TestRangeRouting:
    def test_upper_bound_routes(self, db):
        routed = assert_equivalent(db, "SELECT * FROM ev WHERE seq < 20")
        (leaf,) = leaves(routed)
        assert isinstance(leaf, RangeIndexScan)
        assert leaf.column == "seq"
        assert leaf.high == 20 and not leaf.include_high
        assert leaf.low is None

    def test_bounds_merge_across_conjuncts(self, db):
        routed = assert_equivalent(
            db, "SELECT * FROM ev WHERE seq >= 10 AND seq < 40 AND seq > 12"
        )
        (leaf,) = leaves(routed)
        assert isinstance(leaf, RangeIndexScan)
        assert leaf.low == 12 and not leaf.include_low  # tightest wins
        assert leaf.high == 40 and not leaf.include_high

    def test_between_routes(self, db):
        routed = assert_equivalent(
            db, "SELECT * FROM ev WHERE seq BETWEEN 100 AND 120"
        )
        (leaf,) = leaves(routed)
        assert isinstance(leaf, RangeIndexScan)
        assert leaf.low == 100 and leaf.include_low
        assert leaf.high == 120 and leaf.include_high

    def test_created_at_range_routes(self, db):
        # The implicit per-table creation index (isolation predicates).
        # The stamps are not in the row image, so the oracle is a filter
        # over the table's stamp list, not the naive plan.
        table = db.table("ev")
        db.delete("ev", col("id") < 10)
        snapshot = table.created[ROWS // 2]
        routed, _naive = plans_for(
            db, f"SELECT * FROM ev WHERE {CREATED_AT} <= {snapshot}"
        )
        (leaf,) = leaves(routed)
        assert isinstance(leaf, RangeIndexScan)
        assert leaf.column == CREATED_AT
        assert routed.to_list(db) == [
            {k: v for k, v in row.items() if k != TID}
            for row in table.rows()
            if table.created[row[TID] - 1] <= snapshot
        ]
        assert len(routed.to_list(db)) == ROWS // 2 + 1 - 10

    def test_range_plus_residual_filter(self, db):
        routed = assert_equivalent(
            db, "SELECT * FROM ev WHERE seq < 100 AND kind = 'k1'"
        )
        # kind alone has no single-column index: it stays a residual filter
        # above the range leaf.
        (leaf,) = leaves(routed)
        assert isinstance(leaf, RangeIndexScan)

    def test_explain_shows_range_scan(self, db):
        text = db.explain("SELECT * FROM ev WHERE seq >= 6 AND seq <= 8")
        assert "RangeIndexScan ev.seq in [6, 8]" in text
        assert not any(
            line.strip().startswith("Scan ") for line in text.splitlines()
        )


class TestCompositeRouting:
    def test_composite_equality_routes(self, db):
        routed = assert_equivalent(
            db, "SELECT * FROM ev WHERE kind = 'k2' AND shard = 4"
        )
        (leaf,) = leaves(routed)
        assert isinstance(leaf, CompositeIndexScan)
        assert set(leaf.columns) == {"kind", "shard"}

    def test_partial_composite_does_not_route(self, db):
        # Only one column of the composite key: no usable index.
        routed = assert_equivalent(db, "SELECT * FROM ev WHERE shard = 4")
        (leaf,) = leaves(routed)
        assert isinstance(leaf, Scan)

    def test_cheapest_candidate_wins(self, db):
        # id = 7 narrows to one row; the composite bucket holds many --
        # the point probe must win.
        routed = assert_equivalent(
            db, "SELECT * FROM ev WHERE id = 7 AND kind = 'k1' AND shard = 0"
        )
        (leaf,) = leaves(routed)
        assert isinstance(leaf, IndexScan)
        assert leaf.column == "id"


class TestPushdownAndJoins:
    @pytest.fixture
    def join_db(self, db):
        db.create_table(
            "kinds",
            [Column("kind", TEXT, nullable=False), Column("label", TEXT)],
            primary_key="kind",
        )
        # Big enough that probing beats building a hash table on it.
        for k in range(100):
            db.insert("kinds", {"kind": f"k{k}", "label": f"label{k}"})
        return db

    def test_left_side_conjunct_pushed_and_routed(self, join_db):
        routed = assert_equivalent(
            join_db,
            "SELECT * FROM ev JOIN kinds ON ev.kind = kinds.kind "
            "WHERE ev.seq < 10",
        )
        assert any(isinstance(leaf, RangeIndexScan) for leaf in leaves(routed))

    def test_right_side_conjunct_not_pushed_below_left_join(self, join_db):
        sql = (
            "SELECT * FROM ev LEFT JOIN kinds ON ev.kind = kinds.kind "
            "WHERE kinds.label = 'label1'"
        )
        routed, naive = plans_for(join_db, sql)
        assert routed.to_list(join_db) == naive.to_list(join_db)

    def test_index_nested_loop_chosen_for_small_outer(self, join_db):
        # id = 3 bounds the outer side to one row; kinds has a pk hash
        # index on the join column.
        stmt = parse(
            "SELECT * FROM ev JOIN kinds ON ev.kind = kinds.kind "
            "WHERE ev.id = 3"
        )
        routed = plan_select(stmt, join_db, ())
        nodes = [routed]
        found = []
        while nodes:
            node = nodes.pop()
            if isinstance(node, IndexNestedLoopJoin):
                found.append(node)
            nodes.extend(node.children())
        assert len(found) == 1
        naive = plan_select(stmt, join_db, (), optimize=False)
        assert routed.to_list(join_db) == naive.to_list(join_db)

    def test_large_outer_keeps_hash_join(self, join_db):
        stmt = parse("SELECT * FROM ev JOIN kinds ON ev.kind = kinds.kind")
        routed = plan_select(stmt, join_db, ())
        nodes, kinds_join = [routed], []
        while nodes:
            node = nodes.pop()
            if isinstance(node, (HashJoin, IndexNestedLoopJoin)):
                kinds_join.append(node)
            nodes.extend(node.children())
        assert all(isinstance(j, HashJoin) for j in kinds_join)


class TestPropertyEquivalence:
    def test_random_range_queries_match_full_scan(self, db):
        rng = random.Random(42)
        ops = ["<", "<=", ">", ">="]
        for _ in range(40):
            bound = rng.randrange(-10, 2 * ROWS + 10)
            op = rng.choice(ops)
            sql = f"SELECT * FROM ev WHERE seq {op} {bound}"
            assert_equivalent(db, sql)

    def test_random_two_sided_ranges_match_full_scan(self, db):
        rng = random.Random(7)
        for _ in range(40):
            low = rng.randrange(0, 2 * ROWS)
            high = low + rng.randrange(0, 80)
            sql = (
                f"SELECT * FROM ev WHERE seq >= {low} AND seq <= {high} "
                f"ORDER BY id"
            )
            assert_equivalent(db, sql)

    def test_point_probes_match_full_scan(self, db):
        for i in (-1, 0, 5, ROWS - 1, ROWS, ROWS + 50):
            assert_equivalent(db, f"SELECT * FROM ev WHERE id = {i}")

    def test_contradictory_equalities_empty(self, db):
        routed = assert_equivalent(
            db, "SELECT * FROM ev WHERE id = 1 AND id = 2"
        )
        assert routed.to_list(db) == []


class TestRoutedMutations:
    def test_update_via_point_probe(self, db):
        count = db.execute("UPDATE ev SET kind = 'z' WHERE id = 5").rowcount
        assert count == 1
        assert db.query("SELECT kind FROM ev WHERE id = 5")[0]["kind"] == "z"

    def test_update_via_range(self, db):
        count = db.execute("UPDATE ev SET kind = 'r' WHERE seq < 10").rowcount
        assert count == 5
        assert len(db.query("SELECT * FROM ev WHERE kind = 'r'")) == 5

    def test_delete_via_range(self, db):
        count = db.execute("DELETE FROM ev WHERE seq >= 580").rowcount
        assert count == 10
        assert len(db.query("SELECT * FROM ev")) == ROWS - 10

    def test_update_fires_triggers_with_routed_where(self, db):
        seen = []
        db.on("ev", "update", lambda change: seen.append(len(change.updated)))
        db.execute("UPDATE ev SET shard = 99 WHERE id = 3")
        assert seen == [1]

    def test_routed_delete_matches_unrouted_semantics(self, db):
        # Same predicate, one routable and one not (arithmetic defeats
        # routing); both must delete the same rows.
        other = Database()
        other.create_table(
            "ev",
            [Column("id", INTEGER, nullable=False), Column("seq", INTEGER)],
            primary_key="id",
        )
        for i in range(50):
            other.insert("ev", {"id": i, "seq": i * 2})
        removed_routed = other.execute("DELETE FROM ev WHERE seq <= 20").rowcount
        fresh = Database()
        fresh.create_table(
            "ev",
            [Column("id", INTEGER, nullable=False), Column("seq", INTEGER)],
            primary_key="id",
        )
        for i in range(50):
            fresh.insert("ev", {"id": i, "seq": i * 2})
        removed_scan = fresh.execute(
            "DELETE FROM ev WHERE seq + 0 <= 20"
        ).rowcount
        assert removed_routed == removed_scan == 11


class TestExplainAnalyze:
    def test_row_counters_rendered(self, db):
        text = db.explain("SELECT * FROM ev WHERE seq < 10", analyze=True)
        assert "RangeIndexScan ev.seq in (-inf, 10) (rows=5)" in text
        assert "KeepAll (rows=5)" in text

    def test_sql_explain_statement(self, db):
        result = db.execute("EXPLAIN SELECT * FROM ev WHERE id = 1")
        text = "\n".join(row["plan"] for row in result)
        assert "IndexScan ev.id = 1" in text

    def test_sql_explain_analyze_statement(self, db):
        result = db.execute(
            "EXPLAIN ANALYZE SELECT * FROM ev WHERE seq BETWEEN 0 AND 8"
        )
        text = "\n".join(row["plan"] for row in result)
        assert "(rows=5)" in text

    def test_explain_rejects_non_select(self, db):
        from repro.errors import SQLSyntaxError

        with pytest.raises(SQLSyntaxError):
            db.execute("EXPLAIN DELETE FROM ev")


class TestIsolationAndNotificationRouting:
    def test_isolation_snapshot_results_unchanged(self, db):
        from repro.workflow import WorkflowEngine
        from repro.workflow.isolation import IsolationContext

        engine = WorkflowEngine(db)
        engine.isolation.manage("ev")
        snapshot = db.now()
        ctx = IsolationContext(1, snapshot, snapshot)
        db.insert("ev", {"id": 9999, "kind": "new", "shard": 0, "seq": -1})
        rows = engine.isolation.query("SELECT * FROM ev", (), ctx)
        assert len(rows) == ROWS  # the post-snapshot row is invisible
        assert all(row["id"] != 9999 for row in rows)

    def test_deletion_table_is_indexed(self, db):
        from repro.workflow import WorkflowEngine

        engine = WorkflowEngine(db)
        engine.isolation.manage("ev")
        deletion = db.table("ev_deleted")
        assert deletion.find_hash_index("pid") is not None
        assert deletion.find_sorted_index("process_end") is not None

    def test_notification_seq_scans_routed(self, db):
        from repro.core import datamodel
        from repro.sync.notification import NotificationCenter

        center = NotificationCenter(db)
        center.watch("ev")
        for i in range(20):
            db.insert(
                "ev", {"id": 1000 + i, "kind": "n", "shard": 0, "seq": 9000 + i}
            )
        notes = center.notifications_since("ev", 0)
        assert len(notes) == 20
        assert notes == sorted(notes)
        # The log keeps no seq_no index (the center bisects its tid
        # order), so SQL over it scans -- and answers the same events.
        sql = f"SELECT seq_no, op FROM {datamodel.T_NOTIFICATION} WHERE seq_no > 10"
        assert "Scan ediflow_notification" in db.explain(sql)
        assert [(r["seq_no"], r["op"]) for r in db.query(sql)] == [
            note for note in notes if note[0] > 10
        ]
        assert center.notifications_since("ev", 10) == notes[10:]

    def test_changes_since_tail(self, db):
        from repro.sync.notification import NotificationCenter

        center = NotificationCenter(db)
        center.watch("ev")
        db.insert("ev", {"id": 2000, "kind": "a", "shard": 0, "seq": 8000})
        newest, changes = center.changes_since("ev", 0)
        assert len(changes) == 1
        newest2, changes2 = center.changes_since("ev", newest)
        assert changes2 == []
        assert newest2 == newest
