"""The point-lookup optimization: IndexScan selection and correctness."""

import pytest

from repro.db import Column, Database
from repro.db.algebra import IndexScan, Scan
from repro.db.sql.parser import parse
from repro.db.sql.planner import plan_select
from repro.db.types import INTEGER, TEXT
from repro.db.vector import running_plan


@pytest.fixture
def db():
    database = Database()
    database.create_table(
        "emp",
        [
            Column("id", INTEGER, nullable=False),
            Column("badge", TEXT),
            Column("dept", TEXT),
        ],
        primary_key="id",
        unique=["badge"],
    )
    for i in range(200):
        database.insert(
            "emp", {"id": i, "badge": f"b{i}", "dept": f"d{i % 5}"}
        )
    return database


def scan_nodes(plan):
    """All leaf scan nodes of a plan."""
    out = []
    stack = [plan]
    while stack:
        node = stack.pop()
        if isinstance(node, (IndexScan, Scan)):
            out.append(node)
        stack.extend(node.children())
    return out


def plan_for(db, sql):
    # An un-routed plan comes wrapped for the run-time engine choice;
    # these tests inspect the operators that run on this (small) table.
    return running_plan(plan_select(parse(sql), db, ()), db)


class TestProbeSelection:
    def test_pk_equality_uses_index(self, db):
        plan = plan_for(db, "SELECT * FROM emp WHERE id = 7")
        (leaf,) = scan_nodes(plan)
        assert isinstance(leaf, IndexScan)
        assert leaf.column == "id"
        assert leaf.value == 7

    def test_unique_column_uses_index(self, db):
        plan = plan_for(db, "SELECT * FROM emp WHERE badge = 'b3'")
        (leaf,) = scan_nodes(plan)
        assert isinstance(leaf, IndexScan)
        assert leaf.column == "badge"

    def test_literal_on_left_side(self, db):
        plan = plan_for(db, "SELECT * FROM emp WHERE 7 = id")
        (leaf,) = scan_nodes(plan)
        assert isinstance(leaf, IndexScan)

    def test_conjunct_extraction(self, db):
        plan = plan_for(db, "SELECT * FROM emp WHERE dept = 'd1' AND id = 9")
        (leaf,) = scan_nodes(plan)
        assert isinstance(leaf, IndexScan)
        assert leaf.column == "id"

    def test_aliased_table(self, db):
        plan = plan_for(db, "SELECT * FROM emp e WHERE e.id = 3")
        (leaf,) = scan_nodes(plan)
        assert isinstance(leaf, IndexScan)

    def test_unindexed_column_scans(self, db):
        plan = plan_for(db, "SELECT * FROM emp WHERE dept = 'd1'")
        (leaf,) = scan_nodes(plan)
        assert isinstance(leaf, Scan)

    def test_disjunction_not_probed(self, db):
        plan = plan_for(db, "SELECT * FROM emp WHERE id = 1 OR id = 2")
        (leaf,) = scan_nodes(plan)
        assert isinstance(leaf, Scan)

    def test_null_literal_not_probed(self, db):
        plan = plan_for(db, "SELECT * FROM emp WHERE badge = NULL")
        (leaf,) = scan_nodes(plan)
        assert isinstance(leaf, Scan)

    def test_join_side_probed_via_pushdown(self, db):
        # The WHERE conjunct references only the left side, so the planner
        # pushes it below the join and routes the left leaf to the index.
        db.execute("CREATE TABLE d (dept TEXT)")
        plan = plan_for(
            db, "SELECT * FROM emp JOIN d ON emp.dept = d.dept WHERE emp.id = 1"
        )
        leaves = scan_nodes(plan)
        probes = [leaf for leaf in leaves if isinstance(leaf, IndexScan)]
        assert len(probes) == 1
        assert probes[0].table_name == "emp"
        assert probes[0].column == "id"
        # The unindexed right side keeps its full scan.
        assert any(
            isinstance(leaf, Scan) and leaf.table_name == "d" for leaf in leaves
        )

    def test_join_pushdown_results_match(self, db):
        db.execute("CREATE TABLE d (dept TEXT)")
        for i in range(5):
            db.execute("INSERT INTO d (dept) VALUES (?)", [f"d{i}"])
        routed = db.query(
            "SELECT * FROM emp JOIN d ON emp.dept = d.dept WHERE emp.id = 1"
        )
        scanned = db.query(
            "SELECT * FROM emp JOIN d ON emp.dept = d.dept WHERE emp.id + 0 = 1"
        )
        assert routed == scanned
        assert len(routed) == 1


class TestProbeCorrectness:
    def test_results_match_scan(self, db):
        probed = db.query("SELECT * FROM emp WHERE id = 7 AND dept = 'd2'")
        # Same predicate through a plain (unprobeable) shape.
        scanned = db.query("SELECT * FROM emp WHERE id + 0 = 7 AND dept = 'd2'")
        assert probed == scanned

    def test_probe_honors_remaining_predicate(self, db):
        rows = db.query("SELECT * FROM emp WHERE id = 7 AND dept = 'd0'")
        assert rows == []  # id 7 is in dept d2

    def test_miss_returns_empty(self, db):
        assert db.query("SELECT * FROM emp WHERE id = 99999") == []

    def test_fallback_without_index_support(self, db):
        # IndexScan degrades to a filtered scan over plain row sources.
        class BareTable:
            def __init__(self, rows):
                self._rows = rows

            def rows(self):
                return iter(self._rows)

        class BareSource:
            def __init__(self, rows):
                self._table = BareTable(rows)

            def table(self, name):
                return self._table

        probe = IndexScan("t", "k", 2)
        source = BareSource([{"k": 1}, {"k": 2}, {"k": 2}])
        assert list(probe.rows(source)) == [{"k": 2}, {"k": 2}]

    def test_isolation_layer_not_probed(self, db):
        """Queries through the isolation adapter must respect snapshots:
        the probe degrades to the filtered path there."""
        from repro.workflow import WorkflowEngine
        from repro.workflow.isolation import IsolationContext

        engine = WorkflowEngine(db)
        engine.isolation.manage("emp")
        snapshot = db.now()
        ctx = IsolationContext(1, snapshot, snapshot)
        db.insert("emp", {"id": 999, "badge": "new", "dept": "d0"})
        rows = engine.isolation.query("SELECT * FROM emp WHERE id = 999", (), ctx)
        assert rows == []  # invisible under the snapshot

    def test_probe_faster_than_scan(self, db):
        import time

        start = time.perf_counter()
        for _ in range(300):
            db.query("SELECT * FROM emp WHERE id = 7")
        probed = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(300):
            db.query("SELECT * FROM emp WHERE id + 0 = 7")
        scanned = time.perf_counter() - start
        assert probed < scanned


class TestRangeProbe:
    """A sorted-index range probe reads a gap-free run of tids as one
    slice of the row list; it must select what the full-scan filter
    selects, in tid order, with holes and out-of-order keys too."""

    SQL = "SELECT id, ts FROM ev WHERE ts >= ? AND ts < ?"
    SCANNED = "SELECT id, ts FROM ev WHERE ts + 0 >= ? AND ts + 0 < ?"

    @pytest.fixture
    def ev(self):
        database = Database()
        database.create_table(
            "ev",
            [Column("id", INTEGER, nullable=False), Column("ts", INTEGER)],
            primary_key="id",
        )
        database.table("ev").create_index("ix_ev_ts", ("ts",), sorted=True)
        database.insert_many("ev", [{"id": i, "ts": i} for i in range(300)])
        return database

    def probed(self, db, low, high):
        reads = []
        table = db.table("ev")
        images = table.images
        table.images = lambda tids: reads.append(tids) or images(tids)
        try:
            rows = db.query(self.SQL, [low, high])
        finally:
            del table.images
        assert rows == db.query(self.SCANNED, [low, high])
        return rows, reads

    def test_a_gap_free_run_is_one_range(self, ev):
        rows, reads = self.probed(ev, 40, 90)
        assert [r["id"] for r in rows] == list(range(40, 90))
        assert [type(tids) for tids in reads] == [range]

    def test_holes_and_moved_keys_match_the_scan(self, ev):
        ev.execute("DELETE FROM ev WHERE id = 50")
        ev.execute("UPDATE ev SET ts = 65 WHERE id = 200")
        ev.insert("ev", {"id": 300, "ts": 70})
        rows, reads = self.probed(ev, 40, 90)
        assert [r["id"] for r in rows] == [
            *range(40, 50), *range(51, 90), 200, 300
        ]
        assert [type(tids) for tids in reads] == [list]
        # A key moved next to a deleted one: the run has a gap either way.
        ev.execute("UPDATE ev SET ts = 50 WHERE id = 200")
        rows, reads = self.probed(ev, 45, 56)
        assert [r["id"] for r in rows] == [45, 46, 47, 48, 49, 51, 52, 53, 54, 55, 200]
        rows, _ = self.probed(ev, 1000, 2000)
        assert rows == []
        rows, _ = self.probed(ev, 7, 8)
        assert rows == [{"id": 7, "ts": 7}]
