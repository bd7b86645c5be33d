"""The slow-path attributor: budgets, evidence capture, noise control.

Covers the ISSUE-10 contracts: over-budget statements recorded with
EXPLAIN ANALYZE operator rows, over-budget spans recorded via the tracer
finish hook with profile stacks, per-statement dedup, capacity eviction,
the recursion guard (the slowlog never logs its own reads/writes), and
the Database enable/disable lifecycle.
"""

import json
import time

import pytest

import repro.obs as obs
from repro.db import Column, Database
from repro.db.types import FLOAT, INTEGER
from repro.obs.slowlog import SYS_SLOWLOG, SlowLog


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def make_db(rows=5000):
    db = Database()
    db.create_table(
        "pts",
        [Column("id", INTEGER, nullable=False), Column("x", FLOAT)],
        primary_key="id",
    )
    if rows:
        db.insert_many("pts", [{"id": i, "x": float(i)} for i in range(rows)])
    return db


def busy_span(name, seconds=0.02, tags=None):
    with obs.tracer().span(name, tags=tags) as span:
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            sum(i * i for i in range(500))
    return span


SLOW_SQL = "SELECT * FROM pts WHERE x > 10.0"


class TestQueryPath:
    def test_over_budget_select_recorded_with_operator_rows(self):
        obs.enable()
        db = make_db(20000)
        log = db.enable_slowlog(budget_ms=0.001)
        try:
            db.query(SLOW_SQL)
            (entry,) = log.entries()
            assert entry["kind"] == "query"
            assert entry["name"] == SLOW_SQL
            assert entry["duration_ms"] > 0
            assert entry["budget_ms"] == 0.001
            operators = json.loads(entry["operators"])
            assert operators, "EXPLAIN ANALYZE rows missing"
            labels = [label for label, _rows in operators]
            assert any("Scan" in label for label in labels)
            # The scan saw every row (counters from the real re-run).
            assert max(rows for _label, rows in operators) >= 20000
        finally:
            db.disable_slowlog()

    def test_under_budget_statement_not_recorded(self):
        obs.enable()
        db = make_db(100)
        log = db.enable_slowlog(budget_ms=10_000.0)
        try:
            db.query(SLOW_SQL)
            assert log.entries() == []
        finally:
            db.disable_slowlog()

    def test_per_statement_dedup_caps_entries(self):
        obs.enable()
        db = make_db(20000)
        log = db.enable_slowlog(budget_ms=0.001, max_per_statement=2)
        try:
            for _ in range(5):
                db.query(SLOW_SQL)
            entries = [e for e in log.entries() if e["name"] == SLOW_SQL]
            assert len(entries) == 2
            assert log.suppressed == 3
            log.reset_dedup()
            db.query(SLOW_SQL)
            entries = [e for e in log.entries() if e["name"] == SLOW_SQL]
            assert len(entries) == 3
        finally:
            db.disable_slowlog()

    def test_profile_stacks_attached_when_profiler_running(self):
        obs.enable()
        obs.OBS.enable_profiler(hz=1000)
        db = make_db(50000)
        log = db.enable_slowlog(budget_ms=0.001)
        try:
            db.query(SLOW_SQL)
            entries = [e for e in log.entries() if e["kind"] == "query"]
            assert entries
            stacked = [e for e in entries if e["stacks"]]
            assert stacked, "no profile stacks captured for a slow query"
            stacks = json.loads(stacked[0]["stacks"])
            assert all(ms >= 0 for ms in stacks.values())
        finally:
            db.disable_slowlog()
            obs.OBS.disable_profiler()

    def test_non_select_statements_recorded_without_operators(self):
        obs.enable()
        db = make_db(0)
        log = db.enable_slowlog(budget_ms=0.0001)
        try:
            db.execute("INSERT INTO pts (id, x) VALUES (1, 1.0)")
            entries = [e for e in log.entries() if e["kind"] == "query"]
            assert entries
            assert entries[0]["operators"] is None
        finally:
            db.disable_slowlog()

    def test_explain_false_skips_rerun(self):
        obs.enable()
        db = make_db(20000)
        log = db.enable_slowlog(budget_ms=0.001, explain=False)
        try:
            db.query(SLOW_SQL)
            (entry,) = log.entries()
            assert entry["operators"] is None
        finally:
            db.disable_slowlog()


class TestSpanPath:
    def test_over_budget_span_recorded(self):
        obs.enable()
        db = make_db(0)
        log = db.enable_slowlog(budget_ms=5.0)
        try:
            busy_span("ivm.delta_apply", seconds=0.02, tags={"table": "pts"})
            entries = [e for e in log.entries() if e["kind"] == "span"]
            assert len(entries) == 1
            assert entries[0]["name"] == "ivm.delta_apply"
            assert json.loads(entries[0]["tags"]) == {"table": "pts"}
        finally:
            db.disable_slowlog()

    def test_fast_span_not_recorded(self):
        obs.enable()
        db = make_db(0)
        log = db.enable_slowlog(budget_ms=10_000.0)
        try:
            busy_span("fast.op", seconds=0.001)
            assert log.entries() == []
        finally:
            db.disable_slowlog()

    def test_guarded_table_spans_never_recorded(self):
        """The observer never observes itself: spans tagged with
        telemetry tables (including sys_slowlog) are skipped."""
        obs.enable()
        db = make_db(0)
        log = db.enable_slowlog(budget_ms=1.0)
        try:
            busy_span("db.write", seconds=0.02, tags={"table": "sys_slowlog"})
            busy_span("sync.notify", seconds=0.02, tags={"table": "sys_metrics"})
            assert log.entries() == []
        finally:
            db.disable_slowlog()

    def test_slowlog_reads_do_not_feed_the_log(self):
        obs.enable()
        db = make_db(20000)
        log = db.enable_slowlog(budget_ms=0.001)
        try:
            db.query(SLOW_SQL)
            before = len(log.entries())
            # entries() runs a SELECT over sys_slowlog on this db; it
            # must not create new slowlog entries no matter how slow.
            for _ in range(3):
                log.entries()
            assert len(log.entries()) == before
        finally:
            db.disable_slowlog()


class TestBoundsAndLifecycle:
    def test_capacity_evicts_oldest(self):
        obs.enable()
        db = make_db(0)
        log = SlowLog(db, budget_ms=0.5, capacity=3, max_per_statement=100)
        try:
            for i in range(6):
                busy_span(f"op.{i}", seconds=0.003)
            log.flush()
            entries = log.entries()
            assert len(entries) <= 3
            names = [e["name"] for e in entries]
            assert "op.5" in names  # newest kept
            assert "op.0" not in names  # oldest evicted
        finally:
            log.close()

    def test_reenabled_log_numbers_on_and_keeps_its_capacity(self):
        """disable + enable keeps the rows, so the new log must count
        them against its capacity and number past them."""
        obs.enable()
        db = make_db(0)
        for batch in ("a", "b"):
            log = db.enable_slowlog(budget_ms=0.5, capacity=3, max_per_statement=100)
            for i in range(3):
                busy_span(f"op.{batch}{i}", seconds=0.003)
            log.flush()
            db.disable_slowlog()
        rows = db.query(f"SELECT id, name FROM {SYS_SLOWLOG} ORDER BY id")
        assert [r["id"] for r in rows] == [4, 5, 6]
        assert [r["name"] for r in rows] == ["op.b0", "op.b1", "op.b2"]

    def test_enable_is_idempotent_and_disable_unhooks(self):
        obs.enable()
        db = make_db(0)
        log = db.enable_slowlog(budget_ms=1.0)
        assert db.enable_slowlog() is log
        assert db.slowlog() is log
        db.disable_slowlog()
        assert db.slowlog() is None
        busy_span("late.op", seconds=0.01)
        # The hook is gone: nothing recorded after disable.
        assert db.query(f"SELECT * FROM {SYS_SLOWLOG}") == []

    def test_counters_shape(self):
        obs.enable()
        db = make_db(0)
        log = db.enable_slowlog(budget_ms=1.0)
        try:
            busy_span("op.a", seconds=0.01)
            log.flush()
            counters = log.counters()
            assert counters["recorded"] >= 1
            assert counters["errors"] == 0
            assert counters["pending"] == 0
        finally:
            db.disable_slowlog()

    def test_invalid_parameters_rejected(self):
        db = make_db(0)
        with pytest.raises(ValueError):
            SlowLog(db, budget_ms=0)
        with pytest.raises(ValueError):
            SlowLog(db, capacity=0)

    def test_rows_survive_disable(self):
        obs.enable()
        db = make_db(0)
        db.enable_slowlog(budget_ms=1.0)
        busy_span("op.keep", seconds=0.01)
        db.slowlog().flush()
        db.disable_slowlog()
        rows = db.query(f"SELECT * FROM {SYS_SLOWLOG}")
        assert any(r["name"] == "op.keep" for r in rows)
