"""EXPLAIN output: plan trees render every operator."""

import pytest

from repro.db import Database, columnar
from repro.errors import DatabaseError
from tests.db.engines import forced_engine


@pytest.fixture
def db():
    database = Database()
    database.execute(
        "CREATE TABLE emp (id INTEGER PRIMARY KEY, dept TEXT, salary INTEGER)"
    )
    database.execute("CREATE TABLE d (dept TEXT, city TEXT)")
    return database


class TestExplain:
    def test_point_lookup_shows_index_scan(self, db):
        text = db.explain("SELECT * FROM emp WHERE id = 5")
        assert "IndexScan emp.id = 5" in text

    def test_full_pipeline(self, db):
        text = db.explain(
            "SELECT dept, COUNT(*) AS n FROM emp WHERE salary > 10 "
            "GROUP BY dept HAVING COUNT(*) > 1 ORDER BY n DESC LIMIT 3"
        )
        for operator in ("Limit", "Sort", "Project", "Aggregate", "Select", "Scan"):
            assert operator in text
        assert "COUNT(...) AS n" in text

    def test_join_plan(self, db):
        text = db.explain(
            "SELECT e.id, d.city FROM emp e JOIN d ON e.dept = d.dept"
        )
        assert "HashJoin e.dept = d.dept (inner)" in text
        assert "Scan emp AS e" in text

    def test_union_plan(self, db):
        text = db.explain("SELECT dept FROM emp UNION ALL SELECT dept FROM d")
        assert "Union ALL" in text

    def test_distinct_aggregate_marked(self, db):
        text = db.explain("SELECT COUNT(DISTINCT dept) AS n FROM emp")
        assert "COUNT(DISTINCT ...) AS n" in text

    def test_indentation_reflects_tree(self, db):
        text = db.explain("SELECT * FROM emp WHERE salary > 1")
        lines = text.splitlines()
        assert lines[0].startswith("KeepAll")
        assert lines[1].startswith("  Select")
        assert lines[2].startswith("    Scan")

    def test_explain_rejects_mutations(self, db):
        with pytest.raises(DatabaseError):
            db.explain("DELETE FROM emp")


class TestExplainAnalyzeSpans:
    """EXPLAIN ANALYZE records per-operator row counters as span events,
    matching the printed plan verbatim."""

    @pytest.fixture(autouse=True)
    def _obs(self):
        import repro.obs as obs

        obs.disable()
        obs.reset()
        yield obs
        obs.disable()
        obs.reset()

    @pytest.fixture
    def populated(self, db):
        for i in range(10):
            db.execute(
                f"INSERT INTO emp (id, dept, salary) VALUES ({i}, 'd{i % 2}', {i * 10})"
            )
        return db

    @staticmethod
    def assert_events_match_plan(events, text):
        plan_lines = [line.strip() for line in text.splitlines()]
        assert events, "EXPLAIN ANALYZE produced no operator events"
        assert [attrs["index"] for _, _, attrs in events] == list(range(len(events)))
        for _, name, attrs in events:
            assert name == "explain.operator"
            assert f"{attrs['operator']} (rows={attrs['rows']})" in plan_lines
        assert len(events) == len(plan_lines)

    def test_explain_api_annotates_its_own_span(self, populated, _obs):
        _obs.enable()
        text = populated.explain("SELECT * FROM emp WHERE salary > 40", analyze=True)
        (span,) = _obs.tracer().spans_named("db.explain")
        assert span.tags["analyze"] is True
        assert span.tags["operators"] == len(span.events)
        self.assert_events_match_plan(span.events, text)
        scan = next(a for _, _, a in span.events if a["operator"].startswith("Scan"))
        assert scan["rows"] == 10  # the scan saw every row

    def test_sql_explain_analyze_annotates_statement_span(self, populated, _obs):
        _obs.enable()
        result = populated.execute("EXPLAIN ANALYZE SELECT * FROM emp WHERE id = 3")
        text = "\n".join(row["plan"] for row in result.rows)
        spans = [
            s for s in _obs.tracer().finished_spans() if s.events
        ]
        (span,) = spans
        assert span.name == "db.execute"
        self.assert_events_match_plan(span.events, text)

    def test_plain_explain_emits_no_events(self, populated, _obs):
        _obs.enable()
        populated.explain("SELECT * FROM emp", analyze=False)
        assert _obs.tracer().spans_named("db.explain") == []

    def test_disabled_tracing_still_counts_rows(self, populated):
        text = populated.explain("SELECT * FROM emp", analyze=True)
        assert "(rows=10)" in text


class TestExplainAnalyzeReuse:
    """The vectorized aggregate reports the chunks it merged from the
    partials it kept, instead of folding them again."""

    SQL = "SELECT dept, COUNT(*) AS n, SUM(salary) AS s FROM emp GROUP BY dept"

    def aggregate_line(self, db):
        text = db.explain(self.SQL, analyze=True)
        (line,) = [ln.strip() for ln in text.splitlines() if "VAggregate" in ln]
        return line

    def test_first_run_reuses_nothing_and_a_tail_insert_refolds_one(
        self, db, monkeypatch
    ):
        monkeypatch.setattr(columnar, "CHUNK_ROWS", 32)
        db.insert_many(
            "emp",
            [{"id": i, "dept": f"d{i % 3}", "salary": i} for i in range(100)],
        )  # three full chunks and a tail of four
        with forced_engine("vector"):
            assert "reused=0/4 chunks, folded=100 rows (rows=3)" in self.aggregate_line(db)
            db.insert("emp", {"id": 100, "dept": "d1", "salary": 7})
            # The tail grew under its stamp: its one new row is all folded.
            assert "reused=4/4 chunks, folded=1 rows (rows=3)" in self.aggregate_line(db)
            sql_form = db.query(f"EXPLAIN ANALYZE {self.SQL}")
            assert any("reused=4/4 chunks, folded=0 rows" in r["plan"] for r in sql_form)

    def test_a_re_run_merges_only_after_a_changed_chunk(self, db, monkeypatch):
        monkeypatch.setattr(columnar, "CHUNK_ROWS", 32)
        db.insert_many(
            "emp",
            [{"id": i, "dept": f"d{i % 3}", "salary": i} for i in range(100)],
        )
        with forced_engine("vector"):
            assert "merged=4, reused=0/4 chunks, folded=100" in self.aggregate_line(db)
            db.insert("emp", {"id": 100, "dept": "d1", "salary": 7})
            # The four chunks come back as one copy of their groups.
            assert "merged=0, reused=4/4 chunks, folded=1" in self.aggregate_line(db)
            db.execute("UPDATE emp SET salary = 0 WHERE id = 40")  # chunk 1
            # Chunk 0's partial, chunk 1 re-folded, chunk 2's partial, and
            # the tail, which kept no partial of its own, folded.
            assert "merged=4, reused=2/4 chunks, folded=37" in self.aggregate_line(db)

    def test_plain_explain_reports_no_reuse(self, db):
        with forced_engine("vector"):
            assert "reused" not in db.explain(self.SQL)
