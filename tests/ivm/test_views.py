"""Materialized views under incremental maintenance."""

import pytest

from repro.db import AggSpec, Column, Database, col
from repro.db.types import ANY, INTEGER, TEXT
from repro.errors import ViewError
from repro.ivm import (
    AggregateView,
    Delta,
    JoinView,
    SelectProjectView,
    ViewRegistry,
)


@pytest.fixture
def db():
    database = Database()
    database.create_table(
        "orders",
        [
            Column("id", INTEGER, nullable=False),
            Column("customer", TEXT),
            Column("amount", INTEGER),
        ],
        primary_key="id",
    )
    database.create_table(
        "customers",
        [Column("name", TEXT), Column("city", TEXT)],
    )
    return database


@pytest.fixture
def registry(db):
    return ViewRegistry(db)


class TestSelectProjectView:
    def test_populate_and_maintain(self, db, registry):
        view = registry.register(
            SelectProjectView("big", "orders", where=col("amount") > 10)
        )
        db.insert("orders", {"id": 1, "customer": "a", "amount": 5})
        db.insert("orders", {"id": 2, "customer": "b", "amount": 20})
        assert len(view) == 1
        assert view.rows()[0]["customer"] == "b"

    def test_delete_maintains(self, db, registry):
        view = registry.register(SelectProjectView("all", "orders"))
        db.insert("orders", {"id": 1, "customer": "a", "amount": 5})
        db.delete("orders", col("id") == 1)
        assert len(view) == 0

    def test_update_moves_row_across_predicate(self, db, registry):
        view = registry.register(
            SelectProjectView("big", "orders", where=col("amount") > 10)
        )
        db.insert("orders", {"id": 1, "customer": "a", "amount": 5})
        assert len(view) == 0
        db.update("orders", {"amount": 50}, col("id") == 1)
        assert len(view) == 1
        db.update("orders", {"amount": 1}, col("id") == 1)
        assert len(view) == 0

    def test_projection(self, db, registry):
        view = registry.register(
            SelectProjectView(
                "names", "orders", project=[("who", col("customer"))]
            )
        )
        db.insert("orders", {"id": 1, "customer": "a", "amount": 5})
        assert view.rows() == [{"who": "a"}]

    def test_duplicates_counted(self, db, registry):
        view = registry.register(
            SelectProjectView("cities", "customers", project=[("city", col("city"))])
        )
        db.insert("customers", {"name": "a", "city": "x"})
        db.insert("customers", {"name": "b", "city": "x"})
        assert len(view) == 2
        db.delete("customers", col("name") == "a")
        assert len(view) == 1  # one 'x' remains

    def test_matches_recompute(self, db, registry):
        view = registry.register(
            SelectProjectView("big", "orders", where=col("amount") > 10)
        )
        for i in range(20):
            db.insert("orders", {"id": i, "customer": "c", "amount": i})
        db.delete("orders", col("amount") < 5)
        db.update("orders", {"amount": 100}, col("id") == 7)
        incremental = sorted(r["id"] for r in view.rows())
        view.recompute(db)
        recomputed = sorted(r["id"] for r in view.rows())
        assert incremental == recomputed


class TestJoinView:
    def test_populate_and_both_side_deltas(self, db, registry):
        view = registry.register(
            JoinView("oc", "orders", "customers", "customer", "name")
        )
        db.insert("customers", {"name": "a", "city": "paris"})
        db.insert("orders", {"id": 1, "customer": "a", "amount": 5})
        assert len(view) == 1
        assert view.rows()[0]["city"] == "paris"
        # Right-side delta joins against existing left rows.
        db.insert("customers", {"name": "a", "city": "lyon"})
        assert len(view) == 2

    def test_delete_right_side(self, db, registry):
        view = registry.register(
            JoinView("oc", "orders", "customers", "customer", "name")
        )
        db.insert("customers", {"name": "a", "city": "paris"})
        db.insert("orders", {"id": 1, "customer": "a", "amount": 5})
        db.delete("customers", col("city") == "paris")
        assert len(view) == 0

    def test_join_with_predicate_and_projection(self, db, registry):
        view = registry.register(
            JoinView(
                "big_paris",
                "orders",
                "customers",
                "customer",
                "name",
                where=col("amount") > 10,
                project=[("id", col("id")), ("city", col("city"))],
            )
        )
        db.insert("customers", {"name": "a", "city": "paris"})
        db.insert("orders", {"id": 1, "customer": "a", "amount": 5})
        db.insert("orders", {"id": 2, "customer": "a", "amount": 50})
        assert view.rows() == [{"id": 2, "city": "paris"}]

    def test_null_keys_never_join(self, db, registry):
        view = registry.register(
            JoinView("oc", "orders", "customers", "customer", "name")
        )
        db.insert("customers", {"name": None, "city": "niltown"})
        db.insert("orders", {"id": 1, "customer": None, "amount": 5})
        assert len(view) == 0

    def test_self_join_rejected(self):
        with pytest.raises(ViewError):
            JoinView("bad", "t", "t", "a", "a")

    def test_matches_recompute(self, db, registry):
        view = registry.register(
            JoinView("oc", "orders", "customers", "customer", "name")
        )
        for i in range(10):
            db.insert("customers", {"name": f"c{i % 3}", "city": f"city{i}"})
            db.insert("orders", {"id": i, "customer": f"c{i % 4}", "amount": i})
        db.delete("orders", col("amount") < 3)
        incremental = sorted(
            (r["id"], r["city"]) for r in view.rows()
        )
        view.recompute(db)
        recomputed = sorted((r["id"], r["city"]) for r in view.rows())
        assert incremental == recomputed


class TestAggregateView:
    def make(self, db, registry, where=None):
        return registry.register(
            AggregateView(
                "by_customer",
                "orders",
                group_by=["customer"],
                aggregates=[
                    AggSpec("SUM", col("amount"), "total"),
                    AggSpec("COUNT", None, "n"),
                    AggSpec("AVG", col("amount"), "mean"),
                    AggSpec("MIN", col("amount"), "lo"),
                    AggSpec("MAX", col("amount"), "hi"),
                ],
                where=where,
            )
        )

    def test_insert_updates_group(self, db, registry):
        view = self.make(db, registry)
        db.insert("orders", {"id": 1, "customer": "a", "amount": 10})
        db.insert("orders", {"id": 2, "customer": "a", "amount": 30})
        group = view.group("a")
        assert group["total"] == 40
        assert group["n"] == 2
        assert group["mean"] == 20
        assert group["lo"] == 10
        assert group["hi"] == 30

    def test_delete_extremum_recovers_next(self, db, registry):
        view = self.make(db, registry)
        for i, amount in enumerate((10, 30, 20)):
            db.insert("orders", {"id": i, "customer": "a", "amount": amount})
        db.delete("orders", col("amount") == 30)
        group = view.group("a")
        assert group["hi"] == 20
        assert group["lo"] == 10

    def test_group_disappears_when_empty(self, db, registry):
        view = self.make(db, registry)
        db.insert("orders", {"id": 1, "customer": "a", "amount": 10})
        db.delete("orders", col("id") == 1)
        assert view.group("a") is None
        assert len(view) == 0

    def test_null_values_ignored_by_aggs_but_counted_by_star(self, db, registry):
        view = self.make(db, registry)
        db.insert("orders", {"id": 1, "customer": "a", "amount": None})
        group = view.group("a")
        assert group["n"] == 1
        assert group["total"] is None
        assert group["lo"] is None

    def test_update_moves_between_groups(self, db, registry):
        view = self.make(db, registry)
        db.insert("orders", {"id": 1, "customer": "a", "amount": 10})
        db.update("orders", {"customer": "b"}, col("id") == 1)
        assert view.group("a") is None
        assert view.group("b")["total"] == 10

    def test_predicate_filtered(self, db, registry):
        view = self.make(db, registry, where=col("amount") >= 100)
        db.insert("orders", {"id": 1, "customer": "a", "amount": 10})
        assert len(view) == 0
        db.insert("orders", {"id": 2, "customer": "a", "amount": 100})
        assert view.group("a")["n"] == 1

    def test_matches_recompute(self, db, registry):
        view = self.make(db, registry)
        import random

        rng = random.Random(3)
        for i in range(50):
            db.insert(
                "orders",
                {
                    "id": i,
                    "customer": rng.choice("abc"),
                    "amount": rng.choice([None, 1, 5, 9]),
                },
            )
        db.delete("orders", col("amount") == 5)
        db.update("orders", {"amount": 7}, col("amount") == 9)
        incremental = sorted(
            (r["customer"], r["total"], r["n"], r["lo"], r["hi"])
            for r in view.rows()
        )
        view.recompute(db)
        recomputed = sorted(
            (r["customer"], r["total"], r["n"], r["lo"], r["hi"])
            for r in view.rows()
        )
        assert incremental == recomputed

    def test_delete_from_unknown_group_raises(self, db, registry):
        view = self.make(db, registry)
        with pytest.raises(ViewError):
            view.apply(Delta.deletions("orders", [{"customer": "ghost", "amount": 1}]))


class TestAggregateViewAgreesWithSql:
    """Each case once diverged: the view read, or raised, what a fresh
    GROUP BY does not.  A view over an ANY column must read what SQL and
    a recompute read, after every insert and delete."""

    def make(self, *specs):
        db = Database()
        db.create_table(
            "pts",
            [Column("id", INTEGER, nullable=False), Column("g", TEXT), Column("v", ANY)],
            primary_key="id",
        )
        registry = ViewRegistry(db)
        view = registry.register(AggregateView("by_g", "pts", ["g"], list(specs)))
        return db, registry, view

    def agrees(self, db, registry, view, select):
        shown = registry.rows("by_g")
        assert shown == db.query(f"SELECT g, {select} FROM pts GROUP BY g")
        view.recompute(db)
        assert view.rows() == shown
        return shown

    def test_distinct_folds_each_value_once(self):
        db, registry, view = self.make(
            AggSpec("COUNT", col("v"), "n", distinct=True),
            AggSpec("SUM", col("v"), "s", distinct=True),
            AggSpec("AVG", col("v"), "m", distinct=True),
        )
        select = "COUNT(DISTINCT v) AS n, SUM(DISTINCT v) AS s, AVG(DISTINCT v) AS m"
        db.insert_many("pts", [{"id": i, "g": "a", "v": 5} for i in range(3)])
        assert self.agrees(db, registry, view, select) == [
            {"g": "a", "n": 1, "s": 5, "m": 5.0}
        ]
        db.insert("pts", {"id": 3, "g": "a", "v": 7})
        db.delete("pts", col("id") == 0)  # two copies of 5 remain
        assert self.agrees(db, registry, view, select) == [
            {"g": "a", "n": 2, "s": 12, "m": 6.0}
        ]
        db.delete("pts", col("id") <= 2)  # the last copies of 5 leave
        assert self.agrees(db, registry, view, select) == [
            {"g": "a", "n": 1, "s": 7, "m": 7.0}
        ]

    def test_a_value_sum_cannot_fold_reads_null_and_never_raises(self):
        db, registry, view = self.make(
            AggSpec("COUNT", None, "c"),
            AggSpec("SUM", col("v"), "s"),
            AggSpec("AVG", col("v"), "m"),
        )
        db.insert("pts", {"id": 0, "g": "a", "v": 1})
        db.insert("pts", {"id": 1, "g": "a", "v": "x"})
        assert self.agrees(db, registry, view, "COUNT(*) AS c, SUM(v) AS s, AVG(v) AS m") == [
            {"g": "a", "c": 2, "s": None, "m": None}
        ]

    def test_deleting_the_poisoning_row_unpoisons_the_group(self):
        db, registry, view = self.make(
            AggSpec("COUNT", None, "c"),
            AggSpec("SUM", col("v"), "s"),
            AggSpec("AVG", col("v"), "m"),
        )
        select = "COUNT(*) AS c, SUM(v) AS s, AVG(v) AS m"
        db.insert_many(
            "pts",
            [{"id": 0, "g": "a", "v": 1}, {"id": 1, "g": "a", "v": "x"}, {"id": 2, "g": "a", "v": 2}],
        )
        assert self.agrees(db, registry, view, select)[0]["s"] is None
        db.delete("pts", col("id") == 1)
        assert self.agrees(db, registry, view, select) == [
            {"g": "a", "c": 2, "s": 3, "m": 1.5}
        ]

    def test_min_max_over_incomparable_values_read_null(self):
        db, registry, view = self.make(
            AggSpec("MIN", col("v"), "lo"), AggSpec("MAX", col("v"), "hi")
        )
        select = "MIN(v) AS lo, MAX(v) AS hi"
        db.insert("pts", {"id": 0, "g": "a", "v": 1})
        db.insert("pts", {"id": 1, "g": "a", "v": "x"})
        assert self.agrees(db, registry, view, select) == [{"g": "a", "lo": None, "hi": None}]
        db.delete("pts", col("id") == 1)
        assert self.agrees(db, registry, view, select) == [{"g": "a", "lo": 1, "hi": 1}]

    def test_unhashable_values_are_counted_by_equality(self):
        db, registry, view = self.make(
            AggSpec("COUNT", col("v"), "n", distinct=True),
            AggSpec("SUM", col("v"), "s", distinct=True),
            AggSpec("MIN", col("v"), "lo"),
            AggSpec("MAX", col("v"), "hi"),
        )
        select = "COUNT(DISTINCT v) AS n, SUM(DISTINCT v) AS s, MIN(v) AS lo, MAX(v) AS hi"
        values = [[1], [1], [2], 3]
        db.insert_many("pts", [{"id": i, "g": "a", "v": v} for i, v in enumerate(values)])
        assert self.agrees(db, registry, view, select) == [
            {"g": "a", "n": 3, "s": None, "lo": None, "hi": None}
        ]
        db.delete("pts", col("id") == 0)  # one copy of [1] remains
        db.delete("pts", col("id") == 3)
        assert self.agrees(db, registry, view, select) == [
            {"g": "a", "n": 2, "s": None, "lo": [1], "hi": [2]}
        ]
        db.delete("pts", col("id") == 1)
        assert self.agrees(db, registry, view, select) == [
            {"g": "a", "n": 1, "s": None, "lo": [2], "hi": [2]}
        ]


class TestRegistry:
    def test_duplicate_name_rejected(self, db, registry):
        registry.register(SelectProjectView("v", "orders"))
        with pytest.raises(ViewError):
            registry.register(SelectProjectView("v", "orders"))

    def test_unregister_stops_maintenance(self, db, registry):
        view = registry.register(SelectProjectView("v", "orders"))
        registry.unregister("v")
        db.insert("orders", {"id": 1, "customer": "a", "amount": 1})
        assert len(view) == 0
        with pytest.raises(ViewError):
            registry.view("v")

    def test_stats_track_work(self, db, registry):
        registry.register(SelectProjectView("v", "orders"))
        db.insert_many(
            "orders",
            [{"id": i, "customer": "a", "amount": i} for i in range(4)],
        )
        stats = registry.stats("v")
        assert stats.recomputes == 1  # initial population
        assert stats.deltas_applied == 1  # one statement
        assert stats.delta_rows == 4

    def test_rows_helper(self, db, registry):
        registry.register(SelectProjectView("v", "orders"))
        db.insert("orders", {"id": 1, "customer": "a", "amount": 1})
        assert len(registry.rows("v")) == 1

    def test_names(self, db, registry):
        registry.register(SelectProjectView("b", "orders"))
        registry.register(SelectProjectView("a", "orders"))
        assert registry.names() == ["a", "b"]


class TestRegistryPolicies:
    """Propagation policies on materialized views (Section V): each is
    the policy of the view's edge out of a base table."""

    def test_threshold_applies_one_combined_delta(self, db, registry):
        from repro.sync import Threshold

        view = registry.register(SelectProjectView("all", "orders"))
        (edge,) = registry.subscriptions["all"]
        edge.set_policy(Threshold(max_changes=100, max_delay_ms=None))
        for i in range(10):
            db.insert("orders", {"id": i + 1, "customer": "c", "amount": i})
        assert len(view) == 0  # buffered, not yet applied
        assert edge.pending_ops() == 10
        assert edge.flush() == 10
        assert len(view) == 10
        assert registry.stats("all").deltas_applied == 1  # ONE combined delta
        assert edge.flushes == 1

    def test_threshold_count_overflow_autoflushes(self, db, registry):
        from repro.sync import Threshold

        view = registry.register(SelectProjectView("all", "orders"))
        (edge,) = registry.subscriptions["all"]
        edge.set_policy(Threshold(max_changes=3, max_delay_ms=None))
        db.insert("orders", {"id": 1, "customer": "a", "amount": 1})
        db.insert("orders", {"id": 2, "customer": "b", "amount": 2})
        assert len(view) == 0
        db.insert("orders", {"id": 3, "customer": "c", "amount": 3})
        assert len(view) == 3  # third change crossed the threshold

    def test_insert_delete_coalesces_to_nothing(self, db, registry):
        from repro.sync import MANUAL

        view = registry.register(SelectProjectView("all", "orders"))
        (edge,) = registry.subscriptions["all"]
        edge.set_policy(MANUAL)
        db.insert("orders", {"id": 1, "customer": "a", "amount": 1})
        db.delete("orders", col("id") == 1)
        assert edge.flush() == 0
        assert len(view) == 0
        assert edge.coalesced_ops == 2

    def test_aggregate_view_batches_correctly(self, db, registry):
        from repro.sync import MANUAL

        view = registry.register(
            AggregateView(
                "by_customer",
                "orders",
                group_by=["customer"],
                aggregates=[AggSpec("SUM", col("amount"), "total")],
            )
        )
        for edge in registry.subscriptions["by_customer"]:
            edge.set_policy(MANUAL)
        for i in range(4):
            db.insert("orders", {"id": i + 1, "customer": "a", "amount": 10})
        db.insert("orders", {"id": 9, "customer": "b", "amount": 7})
        assert sum(edge.flush() for edge in registry.subscriptions["by_customer"]) == 5
        totals = {r["customer"]: r["total"] for r in view.rows()}
        assert totals == {"a": 40, "b": 7}

    def test_unregister_drops_buffered_deltas(self, db, registry):
        """Unregistering closes the view's edges: nothing stays buffered
        for a consumer that is gone, and later changes reach no one."""
        from repro.sync import MANUAL

        view = registry.register(SelectProjectView("all", "orders"))
        (edge,) = registry.subscriptions["all"]
        edge.set_policy(MANUAL)
        db.insert("orders", {"id": 1, "customer": "a", "amount": 1})
        registry.unregister("all")
        assert edge.pending_ops() == 0 and edge.flush() == 0
        assert db.subscriptions("orders") == [] and "all" not in registry.subscriptions
        db.insert("orders", {"id": 2, "customer": "b", "amount": 2})
        assert len(view) == 1  # what was buffered at the close, and no more
