"""Materialized views under incremental maintenance."""

import pytest

from repro.db import AggSpec, Column, Database, col
from repro.db.types import INTEGER, TEXT
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
