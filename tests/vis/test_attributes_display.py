"""VisualAttributes store, components, displays, scatter, multi-view."""

import threading

import pytest

from repro.core import datamodel
from repro.db import ANY, INTEGER, Column, Database, open_durable, recover
from repro.errors import ConstraintViolation, VisError
from repro.vis import (
    Display,
    ScatterPlot,
    ViewManager,
    VisualAttributesStore,
    VisualItem,
    VisualizationManager,
)


@pytest.fixture
def db():
    return Database()


@pytest.fixture
def store(db):
    return VisualAttributesStore(db)


class TestVisualAttributesStore:
    def test_write_inserts_then_updates(self, db, store):
        items = [VisualItem(obj_id="a", x=1.0, y=2.0, color="#111111")]
        store.write(1, items)
        rows = db.query(f"SELECT * FROM {datamodel.T_VISUAL_ATTRIBUTES}")
        assert len(rows) == 1
        assert rows[0]["x"] == 1.0
        store.write(1, [VisualItem(obj_id="a", x=9.0, y=2.0)])
        rows = db.query(f"SELECT * FROM {datamodel.T_VISUAL_ATTRIBUTES}")
        assert len(rows) == 1  # updated, not duplicated
        assert rows[0]["x"] == 9.0

    def test_batch_insert_is_one_statement(self, db, store):
        fired = []
        db.on(
            datamodel.T_VISUAL_ATTRIBUTES,
            "insert",
            lambda ch: fired.append(len(ch.inserted)),
        )
        store.write(1, [VisualItem(obj_id=i, x=0.0, y=0.0) for i in range(10)])
        assert fired == [10]

    def test_components_isolated(self, db, store):
        store.write(1, [VisualItem(obj_id="a", x=1.0)])
        store.write(2, [VisualItem(obj_id="a", x=2.0)])
        assert store.get(1, "a").x == 1.0
        assert store.get(2, "a").x == 2.0
        assert store.get(3, "a") is None

    def test_get_reads_through_the_key_index_without_a_scan(self, db, store, monkeypatch):
        placed = {"a": 1.0, "b": 3.0, "c": 4.0}
        store.write(1, [VisualItem(obj_id=obj_id, x=x) for obj_id, x in placed.items()])
        store.write(2, [VisualItem(obj_id="a", x=2.0)])
        store.remove(1, ["c"])
        for component in (1, 2, 3):
            store.get(component, "a")
        table = type(db.table(datamodel.T_VISUAL_ATTRIBUTES))
        scans = []
        scan = table.scan
        monkeypatch.setattr(table, "scan", lambda self: scans.append(1) or scan(self))
        assert store.get(1, "a").x == 1.0
        assert store.get(1, "b").x == 3.0
        assert store.get(2, "a").x == 2.0
        assert store.get(2, "b") is None
        assert store.get(3, "a") is None
        assert store.get(1, "c") is None
        assert scans == []

    def test_write_positions_fast_path(self, db, store):
        store.write(1, [VisualItem(obj_id="a", x=0.0, y=0.0, color="#abcdef")])
        store.write_positions(1, {"a": (5.0, 6.0), "b": (7.0, 8.0)})
        a = store.get(1, "a")
        assert (a.x, a.y) == (5.0, 6.0)
        assert a.color == "#abcdef"  # untouched by the fast path
        assert store.get(1, "b") is not None

    def test_selection_flip(self, db, store):
        store.write(1, [VisualItem(obj_id=i) for i in range(3)])
        assert store.select(1, [0, 2]) == 2
        selected = [i.obj_id for i in store.read(1) if i.selected]
        assert sorted(selected) == [0, 2]
        store.select(1, [0], selected=False)
        selected = [i.obj_id for i in store.read(1) if i.selected]
        assert selected == [2]

    def test_remove_and_clear(self, db, store):
        store.write(1, [VisualItem(obj_id=i) for i in range(4)])
        assert store.remove(1, [0, 1]) == 2
        assert len(store.read(1)) == 2
        assert store.clear(1) == 2
        assert store.read(1) == []

    def test_rolled_back_remove_keeps_the_items(self, db, store):
        store.write(1, [VisualItem(obj_id="a", x=1.0), VisualItem(obj_id="b", x=2.0)])
        assert store.get(1, "a").x == 1.0
        with pytest.raises(RuntimeError):
            with db.transaction():
                store.remove(1, ["a"])
                raise RuntimeError("abort")
        assert store.get(1, "a").x == 1.0
        assert store.get(1, "b").x == 2.0
        store.write(1, [VisualItem(obj_id="a", x=5.0)])
        rows = db.query(f"SELECT * FROM {datamodel.T_VISUAL_ATTRIBUTES}")
        assert sorted((row["obj_id"], row["x"]) for row in rows) == [("a", 5.0), ("b", 2.0)]

    @pytest.mark.parametrize("call", ["write", "write_positions", "select"])
    def test_a_rolled_back_write_leaves_no_trusted_cache_entry(self, db, store, call):
        store.write(1, [VisualItem(obj_id="b", x=0.0)])
        with pytest.raises(RuntimeError):
            with db.transaction():
                store.write(1, [VisualItem(obj_id="a", x=1.0)])
                raise RuntimeError("abort")
        # The store's own block exited with "a" written; the enclosing
        # transaction took the row back.
        assert store.get(1, "a") is None
        if call == "write":
            store.write(1, [VisualItem(obj_id="a", x=2.0)])
        elif call == "write_positions":
            store.write_positions(1, {"a": (2.0, 0.0)})
        else:
            assert store.select(1, ["a", "b"]) == 1
            store.write(1, [VisualItem(obj_id="a", x=2.0)])
        assert store.get(1, "a").x == 2.0
        assert [item.obj_id for item in store.read(1)] == ["b", "a"]
        rows = db.query(f"SELECT * FROM {datamodel.T_VISUAL_ATTRIBUTES}")
        assert sorted((row["obj_id"], row["x"]) for row in rows) == [("a", 2.0), ("b", 0.0)]

    def test_one_components_reads_scan_nothing(self, db, store, monkeypatch):
        store.write(1, [VisualItem(obj_id=i, x=float(i)) for i in range(5)])
        store.write(2, [VisualItem(obj_id=i) for i in range(3)])
        store.select(1, [3, 1])
        store.remove(1, [2])
        for component in (1, 2, 3):
            store.read(component)
        table = type(db.table(datamodel.T_VISUAL_ATTRIBUTES))
        scans = []
        scan = table.scan
        monkeypatch.setattr(table, "scan", lambda self: scans.append(1) or scan(self))
        assert [(i.obj_id, i.x) for i in store.read(1)] == [
            (0, 0.0), (1, 1.0), (3, 3.0), (4, 4.0)
        ]
        assert store.selected_ids(1) == [1, 3]
        assert [i.obj_id for i in store.read(2)] == [0, 1, 2]
        assert store.selected_ids(2) == []
        assert store.read(3) == [] and store.selected_ids(3) == []
        assert scans == []

    def test_empty_write(self, store):
        assert store.write(1, []) == 0

    def test_two_stores_see_each_others_items_and_duplicate_none(self, db):
        a, b = VisualAttributesStore(db), VisualAttributesStore(db)
        a.write(1, [VisualItem(obj_id="x", x=1.0)])
        b.write(1, [VisualItem(obj_id="y", x=2.0)])
        assert [item.obj_id for item in a.read(1)] == ["x", "y"]
        a.write(1, [VisualItem(obj_id="y", x=3.0)])
        b.write_positions(1, {"x": (4.0, 0.0), "z": (5.0, 0.0)})
        a.write_positions(1, {"z": (6.0, 0.0)})
        assert b.select(1, ["x", "y", "z"]) == 3
        assert a.select(1, ["z"], selected=False) == 1
        want = [("x", 4.0, True), ("y", 3.0, True), ("z", 6.0, False)]
        rows = db.query(f"SELECT obj_id, x, selected FROM {datamodel.T_VISUAL_ATTRIBUTES}")
        assert sorted((r["obj_id"], r["x"], r["selected"]) for r in rows) == want
        for one in (a, b):
            assert [(i.obj_id, i.x, i.selected) for i in one.read(1)] == want
            assert one.selected_ids(1) == ["x", "y"]
            assert one.get(1, "y").x == 3.0

    def test_two_writer_threads_of_one_batch_leave_one_row_per_item(self, db):
        stores = [VisualAttributesStore(db), VisualAttributesStore(db)]
        errors = []

        def run(store, x):
            try:
                for _ in range(100):
                    store.write(1, [VisualItem(obj_id=i, x=x) for i in range(20)])
            except Exception as exc:  # reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(store, float(n)))
            for n, store in enumerate(stores)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(db.table(datamodel.T_VISUAL_ATTRIBUTES)) == 20
        assert [item.obj_id for item in stores[0].read(1)] == list(range(20))

    def test_a_duplicate_item_through_sql_is_refused(self, db, store):
        store.write(1, [VisualItem(obj_id="a", x=1.0)])
        insert = f"INSERT INTO {datamodel.T_VISUAL_ATTRIBUTES} (component_id, obj_id, x) VALUES (?, ?, ?)"
        with pytest.raises(ConstraintViolation):
            db.execute(insert, (1, "a", 2.0))
        db.execute(insert, (2, "a", 2.0))  # another component's item
        assert [(i.obj_id, i.x) for i in store.read(1)] == [("a", 1.0)]
        assert store.get(2, "a").x == 2.0

    def test_a_store_over_a_recovered_database_updates_its_items(self, tmp_path):
        db, manager = open_durable(tmp_path / "db")
        VisualAttributesStore(db).write(1, [VisualItem(obj_id=i, x=0.0) for i in range(3)])
        manager.close()  # the process ends here; the directory is what is left
        recovered = recover(tmp_path / "db")
        store = VisualAttributesStore(recovered)
        fired = []
        recovered.on(datamodel.T_VISUAL_ATTRIBUTES, "insert", fired.append)
        assert store.write(1, [VisualItem(obj_id=i, x=1.0) for i in range(3)]) == 3
        assert fired == []
        assert [(i.obj_id, i.x) for i in store.read(1)] == [(0, 1.0), (1, 1.0), (2, 1.0)]
        assert len(recovered.table(datamodel.T_VISUAL_ATTRIBUTES)) == 3

    @pytest.mark.parametrize("key", ["id", None])
    def test_an_older_table_shape_is_refused(self, key):
        """With the surrogate ``id`` (and its key), or with no key at all."""
        db = Database()
        columns = [Column("component_id", INTEGER, nullable=False), Column("obj_id", ANY)]
        if key:
            columns.insert(0, Column("id", INTEGER, nullable=False))
        db.create_table(datamodel.T_VISUAL_ATTRIBUTES, columns, primary_key=key)
        with pytest.raises(VisError, match="older version"):
            VisualAttributesStore(db)


class TestVisualizationManager:
    def test_create_and_lookup(self, db):
        manager = VisualizationManager(db)
        vis = manager.create_visualization("history")
        comp = manager.create_component(vis, "scatter", label="by year")
        components = manager.components_of(vis)
        assert components[0]["id"] == comp
        assert components[0]["type"] == "scatter"
        assert manager.visualization_named("history") == vis
        assert manager.visualization_named("ghost") is None

    def test_component_needs_visualization(self, db):
        manager = VisualizationManager(db)
        with pytest.raises(VisError):
            manager.create_component(999, "scatter")

    def test_selected_objects_query(self, db):
        manager = VisualizationManager(db)
        vis = manager.create_visualization("v")
        comp = manager.create_component(vis, "scatter")
        manager.write_items(comp, [VisualItem(obj_id="a"), VisualItem(obj_id="b")])
        manager.attributes.select(comp, ["b"])
        assert manager.selected_objects(comp) == ["b"]
        assert manager.selected_objects(comp) == manager.attributes.selected_ids(comp)


class TestDisplay:
    def test_apply_rows_counts(self):
        display = Display()
        rows = [
            {"obj_id": 1, "x": 0.0, "y": 0.0, "width": None, "height": None,
             "color": None, "label": None, "selected": False},
        ]
        display.apply_rows(rows)
        assert display.inserted == 1
        display.apply_rows(rows)
        assert display.updated == 1
        assert len(display) == 1

    def test_null_selected_displays_as_false(self):
        display = Display()
        display.apply_rows(
            [{"obj_id": 1, "x": 1.0, "y": 2.0, "width": None, "height": None,
              "color": "#111111", "label": "n", "selected": None}]
        )
        assert display.items[1] == VisualItem(1, 1.0, 2.0, None, None, "#111111", "n", False)
        assert display.items[1].selected is False

    def test_reapplied_batch_counts_as_updates(self):
        display = Display()
        rows = [
            {"obj_id": i, "x": float(i), "y": 0.0, "width": None, "height": None,
             "color": None, "label": None, "selected": False}
            for i in (1, 2, 3, 2)
        ]
        # The second obj_id 2 of the batch is already shown: an update.
        assert display.apply_rows(rows) == 4
        assert (display.inserted, display.updated, len(display)) == (3, 1, 3)
        assert display.apply_rows(rows[:3]) == 3
        assert (display.inserted, display.updated, len(display)) == (3, 4, 3)

    def test_visual_item_is_slotted(self):
        item = VisualItem(obj_id=1)
        assert "__slots__" in vars(VisualItem)
        assert not hasattr(item, "__dict__")
        with pytest.raises(AttributeError):
            item.extra = 1

    def test_remove(self):
        display = Display()
        display.apply_items([VisualItem(obj_id=1), VisualItem(obj_id=2)])
        assert display.remove_objects([1, 99]) == 1
        assert display.removed == 1

    def test_refresh_counter(self):
        display = Display()
        assert display.refresh() == 1
        assert display.refresh() == 2

    def test_bounds(self):
        display = Display()
        display.apply_items(
            [VisualItem(obj_id=1, x=-5.0, y=2.0), VisualItem(obj_id=2, x=5.0, y=8.0)]
        )
        assert display.bounds() == (-5.0, 2.0, 5.0, 8.0)
        assert Display().bounds() == (0.0, 0.0, 1.0, 1.0)

    def test_render_svg(self):
        display = Display(width=100, height=100)
        display.apply_items(
            [
                VisualItem(obj_id=1, x=0.0, y=0.0, color="#ff0000", label="<a&b>"),
                VisualItem(obj_id=2, x=1.0, y=1.0, width=10.0, height=5.0),
            ]
        )
        svg = display.render_svg()
        assert svg.startswith("<svg")
        assert "circle" in svg
        assert "rect" in svg
        assert "&lt;a&amp;b&gt;" in svg  # escaped


class TestScatterPlot:
    ROWS = [
        {"id": 1, "year": 2005, "pubs": 3, "team": "a"},
        {"id": 2, "year": 2010, "pubs": 9, "team": "b"},
        {"id": 3, "year": 2007, "pubs": None, "team": "a"},
    ]

    def test_positions_follow_scales(self):
        plot = ScatterPlot(x="year", y="pubs", key="id", width=100, height=100)
        items = {i.obj_id: i for i in plot.compute(self.ROWS)}
        assert items[1].x == 0.0  # min year at left
        assert items[2].x == 100.0
        # Higher pubs -> smaller y (screen coordinates).
        assert items[2].y < items[1].y
        assert 3 not in items  # null y dropped

    def test_categorical_colors(self):
        plot = ScatterPlot(x="year", y="pubs", key="id", color_by="team")
        items = plot.compute(self.ROWS)
        colors = {i.obj_id: i.color for i in items}
        assert colors[1] != colors[2]

    def test_sequential_colors(self):
        plot = ScatterPlot(
            x="year", y="pubs", key="id", color_by="pubs", color_scale="sequential"
        )
        items = plot.compute(self.ROWS[:2])
        assert all(i.color.startswith("#") for i in items)

    def test_size_scale(self):
        plot = ScatterPlot(x="year", y="pubs", key="id", size="pubs")
        items = {i.obj_id: i for i in plot.compute(self.ROWS[:2])}
        assert items[2].width > items[1].width

    def test_empty_rows(self):
        plot = ScatterPlot(x="year", y="pubs", key="id")
        assert plot.compute([]) == []

    def test_bad_color_scale(self):
        with pytest.raises(VisError):
            ScatterPlot(x="a", y="b", key="id", color_scale="rainbow")


class TestViewManager:
    def test_compute_once_fan_out(self, db):
        manager = ViewManager(db)
        vis = manager.visualizations.create_visualization("shared")
        comp = manager.visualizations.create_component(vis, "scatter")
        manager.publish(comp, [VisualItem(obj_id=i, x=float(i), y=0.0) for i in range(10)])
        wall = manager.add_view("wall", comp)
        phone = manager.add_view("phone", comp, fraction=0.4)
        assert len(wall.display) == 10
        assert len(phone.display) < 10

    def test_update_propagates_to_all_views(self, db):
        manager = ViewManager(db)
        vis = manager.visualizations.create_visualization("shared")
        comp = manager.visualizations.create_component(vis, "scatter")
        manager.publish(comp, [VisualItem(obj_id=1, x=0.0, y=0.0)])
        view_a = manager.add_view("a", comp)
        view_b = manager.add_view("b", comp)
        manager.publish_positions(comp, {1: (9.0, 9.0), 2: (1.0, 1.0)})
        applied = manager.refresh_all()
        assert applied == {"a": 2, "b": 2}
        assert view_a.display.items[1].x == 9.0
        assert view_b.display.items[2].x == 1.0

    def test_views_filtered_by_component(self, db):
        manager = ViewManager(db)
        vis = manager.visualizations.create_visualization("shared")
        comp1 = manager.visualizations.create_component(vis, "scatter")
        comp2 = manager.visualizations.create_component(vis, "map")
        manager.publish(comp1, [VisualItem(obj_id=1)])
        manager.publish(comp2, [VisualItem(obj_id=2)])
        view = manager.add_view("only1", comp1)
        assert list(view.display.items) == [1]

    def test_close(self, db):
        manager = ViewManager(db)
        vis = manager.visualizations.create_visualization("shared")
        comp = manager.visualizations.create_component(vis, "scatter")
        manager.add_view("v", comp)
        manager.close()
        assert manager.views == []


class TestDisplayTransactions:
    def test_transaction_commits_one_frame(self):
        display = Display()
        with display.transaction():
            display.apply_items([VisualItem(obj_id=i) for i in range(10)])
            for _ in range(10):
                display.refresh()  # each batch item asks for a redraw
        assert display.refreshes == 1
        assert display.transactions == 1

    def test_transaction_without_refresh_request_skips_frame(self):
        display = Display()
        with display.transaction():
            display.apply_items([VisualItem(obj_id=1)])
        assert display.refreshes == 0
        assert display.transactions == 1

    def test_nested_transactions_commit_once(self):
        display = Display()
        with display.transaction():
            with display.transaction():
                display.refresh()
            display.refresh()
        assert display.refreshes == 1
        assert display.transactions == 1

    def test_refresh_outside_transaction_unchanged(self):
        display = Display()
        assert display.refresh() == 1
        assert display.refresh() == 2

    def test_apply_snapshot_replaces_in_one_frame(self):
        display = Display()
        display.apply_items([VisualItem(obj_id="stale")])
        rows = [
            {"obj_id": i, "x": float(i), "y": 0.0, "width": None, "height": None,
             "color": None, "label": None, "selected": False}
            for i in range(5)
        ]
        assert display.apply_snapshot(rows) == 5
        assert display.refreshes == 1
        assert "stale" not in display.items
        assert len(display) == 5
