"""The display list against a reference dict of visual items.

A :class:`Display` holds the row images it is given and builds a
``VisualItem`` only when an item is read.  Random sequences of its edits
must leave it showing what a plain ``obj_id -> VisualItem.from_row(row)``
dict shows, last write wins, with the same counters and the same SVG.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import datamodel
from repro.db import Database
from repro.vis import Display, VisualAttributesStore, VisualItem

OBJ_IDS = st.sampled_from([0, 1, 2, 3, "a", "b"])
COORDS = st.one_of(st.none(), st.floats(-100, 100, allow_nan=False))
SIZES = st.one_of(st.none(), st.floats(0, 20, allow_nan=False))
ROWS = st.fixed_dictionaries(
    {
        "obj_id": OBJ_IDS,
        "x": COORDS,
        "y": COORDS,
        "width": SIZES,
        "height": SIZES,
        "color": st.sampled_from([None, "#111111", "#4e79a7"]),
        "label": st.sampled_from([None, "", "n", "<a&b>"]),
        "selected": st.sampled_from([None, False, True]),
    }
)
ITEMS = ROWS.map(VisualItem.from_row)


class Reference:
    """What a display must show: a dict of items and its counters."""

    def __init__(self):
        self.items = {}
        self.inserted = self.updated = self.removed = 0

    def fold(self, items):
        for item in items:
            if item.obj_id in self.items:
                self.updated += 1
            else:
                self.inserted += 1
            self.items[item.obj_id] = item

    def remove(self, obj_ids):
        for obj_id in obj_ids:
            if self.items.pop(obj_id, None) is not None:
                self.removed += 1


def rendered(items):
    """The SVG of a fresh display holding ``items`` in order."""
    display = Display(width=100, height=80)
    display.apply_items(items)
    return display.render_svg()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_display_agrees_with_a_dict_of_items(data):
    display = Display(width=100, height=80)
    reference = Reference()
    ops = ["apply_rows", "apply_items", "remove_objects", "clear", "apply_snapshot"]
    for _ in range(data.draw(st.integers(1, 12), label="steps")):
        op = data.draw(st.sampled_from(ops))
        if op == "apply_rows":
            rows = data.draw(st.lists(ROWS, max_size=8))
            assert display.apply_rows(rows) == len(rows)
            reference.fold(map(VisualItem.from_row, rows))
        elif op == "apply_items":
            items = data.draw(st.lists(ITEMS, max_size=8))
            assert display.apply_items(items) == len(items)
            reference.fold(items)
        elif op == "remove_objects":
            obj_ids = data.draw(st.lists(OBJ_IDS, max_size=4))
            display.remove_objects(obj_ids)
            reference.remove(obj_ids)
        elif op == "clear":
            display.clear()
            reference.items.clear()
        else:
            rows = data.draw(st.lists(ROWS, max_size=8))
            # A generator, as view bindings pass it.
            assert display.apply_snapshot(row for row in rows) == len(rows)
            reference.items.clear()
            reference.fold(map(VisualItem.from_row, rows))

        assert dict(display.items) == reference.items
        assert list(display.items) == list(reference.items)
        assert len(display) == len(display.items) == len(reference.items)
        counts = (display.inserted, display.updated, display.removed)
        assert counts == (reference.inserted, reference.updated, reference.removed)
        assert display.render_svg() == rendered(list(reference.items.values()))


def test_the_display_holds_a_snapshot_of_each_row():
    """A later UPDATE of the base row copies it (readers share images), so
    the display shows the old values until the row is applied again."""
    db = Database()
    store = VisualAttributesStore(db)
    store.write(1, [VisualItem(obj_id="a", x=1.0, y=2.0, label="first")])
    table = db.table(datamodel.T_VISUAL_ATTRIBUTES)
    display = Display()
    display.apply_rows(list(table.rows()))
    store.write(1, [VisualItem(obj_id="a", x=5.0, y=6.0, label="second")])
    assert (display.items["a"].x, display.items["a"].label) == (1.0, "first")
    display.apply_rows(list(table.rows()))
    assert (display.items["a"].x, display.items["a"].label) == (5.0, "second")
    assert (display.inserted, display.updated) == (1, 1)


def row(obj_id, x=0.0):
    return {
        "obj_id": obj_id, "x": x, "y": 0.0, "width": None, "height": None,
        "color": None, "label": None, "selected": False,
    }


@pytest.mark.parametrize("bad", [{"x": 1.0}, row([1, 2])], ids=["no-obj_id", "unhashable"])
def test_a_failing_row_raises_and_the_counts_cover_what_was_folded(bad):
    display = Display()
    display.apply_rows([row(1)])
    with pytest.raises((KeyError, TypeError)):
        display.apply_rows([row(2), row(1, x=9.0), bad, row(3)])
    # Row 2 inserted and row 1 updated before the failure; row 3 never came.
    assert (display.inserted, display.updated, len(display)) == (2, 1, 2)
    assert display.items[1].x == 9.0 and 3 not in display.items
