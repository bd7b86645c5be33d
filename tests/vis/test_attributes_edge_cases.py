"""VisualAttributesStore.select/remove edge cases: unknown and duplicate
obj_ids, plus the selected_ids helper brushing builds on."""

from repro.db import Database
from repro.vis.attributes import VisualAttributesStore, VisualItem


def make_store(n=4, component_id=1):
    store = VisualAttributesStore(Database("vis"))
    store.write(component_id, [VisualItem(obj_id=i, x=float(i)) for i in range(n)])
    return store


class TestSelectEdgeCases:
    def test_unknown_ids_do_not_match(self):
        store = make_store()
        assert store.select(1, [99, 100]) == 0
        assert store.selected_ids(1) == []

    def test_mixed_known_and_unknown(self):
        store = make_store()
        assert store.select(1, [0, 99, 2]) == 2
        assert store.selected_ids(1) == [0, 2]

    def test_duplicate_ids_count_once(self):
        store = make_store()
        assert store.select(1, [3, 3, 3]) == 1
        assert store.selected_ids(1) == [3]

    def test_wrong_component_does_not_match(self):
        store = make_store()
        assert store.select(2, [0, 1]) == 0
        assert store.selected_ids(1) == []

    def test_deselect(self):
        store = make_store()
        store.select(1, [0, 1, 2])
        assert store.select(1, [1, 1, 99], selected=False) == 1
        assert store.selected_ids(1) == [0, 2]


class TestRemoveEdgeCases:
    def test_unknown_ids_remove_nothing(self):
        store = make_store()
        assert store.remove(1, [42]) == 0
        assert len(store.read(1)) == 4

    def test_duplicate_ids_remove_once(self):
        store = make_store()
        assert store.remove(1, [2, 2]) == 1
        assert [i.obj_id for i in store.read(1)] == [0, 1, 3]
        # Removing again is a no-op, and the cache stays consistent.
        assert store.remove(1, [2]) == 0
        assert store.get(1, 2) is None

    def test_remove_then_rewrite_same_id(self):
        store = make_store()
        store.remove(1, [1])
        store.write(1, [VisualItem(obj_id=1, x=42.0)])
        assert store.get(1, 1).x == 42.0


class TestWriteDuplicateObjId:
    """One ``obj_id`` twice in one batch is one row: the last item wins."""

    def test_new_key_twice_inserts_one_row(self):
        store = VisualAttributesStore(Database("vis"))
        written = store.write(1, [VisualItem(5, x=1.0), VisualItem(5, x=2.0)])
        assert written == 1
        assert [(i.obj_id, i.x) for i in store.read(1)] == [(5, 2.0)]
        # Later writes reach that one row.
        store.write(1, [VisualItem(5, x=3.0)])
        assert [(i.obj_id, i.x) for i in store.read(1)] == [(5, 3.0)]

    def test_existing_key_twice_updates_once(self):
        store = make_store()
        statements = []
        store.database.on(store.table_name, ("update",), statements.append)
        store.write(1, [VisualItem(2, x=7.0), VisualItem(9, x=1.0), VisualItem(2, x=8.0)])
        assert len(statements) == 1
        assert store.get(1, 2).x == 8.0
        assert sorted(i.obj_id for i in store.read(1)) == [0, 1, 2, 3, 9]

    def test_write_positions_keeps_one_row_per_key(self):
        store = make_store()
        # 1 and 1.0 are one dict key, hence one obj_id.
        assert store.write_positions(1, {1: (5.0, 5.0), 7: (1.0, 1.0), 1.0: (6.0, 6.0)}) == 2
        assert len(store.read(1)) == 5
        assert (store.get(1, 1).x, store.get(1, 7).x) == (6.0, 1.0)
