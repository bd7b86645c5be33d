"""Delta construction and row identity."""

from repro.db.table import ChangeSet
from repro.ivm import Delta, row_key


class TestFromChangeset:
    def test_updates_split_into_delete_insert(self):
        change = ChangeSet(
            "t",
            inserted=[{"a": 1}],
            updated=[({"a": 2}, {"a": 3})],
            deleted=[{"a": 4}],
        )
        delta = Delta.from_changeset(change)
        assert delta.inserted == [{"a": 1}, {"a": 3}]
        assert delta.deleted == [{"a": 4}, {"a": 2}]

    def test_length(self):
        delta = Delta("t", inserted=[{"a": 1}], deleted=[{"a": 2}, {"a": 3}])
        assert len(delta) == 3

    def test_emptiness(self):
        assert Delta("t").is_empty()
        assert not Delta("t", inserted=[{}]).is_empty()

    def test_constructors(self):
        ins = Delta.insertions("t", [{"a": 1}])
        assert ins.inserted and not ins.deleted
        dels = Delta.deletions("t", [{"a": 1}])
        assert dels.deleted and not dels.inserted


class TestRowKey:
    def test_ignores_hidden_fields(self):
        assert row_key({"a": 1, "__tid__": 5}) == row_key({"a": 1, "__tid__": 9})

    def test_distinguishes_values(self):
        assert row_key({"a": 1}) != row_key({"a": 2})

    def test_order_insensitive(self):
        assert row_key({"a": 1, "b": 2}) == row_key({"b": 2, "a": 1})
