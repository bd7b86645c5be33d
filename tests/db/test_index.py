"""Hash and sorted index behavior."""

import pytest

from repro.db.index import HashIndex, SortedIndex
from repro.errors import ConstraintViolation


class TestHashIndex:
    def test_add_lookup_remove(self):
        idx = HashIndex("t", ("k",))
        idx.add(1, {"k": "a"})
        idx.add(2, {"k": "a"})
        assert idx.lookup("a") == {1, 2}
        idx.remove(1, {"k": "a"})
        assert idx.lookup("a") == {2}

    def test_lookup_missing_is_empty(self):
        idx = HashIndex("t", ("k",))
        assert idx.lookup("nope") == frozenset()

    def test_unique_rejects_duplicates(self):
        idx = HashIndex("t", ("k",), unique=True)
        idx.add(1, {"k": "a"})
        with pytest.raises(ConstraintViolation):
            idx.add(2, {"k": "a"})

    def test_unique_allows_nulls(self):
        idx = HashIndex("t", ("k",), unique=True)
        idx.add(1, {"k": None})
        idx.add(2, {"k": None})  # NULLs never collide
        assert len(idx) == 2

    def test_composite_keys(self):
        idx = HashIndex("t", ("a", "b"))
        idx.add(1, {"a": 1, "b": 2})
        assert idx.lookup_tuple((1, 2)) == {1}
        assert idx.lookup_tuple((2, 1)) == frozenset()

    def test_composite_unique_null_component(self):
        idx = HashIndex("t", ("a", "b"), unique=True)
        idx.add(1, {"a": 1, "b": None})
        idx.add(2, {"a": 1, "b": None})  # NULL component disables check
        assert len(idx) == 2

    def test_single_column_lookup_on_composite_raises(self):
        idx = HashIndex("t", ("a", "b"))
        with pytest.raises(ValueError):
            idx.lookup(1)

    def test_check_insert_does_not_add(self):
        idx = HashIndex("t", ("k",), unique=True)
        idx.check_insert({"k": "a"})
        assert len(idx) == 0


class TestSortedIndex:
    def make(self):
        idx = SortedIndex("t", "ts")
        for tid, ts in [(1, 10), (2, 30), (3, 20), (4, 20)]:
            idx.add(tid, {"ts": ts})
        return idx

    def test_full_range(self):
        assert sorted(self.make().range()) == [1, 2, 3, 4]

    def test_bounded_range(self):
        idx = self.make()
        assert set(idx.range(15, 25)) == {3, 4}

    def test_exclusive_bounds(self):
        idx = self.make()
        assert set(idx.range(20, 30, include_low=False)) == {2}
        assert set(idx.range(10, 20, include_high=False)) == {1}

    def test_remove(self):
        idx = self.make()
        idx.remove(3, {"ts": 20})
        assert set(idx.range(20, 20)) == {4}

    def test_nulls_not_indexed(self):
        idx = SortedIndex("t", "ts")
        idx.add(1, {"ts": None})
        assert len(idx) == 0
        idx.remove(1, {"ts": None})  # no-op, no error

    def test_min_max(self):
        idx = self.make()
        assert idx.min_key() == 10
        assert idx.max_key() == 30
        empty = SortedIndex("t", "ts")
        assert empty.min_key() is None
        assert empty.max_key() is None

    def test_slice_and_count_agree_with_range(self):
        idx = self.make()
        assert idx.slice(15, 30, include_high=False) == [(20, 3), (20, 4)]
        assert idx.count_range(15, 30, include_high=False) == 2
        assert idx.slice(40, 5) == [] and idx.count_range(40, 5) == 0

    def test_both_kinds_name_their_columns(self):
        assert SortedIndex("t", "ts").columns == ("ts",)
        assert HashIndex("t", ("a", "b")).columns == ("a", "b")


class TestStatementAtATime:
    """``add_many`` / ``remove_many`` / ``first_violation`` against a loop
    of the per-row calls."""

    ROWS = [{"k": 5}, {"k": None}, {"k": 7}, {"k": 6}, {"k": None}]

    def twins(self, make):
        one, many = make(), make()
        for tid, row in enumerate(self.ROWS, start=1):
            one.add(tid, row)
        many.add_many(range(1, len(self.ROWS) + 1), self.ROWS)
        return one, many

    def test_hash_add_and_remove_many(self):
        one, many = self.twins(lambda: HashIndex("t", ("k",), unique=True))
        assert many._buckets == one._buckets
        for index in (one, many):
            assert index.lookup(None) == {2, 5}
        many.remove_many([1, 2, 4], [self.ROWS[0], self.ROWS[1], self.ROWS[3]])
        for tid in (1, 2, 4):
            one.remove(tid, self.ROWS[tid - 1])
        assert many._buckets == one._buckets

    @pytest.mark.parametrize(
        "existing",
        [[], [(1, 100)], [(9, 100)], [(5.5, 100), (9, 101)], [(6.5, 100)]],
        ids=["empty", "append", "prepend", "one-gap", "interleaved"],
    )
    def test_sorted_add_and_remove_many(self, existing):
        def make():
            index = SortedIndex("t", "k")
            for key, tid in existing:
                index.add(tid, {"k": key})
            return index

        one, many = self.twins(make)
        assert many._entries == one._entries
        many.remove_many(range(1, len(self.ROWS) + 1), self.ROWS)
        assert many._entries == sorted(existing)

    def test_first_violation_is_the_first_row_in_statement_order(self):
        idx = HashIndex("t", ("k",), unique=True)
        idx.add(1, {"k": "a"})
        assert idx.first_violation([{"k": "b"}, {"k": None}, {"k": None}]) is None
        position, error = idx.first_violation([{"k": "b"}, {"k": "c"}, {"k": "b"}, {"k": "a"}])
        assert position == 2 and "key 'b'" in str(error)
        position, error = idx.first_violation([{"k": "c"}, {"k": "a"}, {"k": "c"}])
        assert position == 1 and isinstance(error, ConstraintViolation)
        assert len(idx) == 1  # nothing was added

    def test_first_violation_composite_null_parts_never_collide(self):
        idx = HashIndex("t", ("a", "b"), unique=True)
        idx.add(1, {"a": 1, "b": None})
        rows = [{"a": 1, "b": None}, {"a": 1, "b": None}, {"a": 1, "b": 2}]
        assert idx.first_violation(rows) is None
        assert idx.first_violation(rows + [{"a": 1, "b": 2}])[0] == 3

    def test_first_move_violation_replays_key_moves_in_statement_order(self):
        idx = HashIndex("t", ("k",), unique=True)
        for tid, key in enumerate(["a", "b", "c", None], start=1):
            idx.add(tid, {"k": key})
        held = {key: set(tids) for key, tids in idx._buckets.items()}
        null = idx.key({"k": None})
        # A chain onto released keys, a fresh key, a NULL: all free.
        chain = [(0, "c", "d"), (1, "b", "c"), (2, "a", "b"), (3, null, null)]
        assert idx.first_move_violation(chain) is None
        # The same chain from the other end meets a key still held.
        position, error = idx.first_move_violation([(0, "a", "b"), (1, "b", "c")])
        assert position == 0 and "key 'b'" in str(error)
        # A swap fails at its first row; two rows cannot claim one key,
        # even one an earlier row released.
        assert idx.first_move_violation([(0, "a", "b"), (1, "b", "a")])[0] == 0
        moves = [(0, "a", "z"), (1, "b", "a"), (2, "c", "a")]
        assert idx.first_move_violation(moves)[0] == 2
        assert idx._buckets == held  # nothing was moved

