"""Hash and sorted index behavior."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import INTEGER, TEXT, Column, Database
from repro.db.index import HashIndex, SortedIndex
from repro.db.schema import TID
from repro.errors import ConstraintViolation


def tids_by_key(index):
    """``{key: set of tids}`` of a hash index, whatever its entries hold
    (a key's tid, or a set of tids once the key holds two), keyed as
    ``index.key`` names a key (a composite one as ``(first, rest)``)."""
    if len(index.columns) == 1:
        filed = index._buckets.items()
    else:
        filed = [
            ((first, rest), entry)
            for first, group in index._buckets.items()
            for rest, entry in group.items()
        ]
    return {key: set(entry) if isinstance(entry, set) else {entry} for key, entry in filed}


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

    def test_refiling_a_held_tid_keeps_one_entry(self):
        idx = HashIndex("t", ("k",))
        tid = 10**12
        again = int(str(tid))  # equal, but another object
        assert again is not tid
        idx.add(tid, {"k": "a"})
        idx.add(again, {"k": "a"})
        assert idx._buckets == {"a": tid}
        idx.remove(tid, {"k": "a"})
        assert idx._buckets == {}

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
        assert many.slice() == one.slice()
        many.remove_many(range(1, len(self.ROWS) + 1), self.ROWS)
        assert many.slice() == sorted(existing)

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
        held = tids_by_key(idx)
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
        assert tids_by_key(idx) == held  # nothing was moved


# ----------------------------------------------------------------------
# The entry representation against a reference dict of sets
VALUES = (None, 0, 1)
POOL = range(6)  # tids, 0 included


def first_violation_model(model, keys):
    """The documented rule of ``first_violation`` on the model's keys."""
    seen = set()
    for position, values in enumerate(keys):
        if None in values:
            continue
        if values in seen or values in model:
            return position
        seen.add(values)
    return None


def first_move_violation_model(model, moves):
    """The documented rule of ``first_move_violation`` on the model's keys."""
    released, claimed = set(), set()
    for position, old, new in moves:
        if None not in new and (new in claimed or (new in model and new not in released)):
            return position
        released.add(old)
        claimed.add(new)
    return None


@settings(max_examples=200, deadline=None)
@given(unique=st.booleans(), width=st.sampled_from([1, 2, 3]), data=st.data())
def test_hash_index_agrees_with_a_dict_of_sets(unique, width, data):
    columns = ("a", "b", "c")[:width]
    domain = list(itertools.product(VALUES, repeat=width))
    values_of = st.sampled_from(domain)

    def row(values):
        return dict(zip(columns, values))

    idx = HashIndex("t", columns, unique=unique)
    model = {}  # key values -> set of tids
    indexed = {}  # tid -> key values

    def file(tid, values):
        model.setdefault(values, set()).add(tid)
        indexed[tid] = values

    def unfile(tid):
        values = indexed.pop(tid)
        model[values].discard(tid)
        if not model[values]:
            del model[values]

    def taken(values):
        return unique and None not in values and values in model

    for _ in range(data.draw(st.integers(1, 30), label="steps")):
        free = [tid for tid in POOL if tid not in indexed]
        op = data.draw(st.sampled_from(["add", "remove", "add_many", "remove_many"]))
        if op == "add":
            # A held tid comes back under its own key: a no-op, or a
            # violation where the key is taken.
            tid = data.draw(st.sampled_from(POOL))
            values = indexed[tid] if tid in indexed else data.draw(values_of)
            if taken(values):
                with pytest.raises(ConstraintViolation):
                    idx.add(tid, row(values))
            else:
                idx.add(tid, row(values))
                file(tid, values)
        elif op == "remove":
            # The row a tid is filed under, or a stale one (a no-op).
            tid, values = data.draw(st.sampled_from(POOL)), data.draw(values_of)
            if tid in indexed and data.draw(st.booleans()):
                values = indexed[tid]
            idx.remove(tid, row(values))
            if indexed.get(tid) == values:
                unfile(tid)
        elif op == "add_many" and free:
            tids = data.draw(st.lists(st.sampled_from(free), unique=True, min_size=1))
            batch = [data.draw(values_of) for _ in tids]
            # A unique index takes a statement only once it passes the check.
            if not unique or first_violation_model(model, batch) is None:
                idx.add_many(tids, [row(values) for values in batch])
                for tid, values in zip(tids, batch):
                    file(tid, values)
        elif op == "remove_many" and indexed:
            tids = data.draw(st.lists(st.sampled_from(sorted(indexed)), unique=True))
            idx.remove_many(tids, [row(indexed[tid]) for tid in tids])
            for tid in tids:
                unfile(tid)

        assert tids_by_key(idx) == {idx.key(row(v)): tids for v, tids in model.items()}
        for values, tids in model.items():
            entry = idx._buckets[values[0]]
            if width > 1:
                entry = entry[values[1] if width == 2 else values[1:]]
            assert isinstance(entry, int) == (len(tids) == 1)
        if width > 1:
            assert all(idx._buckets.values())  # canonical: no empty group
            # A group is the read-only inner map of one first value.
            for first in VALUES:
                group = idx.group(first)
                assert {
                    rest: set(entry) if isinstance(entry, set) else {entry}
                    for rest, entry in group.items()
                } == {
                    values[1] if width == 2 else values[1:]: tids
                    for values, tids in model.items()
                    if values[0] == first
                }
                with pytest.raises(TypeError):
                    group[0] = 0
        for values in domain:
            expected = frozenset(model.get(values, ()))
            found = idx.lookup(values[0]) if width == 1 else idx.lookup_tuple(values)
            assert found == expected
            assert idx.bucket_size(values) == len(expected)
            if taken(values):
                with pytest.raises(ConstraintViolation):
                    idx.check_insert(row(values))
            else:
                idx.check_insert(row(values))
        assert len(idx) == len(indexed)
        probe = data.draw(st.lists(values_of, max_size=4), label="probe")
        found = idx.first_violation([row(values) for values in probe])
        assert (found and found[0]) == first_violation_model(model, probe)
        pairs = data.draw(st.lists(st.tuples(values_of, values_of), max_size=4), label="moves")
        moves = [(position, old, new) for position, (old, new) in enumerate(pairs)]
        keyed = [(p, idx.key(row(old)), idx.key(row(new))) for p, old, new in moves]
        found = idx.first_move_violation(keyed)
        assert (found and found[0]) == first_move_violation_model(model, moves)


def test_tid_zero_holds_its_key():
    """An entry is a tid, and tid 0 is falsy: held means present."""
    idx = HashIndex("t", ("k",), unique=True)
    idx.add(0, {"k": "a"})
    assert idx._buckets == {"a": 0}
    with pytest.raises(ConstraintViolation):
        idx.check_insert({"k": "a"})
    with pytest.raises(ConstraintViolation):
        idx.add(1, {"k": "a"})
    assert idx.first_violation([{"k": "b"}, {"k": "a"}])[0] == 1
    assert idx.first_move_violation([(0, "b", "a")])[0] == 0
    idx.remove(0, {"k": "a"})
    assert idx._buckets == {}


def test_insert_many_files_each_row_under_its_own_tid():
    """One statement of 1,000 distinct keys: every primary-key entry is
    the row's own tid object, no set."""
    db = Database()
    db.create_table(
        "t", [Column("id", INTEGER, nullable=False), Column("v", TEXT)], primary_key="id"
    )
    db.insert_many("t", [{"id": i, "v": str(i)} for i in range(1000)])
    table = db.table("t")
    buckets = table.index("pk_t")._buckets
    assert len(buckets) == 1000
    for row in table.rows():
        assert buckets[row["id"]] is row[TID]


#: Keys a sorted index property test draws from: duplicates are likely.
SORTED_KEYS = st.integers(0, 6)


def model_slice(model, low, high, include_low, include_high):
    """The ``(key, tid)`` entries of ``sorted(model)`` inside the range."""

    def inside(key):
        if low is not None and (key < low or (key == low and not include_low)):
            return False
        return high is None or not (key > high or (key == high and not include_high))

    return [entry for entry in sorted(model) if inside(entry[0])]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_sorted_index_agrees_with_a_sorted_list_of_pairs(data):
    idx = SortedIndex("t", "k")
    model = set()  # (key, tid) pairs; NULL keys are never indexed
    gone = set()  # pairs removed one at a time, free to come back
    next_tid = [1]

    def fresh_tids(n):
        tids = list(range(next_tid[0], next_tid[0] + n))
        next_tid[0] += n
        return tids

    def keys_for(shape, n):
        """``n`` keys that sort after the index, before it, or anywhere
        (NULLs included)."""
        held = sorted(model)
        if shape == "in-order" and held:
            keys = st.integers(held[-1][0], 8)
        elif shape == "prepend" and held:
            keys = st.integers(-2, held[0][0])
        else:
            return data.draw(st.lists(st.one_of(SORTED_KEYS, st.none()), min_size=n, max_size=n))
        return sorted(data.draw(st.lists(keys, min_size=n, max_size=n)))

    ops = ["add", "remove", "add_many", "remove_many", "purge"]
    for _ in range(data.draw(st.integers(1, 25), label="steps")):
        op = data.draw(st.sampled_from(ops))
        if op == "add":
            # A new row, or a removed one coming back (a rollback restores
            # a row under its old tid, below the newest of its key).
            if gone and data.draw(st.booleans()):
                key, tid = data.draw(st.sampled_from(sorted(gone)))
            else:
                (tid,) = fresh_tids(1)
                key = data.draw(st.one_of(SORTED_KEYS, st.none()))
            idx.add(tid, {"k": key})
            if key is not None:
                model.add((key, tid))
                gone.discard((key, tid))
        elif op == "remove":
            # An indexed entry, or a stale pair (a no-op).
            if model and data.draw(st.booleans()):
                key, tid = data.draw(st.sampled_from(sorted(model)))
            else:
                key = data.draw(st.one_of(SORTED_KEYS, st.none()))
                tid = data.draw(st.integers(1, next_tid[0]))
            idx.remove(tid, {"k": key})
            if (key, tid) in model:
                model.discard((key, tid))
                gone.add((key, tid))
        elif op == "add_many":
            shape = data.draw(st.sampled_from(["in-order", "prepend", "interleaved"]))
            n = data.draw(st.integers(1, 8))
            keys, tids = keys_for(shape, n), fresh_tids(n)
            if data.draw(st.booleans()):
                tids.reverse()  # an UPDATE's moves come in any tid order
            idx.add_many(tids, [{"k": key} for key in keys])
            model.update((key, tid) for key, tid in zip(keys, tids) if key is not None)
        elif op == "remove_many" and model:
            # Held pairs, and maybe a held tid under a stale key (a no-op).
            dropped = data.draw(st.lists(st.sampled_from(sorted(model)), unique=True))
            if data.draw(st.booleans()):
                _key, tid = data.draw(st.sampled_from(sorted(model)))
                stale = data.draw(SORTED_KEYS.filter(lambda key: (key, tid) not in model))
                dropped.append((stale, tid))
            rows = [{"k": key} for key, _tid in dropped]
            idx.remove_many([tid for _key, tid in dropped], rows)
            model.difference_update(dropped)
        elif op == "purge" and model:
            # The log's purge: a prefix of the index, NULL rows beside it.
            prefix = sorted(model)[: data.draw(st.integers(1, len(model)))]
            rows = [{"k": key} for key, _tid in prefix] + [{"k": None}]
            idx.remove_many([tid for _key, tid in prefix] + [next_tid[0]], rows)
            model.difference_update(prefix)

        held = sorted(model)
        assert idx.slice() == held
        assert len(idx) == len(held)
        assert idx.min_key() == (held[0][0] if held else None)
        assert idx.max_key() == (held[-1][0] if held else None)
        bound = st.one_of(st.none(), st.integers(-3, 9), st.floats(-3, 9))
        low, high = data.draw(bound, label="low"), data.draw(bound, label="high")
        for include_low, include_high in itertools.product((True, False), repeat=2):
            expected = model_slice(model, low, high, include_low, include_high)
            args = (low, high, include_low, include_high)
            assert idx.slice(*args) == expected
            assert list(idx.range(*args)) == [tid for _key, tid in expected]
            assert idx.count_range(*args) == len(expected)
