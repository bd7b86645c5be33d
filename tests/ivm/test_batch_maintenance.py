"""A view's one fold must equal a plain left fold written out here.

``AggregateView.apply`` partitions a delta per group and folds each
partition with one ``apply_group_rows`` call; ``SelectProjectView.apply``
projects the delta and folds it with ``add_many``/``remove_many``.  These
tests drive both over deltas of many sizes and compare the view's state
with :func:`left_fold` / :func:`multiset_fold`, which fold one row at a
time into plain accumulators -- including float SUM rounding, MIN/MAX
multiset contents, and group lifecycle (creation, deletion at zero,
underflow errors).
"""

import random
from collections import Counter

import pytest

from repro.db.algebra import AggSpec
from repro.db.expression import col, evaluate_predicate
from repro.errors import ViewError
from repro.ivm.delta import Delta, partition_rows, row_key
from repro.ivm.view import AggregateView, SelectProjectView


def make_rows(n, seed=0, groups=5):
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        rows.append(
            {
                "g": f"g{rng.randrange(groups)}",
                "v": rng.choice([None, rng.uniform(-10, 10), rng.randrange(-5, 5)]),
                "__tid__": i + 1,
            }
        )
    return rows


def agg_view():
    return AggregateView(
        "agg",
        "t",
        ["g"],
        [
            AggSpec("COUNT", None, "n"),
            AggSpec("COUNT", col("v"), "c"),
            AggSpec("SUM", col("v"), "s"),
            AggSpec("AVG", col("v"), "a"),
            AggSpec("MIN", col("v"), "mn"),
            AggSpec("MAX", col("v"), "mx"),
        ],
        where=col("v") > -9,
    )


def chunks(rows, size):
    return [rows[i : i + size] for i in range(0, len(rows), size)]


def state_snapshot(view):
    """The view's groups in :func:`left_fold`'s shape: (key, row count,
    SUM/AVG totals, non-NULL value counts, MIN/MAX multisets) per spec."""
    out = []
    for key, (star, states) in sorted(view.groups.items(), key=repr):
        funcs = [s and s.func for s in states]
        sums = [s.value if f in ("SUM", "AVG") else 0 for s, f in zip(states, funcs)]
        counts = [0 if s is None else s.count for s in states]
        vcs = [multiset(s.counts) if f in ("MIN", "MAX") else None for s, f in zip(states, funcs)]
        out.append((key, star, sums, counts, vcs))
    return out


def multiset(counts):
    """A MIN/MAX value multiset, sorted; None when empty or never made."""
    return sorted(counts.items()) if counts else None


def left_fold(view, deltas):
    """The reference aggregate state: each delta's qualifying deletions,
    then its insertions, folded in one row at a time with ``+=``/``-=``."""
    n = len(view.aggregates)
    groups = {}
    for delta in deltas:
        for sign, rows in ((-1, delta.deleted), (+1, delta.inserted)):
            for row in rows:
                if not evaluate_predicate(view.where, row):
                    continue
                key = tuple(row[g] for g in view.group_by)
                if key not in groups:
                    assert sign > 0, "the reference never deletes from an unknown group"
                    groups[key] = [0, [0] * n, [0] * n, [None] * n]
                state = groups[key]
                state[0] += sign
                for i, spec in enumerate(view.aggregates):
                    if spec.arg is None:
                        continue
                    value = row[spec.arg.name]
                    if value is None:
                        continue
                    state[2][i] += sign
                    if spec.func in ("SUM", "AVG"):
                        if sign > 0:
                            state[1][i] += value
                        else:
                            state[1][i] -= value
                    elif spec.func in ("MIN", "MAX"):
                        if state[3][i] is None:
                            state[3][i] = Counter()
                        state[3][i][value] += sign
                        if state[3][i][value] == 0:
                            del state[3][i][value]
                if state[0] == 0:
                    del groups[key]
    return [
        (key, s[0], s[1], s[2], [multiset(vc) for vc in s[3]])
        for key, s in sorted(groups.items(), key=repr)
    ]


def multiset_fold(view, deltas):
    """The reference select-project contents: a Counter of projected rows."""
    counts = Counter()
    for delta in deltas:
        for sign, rows in ((+1, delta.inserted), (-1, delta.deleted)):
            for row in rows:
                if evaluate_predicate(view.where, row):
                    counts[row_key({name: e.eval(row) for name, e in view.project})] += sign
    return sorted(
        repr(dict(key)) for key, count in counts.items() for _ in range(count)
    )


def contents(view):
    return sorted(repr(dict(row_key(r))) for r in view.rows())


class TestAggregateBatchEquivalence:
    def test_insert_batch_matches_per_row(self):
        rows = make_rows(300)
        for size in (1, 8, 50, 64, 300):
            view = agg_view()
            deltas = [Delta.insertions("t", part) for part in chunks(rows, size)]
            for delta in deltas:
                view.apply(delta)
            assert state_snapshot(view) == left_fold(view, deltas), size

    def test_delete_batch_matches_per_row(self):
        rows = make_rows(300, seed=2)
        victim = rows[::2]
        for size in (1, 7, 63, 150):
            view = agg_view()
            deltas = [Delta.insertions("t", rows)]
            deltas += [Delta.deletions("t", part) for part in chunks(victim, size)]
            for delta in deltas:
                view.apply(delta)
            assert state_snapshot(view) == left_fold(view, deltas), size

    def test_float_sum_rounding_identical(self):
        rows = [
            {"g": "g", "v": x, "__tid__": i + 1}
            for i, x in enumerate([0.1] * 70 + [1e15, -1e15] + [0.1] * 70)
        ]
        view = agg_view()
        deltas = [Delta.insertions("t", rows), Delta.deletions("t", rows[:3])]
        for delta in deltas:
            view.apply(delta)
        # Bit-for-bit, not math.isclose: the same left fold rounds the same.
        assert state_snapshot(view) == left_fold(view, deltas)
        whole = agg_view()
        whole.apply(Delta.insertions("t", rows))
        one_by_one = agg_view()
        for row in rows:
            one_by_one.apply(Delta.insertions("t", [row]))
        assert state_snapshot(whole) == state_snapshot(one_by_one)

    def test_group_deleted_at_zero(self):
        rows = make_rows(200, seed=3, groups=3)
        view = agg_view()
        view.apply(Delta.insertions("t", rows))
        view.apply(Delta.deletions("t", rows))
        assert view.groups == {}
        view.apply(Delta.insertions("t", rows[:1]))
        view.apply(Delta.deletions("t", rows[:1]))
        assert view.groups == {}

    def test_mixed_update_delta(self):
        rows = make_rows(400, seed=4)
        for lo, hi in ((100, 300), (5, 6)):
            view = agg_view()
            delta = Delta(
                table="t",
                deleted=rows[lo:hi],
                inserted=[dict(r, v=1) for r in rows[lo:hi]],
            )
            deltas = [Delta.insertions("t", rows), delta]
            view.apply(deltas[0])
            applied = view.apply(delta)
            assert applied == sum(
                evaluate_predicate(view.where, row) for row in delta.deleted + delta.inserted
            )
            assert state_snapshot(view) == left_fold(view, deltas)

    def test_unknown_group_delete_raises(self):
        for size in (1, 64):
            view = agg_view()
            rows = [{"g": "zz", "v": 1, "__tid__": i} for i in range(size)]
            with pytest.raises(ViewError, match="unknown group"):
                view.apply(Delta.deletions("t", rows))

    def test_apply_group_rows_empty_is_noop(self):
        view = agg_view()
        view.apply_group_rows(("g0",), [], +1)
        assert view.groups == {}


class TestSelectProjectBatchEquivalence:
    def make_view(self):
        return SelectProjectView(
            "sp", "t", where=col("v") > 0, project=[("g", col("g")), ("v", col("v"))]
        )

    def test_insert_and_delete_batches(self):
        rows = make_rows(250, seed=5)
        for size in (1, 8, 63, 250):
            view = self.make_view()
            deltas = [Delta.insertions("t", part) for part in chunks(rows, size)]
            deltas += [Delta.deletions("t", part) for part in chunks(rows[::3], size)]
            for i, delta in enumerate(deltas):
                view.apply(delta)
                assert contents(view) == multiset_fold(view, deltas[: i + 1]), size

    def test_underflow_message_identical(self):
        messages = set()
        for size in (1, 64):
            view = self.make_view()
            rows = [{"g": "g", "v": 1, "__tid__": i} for i in range(size)]
            with pytest.raises(ViewError) as err:
                view.apply(Delta.deletions("t", rows))
            messages.add(str(err.value))
        assert messages == {
            "view multiset underflow removing {'g': 'g', 'v': 1} (have 0, removing 1)"
        }


class TestPartitionRows:
    def test_preserves_orders(self):
        rows = [{"g": g, "i": i} for i, g in enumerate("abcabcab")]
        parts = partition_rows(rows, ["g"])
        assert list(parts) == [("a",), ("b",), ("c",)]
        assert [r["i"] for r in parts[("a",)]] == [0, 3, 6]

    def test_multi_column_key(self):
        rows = [{"g": "a", "h": 1}, {"g": "a", "h": 2}, {"g": "a", "h": 1}]
        parts = partition_rows(rows, ["g", "h"])
        assert len(parts) == 2
        assert len(parts[("a", 1)]) == 2

    def test_empty(self):
        assert partition_rows([], ["g"]) == {}
