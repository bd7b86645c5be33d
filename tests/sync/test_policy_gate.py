"""``PolicyGate`` alone: a fake ``deliver``, a plain ``RLock`` as outer lock.

The gate is Section V's mechanism (buffer -> coalesce -> flush -> timer).
A database owns one, keyed by trigger, and every consumer -- the sync,
ivm and workflow planes -- subscribes through it; what the planes share
on top is pinned by ``test_policy_contract.py``.  The structural tests at
the bottom keep it the *only* copy.
"""

import ast
import re
import sys
import threading
from pathlib import Path

import pytest

from repro.db.schema import TID
from repro.db.table import ChangeSet
from repro.db.policy import IMMEDIATE, MANUAL, PolicyGate, Threshold
from repro.db.table import DeltaCoalescer

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
GATE = SRC / "db" / "policy.py"
FRONTENDS = [
    SRC / "sync" / "notification.py",
    SRC / "ivm" / "registry.py",
    SRC / "workflow" / "propagation.py",
]
TIMER_NAME = "policy-gate-timer"


def insert(tid, table="t"):
    return ChangeSet(table, inserted=[{TID: tid, "v": tid}])


def delete(tid, table="t"):
    return ChangeSet(table, deleted=[{TID: tid, "v": tid}])


class Harness:
    """A gate whose deliveries are recorded instead of shipped."""

    def __init__(self):
        self.outer = threading.RLock()
        self.delivered = []  # (key, net inserted tids, ops coalesced away)
        self.arrived = threading.Event()
        self.gate = PolicyGate(self.outer, self.deliver)

    def deliver(self, key, coalescer):
        net = coalescer.net_changeset()
        self.delivered.append(
            (key, [row[TID] for row in net.inserted], coalescer.coalesced_away())
        )
        self.arrived.set()
        return coalescer.net_ops()


def close(gate, *keys):
    """What closing edges does: flush, forget, and reap the timer."""
    for key in keys:
        gate.flush(key)
        gate.drop(key)
    gate.reap()


@pytest.fixture
def harness():
    h = Harness()
    yield h
    close(h.gate, *list(h.gate._policies))


def timers():
    return [t for t in threading.enumerate() if t.name == TIMER_NAME]


class TestOffer:
    def test_immediate_key_is_not_taken(self, harness):
        assert harness.gate.policy("t") is IMMEDIATE
        assert harness.gate.offer("t", insert(1)) is False
        assert harness.gate.pending_ops("t") == 0
        assert harness.delivered == []

    def test_count_overflow_flushes_on_the_crossing_change(self, harness):
        harness.gate.set_policy("t", Threshold(max_changes=3, max_delay_ms=None))
        assert harness.gate.offer("t", insert(1)) is True
        assert harness.gate.offer("t", insert(2)) is True
        assert harness.delivered == [] and harness.gate.pending_ops("t") == 2
        assert harness.gate.offer("t", insert(3)) is True
        assert harness.delivered == [("t", [1, 2, 3], 0)]
        assert harness.gate.pending_ops("t") == 0

    def test_manual_never_flushes_by_itself(self, harness):
        harness.gate.set_policy("t", MANUAL)
        for tid in range(500):
            harness.gate.offer("t", insert(tid))
        assert harness.delivered == []
        assert harness.gate.pending_ops("t") == 500
        assert harness.gate.flush("t") == 500

    def test_keys_buffer_independently(self, harness):
        harness.gate.set_policy(("v", "a"), MANUAL)
        harness.gate.set_policy(("v", "b"), MANUAL)
        harness.gate.offer(("v", "a"), insert(1, "a"))
        harness.gate.offer(("v", "b"), insert(1, "b"))
        harness.gate.offer(("v", "b"), insert(2, "b"))
        assert harness.gate.pending_ops(("v", "a")) == 1
        assert harness.gate.pending_ops(("v", "b")) == 2
        assert harness.gate.flush(("v", "a")) == 1
        assert harness.gate.pending_ops(("v", "b")) == 2
        assert harness.gate.flush(("v", "b")) == 2
        assert harness.gate.pending_ops(("v", "b")) == 0


class TestFlush:
    def test_annihilating_burst_delivers_an_empty_coalescer(self, harness):
        """insert+delete per tid nets to nothing; the layer is still
        called, so it can count what coalescing saved."""
        harness.gate.set_policy("t", MANUAL)
        for tid in range(20):
            harness.gate.offer("t", insert(tid))
            harness.gate.offer("t", delete(tid))
        assert harness.gate.flush("t") == 0
        assert harness.delivered == [("t", [], 40)]

    def test_policy_switch_flushes_first(self, harness):
        harness.gate.set_policy("t", MANUAL)
        harness.gate.offer("t", insert(1))
        harness.gate.set_policy("t", IMMEDIATE)
        assert harness.delivered == [("t", [1], 0)]
        assert harness.gate.policy("t") is IMMEDIATE
        assert harness.gate.offer("t", insert(2)) is False

    def test_idle_flush_never_touches_the_outer_lock(self, harness):
        harness.gate.set_policy("t", MANUAL)
        held, release = threading.Event(), threading.Event()

        def hold_outer():
            with harness.outer:
                held.set()
                release.wait(5.0)

        holder = threading.Thread(target=hold_outer)
        holder.start()
        try:
            assert held.wait(5.0)
            result = []
            prober = threading.Thread(
                target=lambda: result.append(
                    (harness.gate.flush("t"), harness.gate.flush("u"))
                )
            )
            prober.start()
            prober.join(2.0)
            assert not prober.is_alive(), "idle flush blocked on the outer lock"
            assert result == [(0, 0)]
        finally:
            release.set()
            holder.join(5.0)

    def test_delivery_runs_under_outer_and_outside_the_gate_lock(self):
        seen = []
        outer = threading.RLock()

        def deliver(key, coalescer):
            # Re-entering the gate would deadlock were its lock held.
            seen.append((outer._is_owned(), gate.pending_ops(key)))
            return coalescer.net_ops()

        gate = PolicyGate(outer, deliver)
        gate.set_policy("t", MANUAL)
        gate.offer("t", insert(1))
        assert gate.flush("t") == 1
        assert seen == [(True, 0)]

    def test_change_buffered_during_a_switch_is_due_at_once(self):
        """A consumer writing back into its own source while the
        flush-before-switch delivers: the change lands under the outgoing
        policy, has none by the time anyone looks, and must not strand."""
        delivered = []

        def deliver(key, coalescer):
            delivered.append(coalescer.net_ops())
            if len(delivered) == 1:
                gate.offer(key, insert(99))
            return coalescer.net_ops()

        gate = PolicyGate(threading.RLock(), deliver)
        gate.set_policy("t", MANUAL)
        gate.offer("t", insert(1))
        gate.set_policy("t", IMMEDIATE)
        assert gate.pending_ops("t") == 1
        assert gate._deadline("t") == 0.0
        assert gate.flush("t") == 1
        assert gate.pending_ops("t") == 0

    def test_drop_discards_policy_and_buffer(self, harness):
        harness.gate.set_policy("t", MANUAL)
        harness.gate.offer("t", insert(1))
        harness.gate.drop("t")
        assert harness.gate.pending_ops("t") == 0
        assert harness.gate.policy("t") is IMMEDIATE
        assert harness.gate.flush("t") == 0 and harness.delivered == []


class TestTimer:
    def test_no_thread_before_a_timed_policy_and_exactly_one_after(self, harness):
        before = len(timers())
        harness.gate.set_policy("m", MANUAL)
        harness.gate.set_policy("c", Threshold(max_changes=8, max_delay_ms=None))
        harness.gate.offer("m", insert(1))
        assert len(timers()) == before
        harness.gate.set_policy("a", Threshold(max_changes=8, max_delay_ms=10.0))
        harness.gate.set_policy("b", Threshold(max_changes=8, max_delay_ms=20.0))
        assert len(timers()) == before + 1

    def test_lone_change_is_delivered_at_its_deadline(self, harness):
        harness.gate.set_policy("t", Threshold(max_changes=10**6, max_delay_ms=20.0))
        harness.gate.offer("t", insert(1))
        assert harness.arrived.wait(5.0)
        assert harness.delivered == [("t", [1], 0)]

    def test_untimed_keys_are_left_alone_by_the_timer(self, harness):
        harness.gate.set_policy("m", MANUAL)
        harness.gate.set_policy("t", Threshold(max_changes=10**6, max_delay_ms=10.0))
        harness.gate.offer("m", insert(1, "m"))
        harness.gate.offer("t", insert(1))
        assert harness.arrived.wait(5.0)
        assert [key for key, _tids, _away in harness.delivered] == ["t"]
        assert harness.gate.pending_ops("t") == 0
        assert harness.gate.pending_ops("m") == 1

    def test_timer_picks_up_a_change_left_without_a_policy(self):
        """The switch-time straggler (see TestFlush) is not left to the
        next explicit flush when a timer is running."""
        straggler = threading.Event()

        def deliver(key, coalescer):
            if key == "t" and not gate.offer(key, insert(99)):
                straggler.set()  # second delivery: "t" is immediate by now
            return coalescer.net_ops()

        gate = PolicyGate(threading.RLock(), deliver)
        try:
            gate.set_policy("u", Threshold(max_changes=8, max_delay_ms=60_000.0))
            gate.set_policy("t", MANUAL)
            gate.offer("t", insert(1))
            gate.set_policy("t", IMMEDIATE)
            assert straggler.wait(5.0)
            assert gate.pending_ops("t") == 0
        finally:
            close(gate, "t", "u")

    def test_close_flushes_and_joins(self):
        """Closing the last timed key joins the timer; the next timed
        policy starts a fresh one.  A timed key left open keeps it."""
        h = Harness()
        timed = Threshold(max_changes=10**6, max_delay_ms=60_000.0)
        h.gate.set_policy("t", timed)
        h.gate.set_policy("u", timed)
        h.gate.offer("t", insert(1))
        timer = h.gate._timer
        assert timer is not None and timer.is_alive()
        close(h.gate, "t")
        assert h.delivered == [("t", [1], 0)]
        assert timer.is_alive()  # "u" still has a time bound
        close(h.gate, "u")
        assert not timer.is_alive() and h.gate._timer is None
        h.gate.set_policy("v", Threshold(max_changes=2, max_delay_ms=5.0))
        assert h.gate._timer is not None and h.gate._timer is not timer
        close(h.gate, "v")
        assert h.gate._timer is None


class TestConcurrency:
    def test_no_change_lost_or_doubled_under_contention(self):
        """Writers, an explicit flusher, policy switches and the timer all
        at once: every offered change is delivered exactly once."""
        outer = threading.RLock()
        delivered = []  # appended under the outer lock, by contract

        def deliver(key, coalescer):
            delivered.extend(row[TID] for row in coalescer.net_changeset().inserted)
            return coalescer.net_ops()

        gate = PolicyGate(outer, deliver)
        timed = Threshold(max_changes=7, max_delay_ms=1.0)
        keys = ["a", "b", "c"]
        for key in keys:
            gate.set_policy(key, timed)
        writers, per_writer = 6, 400
        stop = threading.Event()

        def write(worker):
            for i in range(per_writer):
                key = keys[i % len(keys)]
                change = insert(worker * per_writer + i, key)
                with outer:  # a trigger arrives holding the outer lock
                    if not gate.offer(key, change):
                        deliver(key, _coalesced(change))

        def churn():
            while not stop.is_set():
                for key in keys:
                    gate.flush(key)
                gate.set_policy("b", MANUAL)
                gate.set_policy("b", IMMEDIATE)
                gate.set_policy("b", timed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=write, args=(w,)) for w in range(writers)]
            churner = threading.Thread(target=churn)
            for thread in [*threads, churner]:
                thread.start()
            for thread in threads:
                thread.join(30.0)
            stop.set()
            churner.join(30.0)
            assert not any(t.is_alive() for t in [*threads, churner])
        finally:
            sys.setswitchinterval(interval)
            close(gate, *keys)
        assert sorted(delivered) == list(range(writers * per_writer))


def _coalesced(change):
    coalescer = DeltaCoalescer(change.table)
    coalescer.add(change)
    return coalescer


# ----------------------------------------------------------------------
# One mechanism, shown structurally.
def _hits(pattern, paths):
    regex = re.compile(pattern)
    return [
        f"{path.relative_to(SRC)}:{number}"
        for path in paths
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if regex.search(line)
    ]


def test_policy_state_lives_only_in_the_gate():
    others = [p for p in SRC.rglob("*.py") if p != GATE]
    assert not _hits(r"\._policies\b|\.max_delay_ms\b", others)
    # One coalescer, beside ChangeSet, and the two windows that net with
    # it: a policy's buffer (the gate), a transaction (the commit routine).
    def files(pattern):
        return sorted({hit.split(":")[0] for hit in _hits(pattern, SRC.rglob("*.py"))})

    assert files(r"^class DeltaCoalescer\b") == ["db/table.py"]
    assert files(r"DeltaCoalescer\(") == ["db/database.py", "db/policy.py"]
    # One gate, the database's: constructed once, beside the triggers.
    (constructed,) = _hits(r"PolicyGate\(", SRC.rglob("*.py"))
    assert constructed.startswith("db/")
    assert not _hits(r"_deliver_flush", SRC.rglob("*.py"))
    for path in others:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.AnnAssign):
                annotation = ast.unparse(node.annotation)
                assert not (
                    annotation.startswith("dict[") and "PropagationPolicy" in annotation
                ), f"{path.relative_to(SRC)}:{node.lineno} keeps its own policy table"


def test_frontends_define_no_policy_method_and_install_no_trigger():
    """A consumer is its ``deliver``: the policy methods are its edge's,
    and consumers subscribe -- only ``repro.db`` calls ``.on(``."""
    wrappers = {
        "set_policy",
        "flush_all",
        "flush_view",
        "flush_table",
        "pending_ops",
        "due_tables",
    }
    for path in FRONTENDS:
        defined = {
            node.name
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.FunctionDef)
        }
        assert not defined & wrappers, f"{path.relative_to(SRC)}: {defined & wrappers}"
    outside_db = [p for p in SRC.rglob("*.py") if SRC / "db" not in p.parents]
    assert not _hits(r"\.on\(", outside_db)


def test_layers_start_no_threads_and_keep_no_shards():
    assert not _hits(r"threading\.Thread\(", FRONTENDS)
    assert not _hits(r"(?i)shard", [SRC / "sync" / "notification.py", GATE])
    assert not _hits(r"shard_stats|\"shards\"", [SRC / "sync" / "server.py"])
    assert not _hits(
        r"BatchBuffer|\badd_listener\b|\bremove_listener\b", SRC.rglob("*.py")
    )
