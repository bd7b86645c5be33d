"""The cross-policy oracle: a propagation policy changes *when*, never *what*.

One generated script of statements, explicit flushes and policy switches
runs against deployments that differ only in the policy on ``t``'s edges
(immediate; manual; count threshold).  After the final flush every
deployment must hold the same thing on every plane, and that thing is a
fresh recompute from the base table: the mirror (a ``changes_since``
replay), the materialized view, and the sum of the deltas the UP handler
was handed.  ``benchmarks/bench_policy_batching.py`` prints this check
once for one fixed script; here it is generated, and covers the workflow
plane too.

A transaction is one more boundary of the same kind (its triggers see the
net delta at commit), so each policy runs twice: statement by statement,
and with the same statements grouped into transactions of random size.
The grouped run must end where the ungrouped one does, on every plane.
"""

import contextlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import col
from repro.ivm import SelectProjectView
from repro.sync import IMMEDIATE, MANUAL, Threshold

from .policy_planes import PLANES, Deployment, visible

ids = st.integers(0, 12)
values = st.integers(0, 5)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), ids, values),
        st.tuples(st.just("insert_many"), st.sets(ids, max_size=5), values),
        st.tuples(st.just("update"), ids, values),
        st.tuples(st.just("delete"), ids),
        st.tuples(st.just("flush")),
        st.tuples(st.just("flush_table")),
        st.tuples(st.just("switch")),
        # The next ``n`` statements are one transaction (grouped runs only).
        st.tuples(st.just("group"), st.integers(1, 5)),
    ),
    max_size=40,
)
STATEMENTS = ("insert", "insert_many", "update", "delete")


class Policed(Deployment):
    """A deployment whose three edges out of ``t`` share one policy."""

    def __init__(self, policy, grouped=False):
        super().__init__()
        self.home = policy
        self.current = IMMEDIATE
        self.grouped = grouped
        self.group = contextlib.ExitStack()  # the open transaction, if any
        self.group_left = 0
        self.switch()

    def switch(self):
        """Toggle between the deployment's policy and immediate."""
        self.current = self.home if self.current is IMMEDIATE else IMMEDIATE
        self.platform.set_propagation_policy("t", self.current)

    def run(self, step):
        kind, *args = step
        if kind == "group":
            if self.grouped and not self.group_left:
                self.group.enter_context(self.db.transaction())
                self.group_left = args[0]
            return
        if kind not in STATEMENTS:
            self.commit_group()  # flushes and switches fall between commits
        self.statement(kind, args)
        if self.group_left:
            self.group_left -= 1
            if not self.group_left:
                self.commit_group()

    def commit_group(self):
        self.group_left = 0
        self.group.close()

    def close(self):
        self.commit_group()  # a failing example may stop inside a group
        super().close()

    def statement(self, kind, args):
        table = self.db.table("t")
        if kind == "insert":
            key, value = args
            if table.by_key(key) is None:
                self.db.insert("t", {"id": key, "v": value})
        elif kind == "insert_many":
            keys, value = args
            fresh = [k for k in sorted(keys) if table.by_key(k) is None]
            self.db.insert_many("t", [{"id": k, "v": value} for k in fresh])
        elif kind == "update":
            key, value = args
            self.db.update("t", {"v": value}, col("id") == key)
        elif kind == "delete":
            self.db.delete("t", col("id") == args[0])
        elif kind == "flush":
            self.platform.flush_propagation()
            self.assert_converged()
        elif kind == "flush_table":
            self.platform.flush_propagation("t")
            self.assert_converged()
        else:
            self.switch()

    def assert_converged(self):
        base = self.base_rows()
        for name in PLANES:
            assert self.planes[name].rows() == base, (name, self.home)
        recomputed = SelectProjectView("again", "t")
        recomputed.recompute(self.db)
        assert visible(recomputed.rows()) == base
        assert all(self.planes[name].pending() == 0 for name in PLANES)


@given(steps, st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_every_policy_ends_in_the_same_state(script, n):
    policies = [IMMEDIATE, MANUAL, Threshold(max_changes=n, max_delay_ms=None)]
    deployments = [
        Policed(policy, grouped) for grouped in (False, True) for policy in policies
    ]
    try:
        for step in script:
            for deployment in deployments:
                deployment.run(step)
            # Immediate propagation is converged after every statement --
            # grouped, after every commit.
            deployments[0].assert_converged()
            if not deployments[3].group_left:
                deployments[3].assert_converged()
        for deployment in deployments:
            deployment.commit_group()
            deployment.platform.flush_propagation()
            deployment.assert_converged()
        for name in PLANES:
            states = [d.planes[name].rows() for d in deployments]
            assert all(state == states[0] for state in states), name
        for deployment in deployments:
            # However the flushes fell, the log is one gapless sequence.
            log = deployment.platform.center.notifications_since("t", 0)
            assert [seq for seq, _op in log] == list(range(1, len(log) + 1))
    finally:
        for deployment in deployments:
            deployment.close()
