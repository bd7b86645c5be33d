"""One policy contract, three planes.

Whatever consumes a relation's changes -- a mirror behind the
NotificationCenter, a materialized view behind the ViewRegistry, a delta
handler behind the PropagationManager -- Section V's policies mean the
same thing: immediate changes arrive at once; buffered ones arrive on
count overflow, at the time bound, on an explicit flush or before a
policy switch, and never otherwise.  One :class:`PolicyGate` implements
that, so one set of tests states it, run against each plane.
"""

import pytest

from repro.sync import IMMEDIATE, MANUAL, Threshold

from .policy_planes import PLANES, Deployment


@pytest.fixture
def deployment():
    built = Deployment()
    yield built
    built.close()


@pytest.fixture(params=PLANES)
def plane(request, deployment):
    return deployment.planes[request.param]


def insert(deployment, *ids):
    for i in ids:
        deployment.db.insert("t", {"id": i, "v": i * 10})


class TestPolicyContract:
    def test_immediate_by_default(self, deployment, plane):
        insert(deployment, 1)
        assert plane.pending() == 0
        assert plane.rows() == [(1, 10)]

    def test_threshold_count_overflow_autoflushes(self, deployment, plane):
        plane.set_policy(Threshold(max_changes=3, max_delay_ms=None))
        insert(deployment, 1, 2)
        assert plane.rows() == [] and plane.pending() == 2
        insert(deployment, 3)  # the crossing change
        assert plane.pending() == 0
        assert plane.rows() == [(1, 10), (2, 20), (3, 30)]

    def test_policy_switch_flushes_pending(self, deployment, plane):
        plane.set_policy(MANUAL)
        insert(deployment, 1)
        assert plane.rows() == [] and plane.pending() == 1
        plane.set_policy(IMMEDIATE)  # the switch releases the buffer
        assert plane.pending() == 0
        assert plane.rows() == [(1, 10)]
        insert(deployment, 2)
        assert plane.rows() == [(1, 10), (2, 20)]  # immediate again

    def test_manual_never_auto_flushes(self, deployment, plane):
        plane.set_policy(MANUAL)
        insert(deployment, *range(1, 301))
        assert plane.rows() == [] and plane.pending() == 300
        assert plane.flush() == 300
        assert plane.pending() == 0
        assert plane.rows() == deployment.base_rows()

    def test_annihilated_burst_ships_nothing(self, deployment, plane):
        plane.set_policy(MANUAL)
        insert(deployment, 1, 2)
        deployment.db.execute("DELETE FROM t")
        assert plane.pending() == 4
        assert plane.flush() == 0
        assert plane.rows() == [] and not plane.arrived.is_set()

    def test_lone_change_arrives_within_its_time_bound(self, deployment, plane):
        """No second change, no explicit flush: the bound alone delivers.
        (Before the shared gate only the sync plane owned a timer.)"""
        plane.set_policy(Threshold(max_changes=100, max_delay_ms=20.0))
        insert(deployment, 1)
        assert plane.arrived.wait(5.0), "time bound never fired"
        assert plane.pending() == 0
        assert plane.rows() == [(1, 10)]
