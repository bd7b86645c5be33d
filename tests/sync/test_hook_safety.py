"""Hook containment: a raising observer must never take down delivery.

Notify and status hooks are user code running on liveness-critical
threads -- the in-process listener, the socket read loop, and the
reconnector.  These tests install deliberately-broken hooks and assert
the pipeline keeps flowing: later hooks still fire, dirty flags still
land, and reconnection still completes.  Failures are counted on
``client.hook_failures`` and the ``sync.client.hook_failures`` metric.
"""

import pytest

import repro.obs as obs
from repro.db import Column, Database
from repro.db.types import FLOAT, INTEGER
from repro.retry import RetryPolicy
from repro.sync import (
    FaultPlan,
    FaultyTransport,
    NotificationCenter,
    SyncClient,
    SyncServer,
)
from repro.sync import client as client_mod

from .test_fault_tolerance import await_reconnect, hold_status

HB = 0.05


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def make_db():
    db = Database()
    db.create_table(
        "pts",
        [Column("id", INTEGER, nullable=False), Column("x", FLOAT)],
        primary_key="id",
    )
    return db


def make_inprocess():
    db = make_db()
    server = SyncServer(db, use_sockets=False)
    client = SyncClient(server)
    return db, server, client


class TestNotifyHookContainment:
    def test_raising_notify_hook_does_not_break_delivery(self):
        db, server, client = make_inprocess()
        try:
            client.mirror("pts")
            survivors = []
            client.on_notify(lambda *a: (_ for _ in ()).throw(RuntimeError("boom")))
            client.on_notify(lambda table, op, seq: survivors.append((table, op, seq)))
            db.insert("pts", {"id": 1, "x": 1.0})
            # Later hooks still ran and the dirty flag still landed.
            assert survivors == [("pts", "insert", 1)]
            assert "pts" in client.dirty_tables()
            assert client.hook_failures == 1
            # The mirror still converges.
            client.refresh("pts")
            assert client.table("pts").all_rows()
        finally:
            client.close()
            server.close()

    def test_failures_counted_even_while_obs_disabled(self):
        """Hook failures are a rare liveness-relevant event: the counter is
        unconditional, not gated on obs.enabled()."""
        db, server, client = make_inprocess()
        try:
            client.mirror("pts")
            client.on_notify(lambda *a: 1 / 0)
            db.insert("pts", {"id": 1, "x": 1.0})
            db.insert("pts", {"id": 2, "x": 2.0})
            assert client.hook_failures == 2
            counters = obs.metrics().snapshot()["counters"]
            assert counters["sync.client.hook_failures{kind=notify}"] == 2
        finally:
            client.close()
            server.close()


class TestStatusHookContainment:
    def test_raising_status_hook_does_not_kill_reconnect(self):
        """The acceptance scenario from the issue: a status hook that raises
        must not abort the reconnect thread mid-recovery."""
        db = make_db()
        center = NotificationCenter(db)
        plans = [FaultPlan(disconnect_at=2)]

        def factory(stream):
            plan = plans.pop(0) if plans else None
            return FaultyTransport(stream, plan)

        server = SyncServer(
            db,
            center,
            use_sockets=True,
            heartbeat_interval=HB,
            transport_factory=factory,
        )
        client = SyncClient(
            server,
            heartbeat_timeout=HB * 5,
            reconnect=RetryPolicy(
                max_attempts=10,
                base_delay=0.01,
                multiplier=1.5,
                max_delay=0.1,
                jitter=0.5,
                retryable=(OSError, Exception),
            ),
        )
        statuses = []
        client.on_status(lambda *a: (_ for _ in ()).throw(RuntimeError("bad hook")))
        client.on_status(lambda status, reason: statuses.append(status))
        release = hold_status(client, client_mod.RECONNECTING)
        try:
            client.mirror("pts")
            for i in range(4):
                db.insert("pts", {"id": i, "x": float(i)})
            await_reconnect(client, release)
            assert client.reconnects >= 1, "client never reconnected"
            # Every transition the broken hook saw, the healthy one saw too,
            # and each raised exactly once per transition.
            assert client_mod.CONNECTED in statuses
            assert client.hook_failures == len(statuses)
            counters = obs.metrics().snapshot()["counters"]
            assert counters["sync.client.hook_failures{kind=status}"] == len(statuses)
            # And the data path still converges after recovery.
            client.refresh("pts")
            assert len(client.table("pts").all_rows()) == 4
        finally:
            client.close()
            server.close()
