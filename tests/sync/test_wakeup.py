"""The NOTIFY is the wake-up: no timer sits between a commit and its refresh.

A raised dirty flag wakes the ``RefreshDriver`` (and ``wait_dirty``)
through the client's condition, and the socket reader raises it only
once the commit that sent the NOTIFY has released the database -- a
refresher woken earlier would take the GIL from the writer only to
block on its lock.  The reader bounds that wait by the heartbeat
interval, so a long transaction never starves its PONGs.
"""

import ast
import sys
import threading
import time
import types
from pathlib import Path

import pytest

from repro.db import Column, Database
from repro.db.types import INTEGER
from repro.sync import NotificationCenter, RefreshDriver, SyncClient, SyncServer
from repro.sync import client as client_mod

SYNC = Path(__file__).resolve().parents[2] / "src" / "repro" / "sync"
HB = 0.05


def make_stack(use_sockets, **server_kwargs):
    db = Database()
    db.create_table(
        "pts", [Column("id", INTEGER, nullable=False), Column("x", INTEGER)],
        primary_key="id",
    )
    server = SyncServer(
        db, NotificationCenter(db), use_sockets=use_sockets, **server_kwargs
    )
    client = SyncClient(server)
    return db, server, client, client.mirror("pts")


@pytest.fixture(params=["inprocess", "sockets"])
def stack(request):
    db, server, client, mirror = make_stack(request.param == "sockets")
    yield db, server, client, mirror
    client.close()
    server.close()


def follow(driver):
    """An event the ``RefreshDriver`` sets after each refresh."""
    refreshed = threading.Event()
    driver.on_refresh(lambda _table, _stats: refreshed.set())
    return refreshed


def test_a_notify_hook_runs_once_the_sending_commit_released_the_database():
    db, server, client, _mirror = make_stack(use_sockets=True)
    free, heard = [], threading.Event()

    def hook(_table, _op, _seq_no):
        got = db.lock.acquire(blocking=False)
        if got:
            db.lock.release()
        free.append(got)
        heard.set()

    client.on_notify(hook)
    try:
        for i in range(200):
            heard.clear()
            db.insert("pts", {"id": i, "x": i})
            assert heard.wait(5.0)
        assert free.count(True) == 200
    finally:
        client.close()
        server.close()


class WatchedLock:
    """Stands in for ``db.lock``: says when a thread starts waiting on it."""

    def __init__(self, lock):
        self.lock = lock
        self.waiting = threading.Event()

    def acquire(self, *args, **kwargs):
        self.waiting.set()
        return self.lock.acquire(*args, **kwargs)

    def release(self):
        self.lock.release()


def test_the_notify_count_and_the_dirty_flag_land_together(monkeypatch):
    """A reader of ``notify_received`` must find the flags of what it
    counted: both move only once the sending commit released the
    database, in one step."""
    db, server, client, _mirror = make_stack(False, heartbeat_interval=None)
    watched = WatchedLock(db.lock)
    monkeypatch.setattr(client, "database", types.SimpleNamespace(lock=watched))
    before = client.notify_received
    assert "pts" not in client.dirty_tables()
    intake = threading.Thread(target=client._intake, args=("pts", [("insert", 1)]))
    try:
        with db.lock:
            intake.start()
            assert watched.waiting.wait(5.0)
            assert client.notify_received == before
            assert "pts" not in client.dirty_tables()
        intake.join(5.0)
        assert client.notify_received == before + 1
        assert "pts" in client.dirty_tables()
    finally:
        client.close()
        server.close()


def test_each_notify_wakes_the_refresher_whatever_its_poll_interval(stack):
    db, _server, client, mirror = stack
    driver = RefreshDriver(client, max_rate=1000.0, poll_interval=10.0)
    refreshed = follow(driver)
    driver.start()
    try:
        for i in range(20):
            refreshed.clear()
            db.insert("pts", {"id": i, "x": i})
            assert refreshed.wait(0.5), f"insert {i} waited for the poll"
            assert len(mirror) == i + 1
        started = time.monotonic()
        driver.stop()
        assert time.monotonic() - started < 0.5
        assert not driver.running()
    finally:
        driver.stop()


def test_a_rate_limited_table_is_refreshed_when_it_falls_due(stack):
    db, _server, client, mirror = stack
    with RefreshDriver(client, max_rate=20.0, poll_interval=10.0) as driver:
        refreshed = follow(driver)
        db.insert("pts", {"id": 0, "x": 0})
        assert refreshed.wait(0.5)
        refreshed.clear()
        for i in (1, 2):  # inside min_period: they coalesce
            db.insert("pts", {"id": i, "x": i})
        assert refreshed.wait(driver.min_period + 0.2)
        assert len(mirror) >= 2


def test_no_wakeup_is_lost_at_a_tiny_switch_interval(stack):
    """``RefreshDriver`` reads the intake count with the dirty set, before
    it refreshes: a NOTIFY landing after that read -- here each refresh's
    listener writes the next row -- must still wake it."""
    db, _server, client, mirror = stack
    ids = iter(range(1, 500))
    progress = threading.Condition()

    def insert_next(_table, _stats):
        row_id = next(ids, None)
        if row_id is not None:
            db.insert("pts", {"id": row_id, "x": row_id})
        with progress:
            progress.notify_all()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with RefreshDriver(client, max_rate=1000.0, poll_interval=10.0) as driver:
            driver.on_refresh(insert_next)
            db.insert("pts", {"id": 0, "x": 0})
            with progress:
                while len(mirror) < 500:
                    held = len(mirror)
                    assert progress.wait_for(
                        lambda: len(mirror) > held, 1.0
                    ), f"wake-up lost at {held} rows"
    finally:
        sys.setswitchinterval(interval)


def test_a_long_transaction_delays_the_flag_one_heartbeat_and_costs_no_detach():
    """A NOTIFY sent inside an open transaction: the reader waits one
    heartbeat interval for the database, raises the flag anyway, and
    goes on answering PINGs -- the link never looks dead."""
    db, server, client, _mirror = make_stack(True, heartbeat_interval=HB)
    sent_at, release = [], threading.Event()

    def hold():
        with db.transaction():
            sent_at.append(time.monotonic())
            server.broadcast("pts", [("insert", 1)])
            release.wait(1.0)

    holder = threading.Thread(target=hold)
    holder.start()
    try:
        assert client.wait_dirty("pts", timeout=5.0)
        waited = time.monotonic() - sent_at[0]
        # Released by the bound, not by the end of the transaction.
        assert HB * 0.9 <= waited < 1.0, waited
    finally:
        release.set()
        holder.join()
    try:
        assert server.detaches == 0
        assert client.reconnects == 0
        assert client.status == client_mod.CONNECTED
    finally:
        client.close()
        server.close()


# ----------------------------------------------------------------------
# Tripwire: nothing in the sync package waits on a timer.
def timer_waits(source):
    """Line numbers of ``time.sleep(`` calls, and of ``self._stop.wait(``
    calls in ``RefreshDriver._loop``."""
    tree = ast.parse(source)
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "time.sleep"
    ]
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and cls.name == "RefreshDriver":
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "_loop":
                    lines += [
                        node.lineno
                        for node in ast.walk(fn)
                        if isinstance(node, ast.Call)
                        and ast.unparse(node.func) == "self._stop.wait"
                    ]
    return sorted(lines)


def test_the_sync_package_never_sleeps_or_polls():
    found = [
        f"{path.name}:{line}"
        for path in sorted(SYNC.glob("*.py"))
        for line in timer_waits(path.read_text())
    ]
    assert not found


def test_the_tripwire_fires_on_a_planted_offender():
    planted = (
        "import time\n"
        "class RefreshDriver:\n"
        "    def _loop(self):\n"
        "        self._stop.wait(0.005)\n"
        "        time.sleep(0.001)\n"
    )
    assert timer_waits(planted) == [4, 5]
