"""The rate-limited automatic refresh driver."""

import threading
import time

import pytest

from repro.db import Column
from repro.db.types import INTEGER
from repro.errors import SyncError
from repro.sync import NotificationCenter, RefreshDriver, SyncClient, SyncServer


@pytest.fixture(params=["inprocess", "sockets"])
def stack(request, db):
    db.create_table(
        "pts", [Column("id", INTEGER, nullable=False), Column("x", INTEGER)],
        primary_key="id",
    )
    server = SyncServer(
        db, NotificationCenter(db), use_sockets=request.param == "sockets"
    )
    client = SyncClient(server)
    mirror = client.mirror("pts")
    yield db, server, client, mirror
    client.close()
    server.close()


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


class TestDriver:
    def test_auto_refresh_applies_changes(self, stack):
        db, _server, client, mirror = stack
        with RefreshDriver(client, max_rate=100.0) as driver:
            db.insert("pts", {"id": 1, "x": 10})
            assert wait_until(lambda: len(mirror) == 1)
            assert driver.refreshes >= 1

    def test_burst_coalesces_under_rate_limit(self, stack):
        db, _server, client, mirror = stack
        with RefreshDriver(client, max_rate=5.0) as driver:
            # 30 statements in a burst far above the 5 Hz budget.
            for i in range(30):
                db.insert("pts", {"id": i + 1, "x": i})
            assert wait_until(lambda: len(mirror) == 30)
            # Many notifications, few refreshes.
            assert driver.refreshes < 10
            assert client.notify_received >= 30 or not client.server.use_sockets

    def test_idle_tables_cost_nothing(self, stack):
        _db, _server, client, _mirror = stack
        with RefreshDriver(client, max_rate=100.0) as driver:
            time.sleep(0.05)
            assert driver.refreshes == 0

    def test_flush_bypasses_rate_limit(self, stack):
        db, _server, client, mirror = stack
        driver = RefreshDriver(client, max_rate=0.1)  # one per 10s
        db.insert("pts", {"id": 1, "x": 1})
        if client.server.use_sockets:
            assert client.wait_dirty("pts")
        stats = driver.flush("pts")
        assert stats["upserts"] == 1
        assert len(mirror) == 1

    def test_flush_reaches_the_listeners(self, stack):
        """``flush`` used to skip the loop's bookkeeping: a display bound
        to a ``RefreshDriver`` never showed a flushed change, and the
        running loop found the table clean afterwards."""
        db, _server, client, _mirror = stack
        heard = []
        driver = RefreshDriver(client, max_rate=0.1)
        driver.on_refresh(lambda table, stats: heard.append((table, stats)))
        db.insert("pts", {"id": 1, "x": 1})
        if client.server.use_sockets:
            assert client.wait_dirty("pts")
        stats = driver.flush("pts")
        assert heard == [("pts", stats)]
        assert driver.refreshes == 1
        assert driver.coalesced_rows == 1

    def test_start_stop_idempotent(self, stack):
        _db, _server, client, _mirror = stack
        driver = RefreshDriver(client)
        driver.start()
        driver.start()  # no second thread
        assert driver.running()
        driver.stop()
        assert not driver.running()
        driver.stop()  # harmless

    def test_listener_callbacks(self, stack):
        db, _server, client, mirror = stack
        events = []
        with RefreshDriver(client, max_rate=100.0) as driver:
            driver.on_refresh(lambda table, stats: events.append((table, stats)))
            db.insert("pts", {"id": 1, "x": 1})
            assert wait_until(lambda: events)
        table, stats = events[0]
        assert table == "pts"
        assert stats["upserts"] >= 1

    def test_invalid_rate(self, stack):
        _db, _server, client, _mirror = stack
        with pytest.raises(SyncError):
            RefreshDriver(client, max_rate=0)

    def test_driver_survives_client_close(self, stack):
        db, _server, client, _mirror = stack
        driver = RefreshDriver(client, max_rate=100.0)
        driver.start()
        db.insert("pts", {"id": 1, "x": 1})
        wait_until(lambda: driver.refreshes >= 1)
        client.close()
        db.insert("pts", {"id": 2, "x": 2})
        time.sleep(0.05)
        driver.stop()  # must not hang or raise

    def test_a_transient_refresh_error_is_counted_and_retried(self, stack, monkeypatch):
        """One raising refresh with the client still open used to stop the
        driver for good, silently: a frozen display that looks quiet."""
        db, _server, client, mirror = stack
        reader = client.center.events_since
        failures = []

        def flaky(table, last_seq_no):
            if not failures:
                failures.append(table)
                raise OSError("transient")
            return reader(table, last_seq_no)

        monkeypatch.setattr(client.center, "events_since", flaky)
        with RefreshDriver(client, max_rate=100.0) as driver:
            db.insert("pts", {"id": 1, "x": 1})
            assert wait_until(lambda: len(mirror) == 1)
            assert driver.running()
            assert driver.refresh_errors == 1
            assert isinstance(driver.last_error, OSError)
            assert driver.refreshes >= 1
        assert failures == ["pts"]
        assert client.dirty_tables() == set()


class TestConcurrencyRegressions:
    """Races between the driver loop, explicit flushes, and purging."""

    @pytest.mark.parametrize("stack", ["sockets"], indirect=True)  # NOTIFY frames raise the flag
    def test_a_notify_that_lands_during_a_refresh_keeps_its_flag(self, stack, monkeypatch):
        """``refresh`` used to clear the dirty flag after its pull, so a
        commit between the pull and the clearing lost its flag: a driven
        display stayed one tick behind a table that then went quiet."""
        db, _server, client, mirror = stack
        db.insert("pts", {"id": 1, "x": 1})
        assert client.wait_dirty("pts")
        fold = mirror.apply_batch

        def fold_then_commit(upserts, deletes):
            fold(upserts, deletes)
            monkeypatch.setattr(mirror, "apply_batch", fold)
            received = client.notify_received
            db.insert("pts", {"id": 2, "x": 2})  # after the pull, inside the refresh
            assert wait_until(lambda: client.notify_received > received)

        monkeypatch.setattr(mirror, "apply_batch", fold_then_commit)
        client.refresh("pts")
        assert len(mirror) == 1
        assert client.dirty_tables() == {"pts"}
        client.refresh("pts")
        assert len(mirror) == 2
        assert client.dirty_tables() == set()

    def test_flush_vs_loop_never_double_applies(self, stack):
        """driver.flush and the _loop thread racing on one table must not
        both consume the same changes_since window (refreshes of a table
        are serialized in the client)."""
        db, _server, client, mirror = stack
        stop = threading.Event()
        errors = []

        def flusher():
            while not stop.is_set():
                try:
                    client.refresh("pts")
                except Exception as exc:  # pragma: no cover - the bug
                    errors.append(exc)
                    return

        thread = threading.Thread(target=flusher, daemon=True)
        with RefreshDriver(client, max_rate=1000.0, poll_interval=0.0005):
            thread.start()
            for i in range(200):
                db.insert("pts", {"id": i + 1, "x": i})
            assert wait_until(lambda: len(mirror) == 200)
            stop.set()
            thread.join(timeout=5.0)
        assert not errors
        client.refresh("pts")
        # An insert-only workload pulled twice would re-apply existing
        # rows as updates; serialized refreshes never do.
        assert mirror.applied_updates == 0
        assert mirror.applied_inserts == 200

    def test_refresh_vs_purge_race(self, stack):
        """A concurrent purge must never shift a changes_since scan: the
        snapshot is taken under the database lock (regression for the
        RefreshDriver.flush / NotificationCenter.purge race)."""
        db, server, client, mirror = stack
        stop = threading.Event()
        errors = []

        def purger():
            while not stop.is_set():
                try:
                    server.purge_notifications()
                except Exception as exc:  # pragma: no cover - the bug
                    errors.append(exc)
                    return

        thread = threading.Thread(target=purger, daemon=True)
        thread.start()
        try:
            for i in range(300):
                db.insert("pts", {"id": i + 1, "x": i})
                if i % 7 == 0:
                    client.refresh("pts")
        finally:
            stop.set()
            thread.join(timeout=5.0)
        assert not errors
        client.refresh("pts")
        rows = {r["id"]: r["x"] for r in mirror.all_rows()}
        assert rows == {i + 1: i for i in range(300)}
