"""Rate-limited automatic refresh driver.

"Smooth visual interaction requires redisplaying the manipulated data
10 times per second" (Section I) and "the visualization software may
decide what are the appropriate moments to refresh the display"
(Section VI-C, step 8).  A :class:`RefreshDriver` is that decision,
packaged: a background thread, woken by the NOTIFY that raises a dirty
flag, pulls at most ``max_rate`` times per second per table -- NOTIFY
bursts coalesce into single refreshes, idle tables cost nothing.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from ..errors import SyncError
from ..obs.runtime import OBS
from .client import CLOSED, SyncClient

#: Called after each automatic refresh: (table, stats-dict).
RefreshListener = Callable[[str, dict[str, int]], None]


class RefreshDriver:
    """Background auto-refresher for one :class:`SyncClient`.

    ``poll_interval`` only bounds an idle wait: an intake, :meth:`stop`
    or a rate-limited table falling due wakes the thread, so no latency
    depends on it.
    """

    def __init__(
        self,
        client: SyncClient,
        max_rate: float = 10.0,
        poll_interval: float = 0.005,
    ) -> None:
        if max_rate <= 0:
            raise SyncError(f"max_rate must be positive, got {max_rate}")
        self.client = client
        self.min_period = 1.0 / max_rate
        self.poll_interval = poll_interval
        self._listeners: list[RefreshListener] = []
        self._last_refresh: dict[str, float] = {}
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        # Counters (tests and dashboards read these).
        self.refreshes = 0
        self.coalesced_rows = 0
        #: Refreshes that raised with the client still open, and the
        #: latest such error: a display that stopped following its table
        #: must not look like one whose table went quiet.
        self.refresh_errors = 0
        self.last_error: Optional[BaseException] = None

    # ------------------------------------------------------------------
    def on_refresh(self, listener: RefreshListener) -> None:
        self._listeners.append(listener)

    def start(self) -> None:
        """Start the background driver (idempotent)."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def stop(self, timeout: float = 2.0) -> None:
        """Stop the driver and wait for the thread to exit."""
        self._stop.set()
        with self.client._dirty_lock:
            self.client._dirty_lock.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None

    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def __enter__(self) -> "RefreshDriver":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def _loop(self) -> None:
        client, changed = self.client, self.client._dirty_lock
        while not self._stop.is_set():
            # The intake count is read with the set: a NOTIFY landing after
            # this read changes it, so the wait below cannot miss it.
            with changed:
                seen, dirty = client._intakes, set(client._dirty)
            wake_at = time.monotonic() + self.poll_interval
            for table in dirty:
                due = self._last_refresh.get(table, 0.0) + self.min_period
                if time.monotonic() < due:
                    wake_at = min(wake_at, due)
                    continue  # rate limit: let further NOTIFYs coalesce
                try:
                    self._refresh(table)
                except Exception as exc:
                    if client.status == CLOSED:
                        self._stop.set()  # nothing left to follow
                        return
                    # A failed pull leaves the table dirty: retried once
                    # min_period passed.
                    self.refresh_errors += 1
                    self.last_error = exc
                    OBS.metrics.counter("sync.refresher.errors", table=table).inc()
            with changed:
                changed.wait_for(
                    lambda: client._intakes != seen or self._stop.is_set(),
                    wake_at - time.monotonic(),
                )

    def _refresh(self, table: str) -> dict[str, int]:
        """One refresh of ``table`` with its bookkeeping -- the rate-limit
        clock, the counters, the listeners -- shared by the loop and
        :meth:`flush`.  A failed refresh still restarts the clock, then
        raises."""
        try:
            stats = self.client.refresh(table)
        finally:
            self._last_refresh[table] = time.monotonic()
        self.refreshes += 1
        self.coalesced_rows += stats.get("upserts", 0) + stats.get("deletes", 0)
        self._notify_listeners(table, stats)
        return stats

    def _notify_listeners(self, table: str, stats: dict[str, int]) -> None:
        """Fan stats out to listeners, inside the refresh's trace.

        When tracing is on, the just-completed refresh span becomes the
        parent for whatever the listeners do (delta application, layout,
        display updates), so the whole reaction shows up as one trace.
        Off, no span is started to look for a parent (and activating the
        ``None`` of a never-traced table is a no-op).
        """
        if not self._listeners:
            return
        with OBS.tracer.activate(self.client.last_refresh_context(table)):
            for listener in list(self._listeners):
                listener(table, stats)

    # ------------------------------------------------------------------
    def flush(self, table: str) -> dict[str, int]:
        """Refresh ``table`` immediately, bypassing the rate limit; the
        listeners hear it like any refresh of the loop."""
        return self._refresh(table)
