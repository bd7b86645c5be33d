"""``trickle_open``: small durable writes on a schedule, one live display.

Open loop: a tick is due every 4 ms whether or not the system kept up,
and its latency is stamped from the *due* time.  Each tick is one
``VisualAttributesStore.write`` of 4 new + 4 re-positioned existing items
(1 insert statement + 4 ``update_by_tid`` statements -> 5 NOTIFYs the
refresh driver coalesces) on a durable database with group commit.  The
display client is a ``SyncClient`` + ``RefreshDriver`` whose listener
pulls the changed rows into a ``Display``.  Per-*statement* costs
dominate: WAL append, trigger, NOTIFY encode, socket, reader thread,
driver wake-up, a small mirror delta.

After the open phase a closed *saturation burst* writes ticks back to
back and waits for the last frame: with the offered rate fixed, that is
the only phase whose throughput can move.  After each repetition the
directory is recovered and compared with the live database.
"""

from __future__ import annotations

import random
import statistics
import time
from pathlib import Path
from typing import Any

from repro.core import datamodel
from repro.db import FSYNC_INTERVAL, open_durable, recover
from repro.sync import NotificationCenter, RefreshDriver, SyncClient
from repro.vis import Display, VisualAttributesStore, VisualItem

import oracle
from harness import (
    WAIT_TIMEOUT_S,
    Rep,
    WireProbe,
    calibrate,
    pull_changed,
    server_health,
    traced_server,
    wal_stats,
)
from spans import Tracer

T_ATTRS = datamodel.T_VISUAL_ATTRIBUTES
TICK_RATE = 250.0
OPEN_TICKS = 1200
BURST_TICKS = 960
PRELOAD = 400
NEW_PER_TICK = 4
MOVED_PER_TICK = 4
TUPLES_PER_TICK = NEW_PER_TICK + MOVED_PER_TICK
STATEMENTS_PER_TICK = 1 + MOVED_PER_TICK
COMPONENT = 1


def make_inputs(seed: int, scale: float) -> dict[str, Any]:
    """Pre-built ticks; every item's label carries its tick number, so the
    display can tell which tick a row image is at least as new as."""
    rng = random.Random(seed)

    def item(obj_id: int, tick: int) -> VisualItem:
        return VisualItem(
            obj_id=obj_id, x=rng.uniform(0, 800), y=rng.uniform(0, 600),
            color="#e15759", label=str(tick),
        )

    open_ticks = max(8, round(OPEN_TICKS * scale))
    burst_ticks = max(8, round(BURST_TICKS * scale))
    preload = [item(obj_id, -1) for obj_id in range(1, PRELOAD + 1)]
    final = {it.obj_id: (it.x, it.y) for it in preload}
    ticks = []
    existing = PRELOAD
    for tick in range(open_ticks + burst_ticks):
        moved = rng.sample(range(1, existing + 1), MOVED_PER_TICK)
        new = range(existing + 1, existing + NEW_PER_TICK + 1)
        items = [item(obj_id, tick) for obj_id in (*new, *moved)]
        existing += NEW_PER_TICK
        ticks.append(items)
        final.update((it.obj_id, (it.x, it.y)) for it in items)
    return {
        "preload": preload, "ticks": ticks, "open_ticks": open_ticks, "final": final,
    }


def run_rep(inputs: dict[str, Any], tracer: Tracer, workdir: Path) -> Rep:
    # The schedule and the 1 ms polling sleeps set this workload's frame
    # latency and its open-phase rate, not the processor.
    rep = Rep(timer_driven=frozenset({"frame_ms", "throughput"}))
    probe = WireProbe(rep)
    ticks = inputs["ticks"]
    open_ticks = inputs["open_ticks"]

    built = time.perf_counter()
    db, manager = open_durable(
        workdir, fsync=FSYNC_INTERVAL, group_commits=256, group_interval_ms=50
    )
    center = NotificationCenter(db)
    server = traced_server(tracer, db, center)
    store = VisualAttributesStore(db)
    store.write(COMPONENT, inputs["preload"])
    client = SyncClient(server)
    mirror = client.mirror(T_ATTRS)
    driver = RefreshDriver(client, max_rate=500, poll_interval=0.001)
    display = Display("trickle")
    display.apply_rows(mirror.all_rows())
    rep.setup_s = time.perf_counter() - built

    client.on_notify(probe.hook)
    for attr in ("insert_many", "insert", "update_by_tid"):
        tracer.wrap(db, attr, "db.write", "db")
    tracer.wrap(manager.wal, "append", "db.wal.append", "db")
    tracer.wrap(manager.wal, "commit_point", "db.wal.commit_point", "db")
    tracer.wrap(center, "changes_since", "sync.center.changes_since", "sync")
    tracer.wrap(client, "refresh", "sync.client.refresh", "sync", probe.refresh_entry)
    tracer.wrap(store, "write", "vis.attributes.write", "vis")
    tracer.wrap(display, "apply_rows", "vis.display.apply", "vis")
    tracer.wrap(display, "refresh", "vis.display.refresh", "vis")

    due: list[float] = []  # due[n] exists once tick n is being written
    shown = [0]  # ticks whose 8 tuples the display holds
    cursor = [mirror.last_seq_no]

    def on_refresh(_table: str, _stats: dict[str, int]) -> None:
        # Never move the cursor past what the mirror already holds: rows
        # the writer committed since the driver's refresh come next time.
        upto = mirror.last_seq_no
        newest, changed = center.changes_since(T_ATTRS, cursor[0])
        cursor[0] = min(newest, upto)
        fresh = pull_changed(tracer, mirror, changed)
        display.apply_rows(fresh)
        display.refresh()
        now = time.perf_counter()
        rep.count("display_tuples", len(fresh))
        items = display.items

        def holds(tick: int) -> bool:
            for wanted in ticks[tick]:
                held = items.get(wanted.obj_id)
                if held is None or int(held.label) < tick:
                    return False
            return True

        tick = shown[0]
        while tick < len(due) and holds(tick):
            if tick < open_ticks:
                rep.sample("frame_ms", (now - due[tick]) * 1e3)
            tick += 1
        if tick > shown[0]:
            if shown[0] < open_ticks:
                rep.mark(min(tick, open_ticks) * TUPLES_PER_TICK)
            if tick > open_ticks:
                rep.mark((tick - open_ticks) * TUPLES_PER_TICK, "burst")
            shown[0] = tick

    def wait_shown(count: int) -> bool:
        deadline = time.monotonic() + WAIT_TIMEOUT_S
        while shown[0] < count and time.monotonic() < deadline:
            time.sleep(0.001)
        return shown[0] >= count

    def write_tick(tick: int) -> None:
        tracer.set_op(tick)
        with tracer.span("bench.op", "bench"):
            probe.writing(T_ATTRS)
            t0 = time.perf_counter()
            store.write(COMPONENT, ticks[tick])
            probe.wrote(T_ATTRS)
            if tick < open_ticks:
                rep.sample("write_ms", (time.perf_counter() - t0) * 1e3)
        # One slice every few ticks: a minority of ticks, so the medians
        # do not see the GIL time it takes from the display thread.
        if tick % (4 if tick < open_ticks else 16) == 0:
            calibrate(rep, tracer, 1)

    driver.on_refresh(on_refresh)
    wal_before = manager.stats()
    try:
        driver.start()
        with tracer.span("bench.rep", "bench"):
            start = time.perf_counter() + 0.02
            rep.mark(0)
            for tick in range(open_ticks):
                tick_due = start + tick / TICK_RATE
                with tracer.span("bench.pace", "bench"):
                    delay = tick_due - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                rep.sample("late_ms", (time.perf_counter() - tick_due) * 1e3)
                due.append(tick_due)
                write_tick(tick)
            with tracer.span("sync.wire.wait_shown", "sync"):
                wait_shown(open_ticks)
            rep.mark(0, "burst")
            for tick in range(open_ticks, len(ticks)):
                due.append(time.perf_counter())
                write_tick(tick)
            with tracer.span("sync.wire.wait_shown", "sync"):
                wait_shown(len(ticks))
        rep.attempted = len(ticks)
        rep.failed = len(ticks) - shown[0]
        rep.tuples = min(shown[0], open_ticks) * TUPLES_PER_TICK
        frames = rep.samples.get("frame_ms", [])
        quarter = len(frames) // 4
        if quarter:
            rep.counts["backlog_drift"] = statistics.median(
                frames[-quarter:]
            ) / statistics.median(frames[:quarter])
        rep.counts["statements"] = STATEMENTS_PER_TICK * len(ticks)
        rep.counts["write_tuples"] = TUPLES_PER_TICK * len(ticks)
        rep.counts["vis_tuples"] = rep.counts["write_tuples"]
        rep.counts["refresh_calls"] = driver.refreshes
        rep.counts["refresh_rows"] = driver.coalesced_rows
        rep.counts["frames"] = display.refreshes
        server_health(rep, server)
        driver.stop()
        wal_stats(rep, manager, since=wal_before)

        rep.problems += oracle.mirror_equals_table(mirror, db.table(T_ATTRS))
        rep.problems += oracle.display_equals(display, inputs["final"])
    finally:
        driver.stop()
        client.close()
        server.close()
        center.close()
        manager.close()
    t0 = time.perf_counter()
    with tracer.span("db.recover", "db"):
        recovered = recover(workdir)
    rep.counts["recover_ms"] = (time.perf_counter() - t0) * 1e3
    rep.problems += oracle.databases_equal(recovered, db)
    return rep
