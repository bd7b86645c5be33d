"""Ablation A2: compact notify-then-pull vs shipping full tuples.

Design choice under test (DESIGN.md #1): "we keep [notifications] very
compact and transmit no more information than the above" -- a NOTIFY
carries only ``(table, seq_no, op)``; clients pull rows when *they*
decide to refresh.  The alternative pushes every changed row through the
socket immediately.

Why the paper's choice wins: under bursts, a display refreshing at its
own pace (say 10 fps) coalesces many notifications into one pull, while
push pays per-row serialization for every update whether or not a frame
will ever show it.  We measure both under a burst of K statements and
one consumer refresh.
"""

import json

import pytest

from benchmarks.support import SeriesTable, Timer
from repro.core import datamodel
from repro.db import Column, Database
from repro.db.types import FLOAT, INTEGER
from repro.sync import NotificationCenter, SyncClient, SyncServer
from repro.sync.protocol import encode

BURSTS = (10, 50, 100, 200)
ROWS_PER_STATEMENT = 20


def fresh_stack():
    db = Database()
    db.create_table(
        "pts",
        [Column("id", INTEGER, nullable=False), Column("x", FLOAT), Column("y", FLOAT)],
        primary_key="id",
    )
    center = NotificationCenter(db)
    server = SyncServer(db, center, use_sockets=False)
    client = SyncClient(server)
    client.mirror("pts")
    return db, center, server, client


def run_compact(db, client, n_statements, start_id):
    """The paper's protocol: compact notifies, one pull at the end."""
    next_id = start_id
    for _ in range(n_statements):
        rows = [
            {"id": next_id + i, "x": 0.0, "y": 0.0}
            for i in range(ROWS_PER_STATEMENT)
        ]
        next_id += ROWS_PER_STATEMENT
        db.insert_many("pts", rows)
    client.refresh("pts")  # one coalesced pull
    return next_id


def run_push_full(db, n_statements, start_id, sink):
    """Strawman: serialize and 'send' every changed row per statement."""
    next_id = start_id
    for _ in range(n_statements):
        rows = [
            {"id": next_id + i, "x": 0.0, "y": 0.0}
            for i in range(ROWS_PER_STATEMENT)
        ]
        next_id += ROWS_PER_STATEMENT
        db.insert_many("pts", rows)
        for row in rows:
            sink.append(encode({"type": "ROW", "table": "pts", "values": row}))
    return next_id


@pytest.fixture(scope="module")
def notification_table(emit, emit_json):
    table = SeriesTable("statements", ["compact_ms", "push_full_ms", "bytes_pushed"])
    for burst in BURSTS:
        db, center, server, client = fresh_stack()
        with Timer() as t_compact:
            run_compact(db, client, burst, start_id=1)
        client.close()
        server.close()

        db2 = Database()
        db2.create_table(
            "pts",
            [Column("id", INTEGER, nullable=False), Column("x", FLOAT), Column("y", FLOAT)],
            primary_key="id",
        )
        sink: list[bytes] = []
        with Timer() as t_push:
            run_push_full(db2, burst, start_id=1, sink=sink)
        table.add(
            burst,
            {
                "compact_ms": t_compact.ms,
                "push_full_ms": t_push.ms,
                "bytes_pushed": float(sum(len(b) for b in sink)),
            },
        )
    emit("\n== Ablation A2: compact notify-then-pull vs push-full-tuples "
         f"({ROWS_PER_STATEMENT} rows/statement, one refresh per burst) ==")
    emit(table.format())
    emit_json("ablation_notification", table)
    return table


def test_a2_notification_rows_stay_compact(notification_table, benchmark):
    db, center, server, client = fresh_stack()

    def kernel():
        db.insert_many("pts", [{"id": kernel.n + i, "x": 0.0, "y": 0.0} for i in range(50)])
        kernel.n += 50
        client.refresh("pts")

    kernel.n = 1
    benchmark(kernel)
    notifications = db.query(f"SELECT * FROM {datamodel.T_NOTIFICATION}")
    # One compact row per statement, regardless of rows per statement.
    for row in notifications:
        payload = json.dumps(row)
        assert len(payload) < 200
    client.close()
    server.close()


def test_a2_pushed_bytes_grow_linearly_with_rows(notification_table, benchmark):
    benchmark(lambda: None)
    sent = notification_table.series("bytes_pushed")
    xs = notification_table.xs()
    # Push-full bandwidth is proportional to rows; compact is per-statement.
    assert sent[-1] / sent[0] == pytest.approx(xs[-1] / xs[0], rel=0.1)


def test_a2_compact_not_slower_despite_pull(notification_table, benchmark):
    db, center, server, client = fresh_stack()
    state = {"next_id": 1}

    def kernel():
        state["next_id"] = run_compact(db, client, 10, state["next_id"])

    benchmark(kernel)
    compact = notification_table.series("compact_ms")
    push = notification_table.series("push_full_ms")
    # Compact may pay the pull, but stays within 3x of push at every
    # burst size while transmitting none of the row payloads.
    for c, p in zip(compact, push):
        assert c < max(p, 0.5) * 3.0
    client.close()
    server.close()
