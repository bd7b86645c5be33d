"""Propagation-policy benchmarks: batched & coalesced propagation.

Section V of the paper defines three propagation policies -- immediate
(P1), deferred to process completion (P2), and periodic (P3).  The
batching layer (``repro.db.policy``) implements them as per-edge
configuration; these benchmarks measure the trade they buy:

* **Burst-insert throughput**: one writer inserting ``BENCH_BATCH_ROWS``
  rows through the socket sync layer, fanned out to 1/8/32 clients, at
  flush batch sizes 1 (immediate) / 16 / 256 / 4096.  Immediate pays one
  NOTIFY frame per statement per client; a threshold policy coalesces a
  whole batch into (at most) one NOTIFYB frame per client.
* **NOTIFY-to-applied latency**: the price of batching -- a single
  change under a threshold policy waits up to ``max_delay_ms`` before
  the flush ships it.
* **State equivalence**: whatever the policy, the final mirror, view,
  and display states must be byte-identical -- batching reorders and
  coalesces the *wire traffic*, never the *outcome*.

The throughput gate (threshold-256 at least ``THROUGHPUT_GATE``x faster
than immediate at the largest fan-out) is asserted here and re-checked
by CI from ``BENCH_policy_batching.json``.

Scale with ``BENCH_BATCH_ROWS`` (default 10k; CI smoke runs small).
"""

import os
import statistics
import time

import pytest

from benchmarks.support import SeriesTable, Timer, speedup
from repro.db import Column, Database
from repro.db.schema import TID
from repro.db.types import INTEGER
from repro.ivm import SelectProjectView, ViewRegistry
from repro.sync import (
    IMMEDIATE,
    MANUAL,
    NotificationCenter,
    RefreshDriver,
    SyncClient,
    SyncServer,
    Threshold,
)
from repro.vis.display import Display

ROWS = int(os.environ.get("BENCH_BATCH_ROWS", "10000"))
BATCH_SIZES = (1, 16, 256, 4096)
CLIENT_COUNTS = (1, 8, 32)
#: The regression gate: threshold-256 must beat immediate by this factor
#: on burst-insert throughput at the largest fan-out.  CI re-checks the
#: same number from the emitted JSON.
THROUGHPUT_GATE = 3.0
#: Flush deadline for the latency arms (the batching tax upper bound).
LATENCY_DELAY_MS = 20.0


def _make_db() -> Database:
    db = Database()
    db.create_table(
        "pts",
        [Column("id", INTEGER, nullable=False), Column("x", INTEGER)],
        primary_key="id",
    )
    return db


def _stack(n_clients: int, use_sockets: bool):
    db = _make_db()
    center = NotificationCenter(db)
    server = SyncServer(db, center, use_sockets=use_sockets)
    clients = [SyncClient(server) for _ in range(n_clients)]
    mirrors = [client.mirror("pts") for client in clients]
    return db, center, server, clients, mirrors


def _teardown(center, server, clients) -> None:
    for client in clients:
        client.close()
    server.close()
    center.close()


def _policy_for(batch: int):
    if batch <= 1:
        return IMMEDIATE
    # Count-driven: the deadline is far beyond any bench run, so flushes
    # happen exactly every ``batch`` statements (plus one final flush).
    return Threshold(max_changes=batch, max_delay_ms=600_000.0)


def _wait_until(predicate, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.0005)
    return False


# ----------------------------------------------------------------------
# Burst-insert throughput: batch size x fan-out grid
@pytest.fixture(scope="module")
def throughput_result(emit, emit_json):
    table = SeriesTable("batch_size", [f"clients_{n}_ms" for n in CLIENT_COUNTS])
    grid_ms: dict[tuple[int, int], float] = {}
    for batch in BATCH_SIZES:
        values = {}
        for n_clients in CLIENT_COUNTS:
            db, center, server, clients, mirrors = _stack(
                n_clients, use_sockets=True
            )
            try:
                center.subscriptions["pts"].set_policy(_policy_for(batch))
                with Timer() as timer:
                    for i in range(ROWS):
                        db.insert("pts", {"id": i + 1, "x": i})
                    center.subscriptions["pts"].flush()
                    for client in clients:
                        client.refresh("pts")
                for mirror in mirrors:
                    assert len(mirror) == ROWS
            finally:
                _teardown(center, server, clients)
            values[f"clients_{n_clients}_ms"] = timer.ms
            grid_ms[(batch, n_clients)] = timer.ms
        table.add(batch, values)

    fan_out = CLIENT_COUNTS[-1]
    gate_speedup = speedup(grid_ms[(1, fan_out)], grid_ms[(256, fan_out)])
    extra = {
        "rows": ROWS,
        "client_counts": list(CLIENT_COUNTS),
        "throughput_gate": {
            "clients": fan_out,
            "immediate_ms": grid_ms[(1, fan_out)],
            "threshold_256_ms": grid_ms[(256, fan_out)],
            "speedup": gate_speedup,
            "required": THROUGHPUT_GATE,
        },
    }
    emit(f"\n== burst-insert propagation, {ROWS} rows (socket sync) ==")
    emit(table.format(unit="ms"))
    emit(
        f"threshold-256 vs immediate at {fan_out} clients: "
        f"{gate_speedup:.1f}x (gate {THROUGHPUT_GATE:.0f}x)"
    )
    emit_json("policy_batching", table, extra=extra)
    return grid_ms, gate_speedup


def test_batching_beats_immediate(throughput_result):
    """Threshold-256 clears the throughput gate at the largest fan-out."""
    _grid, gate_speedup = throughput_result
    assert gate_speedup >= THROUGHPUT_GATE


def test_batching_scales_with_fanout(throughput_result):
    """Batched propagation wins more the more clients listen."""
    grid, _gate = throughput_result
    few = speedup(grid[(1, CLIENT_COUNTS[0])], grid[(256, CLIENT_COUNTS[0])])
    many = speedup(grid[(1, CLIENT_COUNTS[-1])], grid[(256, CLIENT_COUNTS[-1])])
    assert many >= few * 0.8  # fan-out never erodes the win


# ----------------------------------------------------------------------
# NOTIFY-to-applied latency: the batching tax
@pytest.fixture(scope="module")
def latency_result(emit, emit_json):
    table = SeriesTable("batch_size", ["p50_ms", "p95_ms"])
    probes = 30
    for batch in (1, 16, 256):
        db, center, server, clients, mirrors = _stack(1, use_sockets=True)
        mirror = mirrors[0]
        try:
            if batch > 1:
                center.subscriptions["pts"].set_policy(
                    Threshold(max_changes=batch, max_delay_ms=LATENCY_DELAY_MS)
                )
            samples = []
            with RefreshDriver(clients[0], max_rate=500.0, poll_interval=0.001):
                for i in range(probes):
                    start = time.perf_counter()
                    db.insert("pts", {"id": i + 1, "x": i})
                    assert _wait_until(lambda: len(mirror) == i + 1)
                    samples.append((time.perf_counter() - start) * 1000.0)
        finally:
            _teardown(center, server, clients)
        samples.sort()
        table.add(
            batch,
            {
                "p50_ms": statistics.median(samples),
                "p95_ms": samples[min(len(samples) - 1, int(0.95 * len(samples)))],
            },
        )
    emit("\n== NOTIFY-to-applied latency, single change (socket sync) ==")
    emit(table.format(unit="ms"))
    emit_json(
        "policy_latency",
        table,
        extra={"probes": probes, "max_delay_ms": LATENCY_DELAY_MS},
    )
    return table


def test_batched_latency_bounded_by_deadline(latency_result):
    """A lone change under a threshold policy ships within max_delay_ms
    (plus scheduling slack), never unboundedly late."""
    for x, values in latency_result.rows:
        if x > 1:
            assert values["p50_ms"] < LATENCY_DELAY_MS * 10


def test_immediate_latency_beats_batched(latency_result):
    """Immediate is the low-latency end of the trade-off."""
    by_batch = {x: values for x, values in latency_result.rows}
    assert by_batch[1]["p50_ms"] <= by_batch[256]["p50_ms"]


# ----------------------------------------------------------------------
# State equivalence: policies change traffic, never outcomes
def _visible(row):
    return tuple(
        sorted((k, v) for k, v in row.items() if not k.startswith("__"))
    )


def _run_workload_under(policy):
    """Insert/update/delete churn under one policy; return final states."""
    db, center, server, clients, mirrors = _stack(1, use_sockets=False)
    client, mirror = clients[0], mirrors[0]
    registry = ViewRegistry(db)
    registry.register(SelectProjectView("all_pts", "pts"))
    for edge in db.subscriptions("pts"):  # the mirror's and the view's
        edge.set_policy(policy)
    display = Display(name="bench")
    try:
        n = min(ROWS, 2000)
        tids = []
        for i in range(n):
            tids.append(db.insert("pts", {"id": i + 1, "x": i})[TID])
        for i in range(0, n, 2):  # churn: update every other row...
            db.update_by_tid("pts", tids[i], {"x": i * 10})
        db.delete_by_tids("pts", tids[::5])  # ...and delete every fifth
        for edge in db.subscriptions():
            edge.flush()
        client.refresh("pts")
        display.apply_snapshot(
            {
                "obj_id": row["id"],
                "x": float(row["x"]),
                "y": 0.0,
                "width": None,
                "height": None,
                "color": None,
                "label": None,
                "selected": False,
            }
            for row in mirror.all_rows()
        )
        return (
            sorted(_visible(row) for row in mirror.all_rows()),
            sorted(_visible(row) for row in registry.rows("all_pts")),
            sorted(
                (item.obj_id, item.x) for item in display.items.values()
            ),
        )
    finally:
        _teardown(center, server, clients)


def test_final_state_identical_across_policies(emit):
    """P1/P2/P3 produce byte-identical mirror, view, and display state."""
    arms = {
        "immediate": IMMEDIATE,
        "threshold": Threshold(max_changes=64, max_delay_ms=600_000.0),
        "manual": MANUAL,
    }
    states = {name: _run_workload_under(policy) for name, policy in arms.items()}
    baseline = states["immediate"]
    assert baseline[0], "workload produced no surviving rows"
    for name, state in states.items():
        assert state == baseline, f"policy {name} diverged from immediate"
    emit(
        "\n== state equivalence ==\n"
        f"{len(baseline[0])} rows identical across {sorted(arms)} "
        "(mirror, view, display)"
    )
