"""Durability benchmarks: WAL overhead and recovery time.

Two questions, each with a paper-shaped answer:

* **What does the WAL cost on the insert pipeline?**  The Figure-8
  pipeline (authors -> visual attributes -> display, two machines over
  loopback sockets) runs once on a plain in-memory database and once per
  fsync policy on a durable one.  The overhead is the relative increase
  of the end-to-end batch time.  The gate: ``fsync=interval`` (group
  commit -- the policy a deployment would pick) must stay within
  ``OVERHEAD_GATE`` percent of the in-memory pipeline.
* **What does recovery cost?**  Recovery time is redo-bounded: it grows
  with the WAL tail length, and a checkpoint folds the tail into the
  snapshot so the redo pass restarts from zero.  We grow a log in
  committed batches, timing ``recover(dir)`` at each size, then
  checkpoint and show the redo pass is empty.

The gated pair (in-memory vs ``fsync=interval``) goes through
``benchmarks.paired.paired_overhead``: each pair runs both pipelines back
to back, so machine drift between pairs cancels out of the ratio, and the
``durability`` gate holds the median pair to ``OVERHEAD_GATE``.  The
``never`` / ``always`` policies are paired with each other the same way,
for the table.

Scale with ``BENCH_DURABILITY_BATCHES`` x ``BENCH_DURABILITY_ROWS``
(default 6 x 500; CI smoke runs small).
"""

import gc
import os
import time

import pytest

from repro.db import Database, open_durable, recover
from repro.db.durability import _recover

from benchmarks.fig8_pipeline import InsertPipeline
from benchmarks.paired import Arm, paired_overhead
from benchmarks.run_gates import GATES, OVERHEAD_BLOCK, overhead_line
from benchmarks.support import SeriesTable

BATCHES = int(os.environ.get("BENCH_DURABILITY_BATCHES", "6"))
BATCH_ROWS = int(os.environ.get("BENCH_DURABILITY_ROWS", "500"))
#: The regression gate: fsync=interval WAL overhead on the insert
#: pipeline, in percent.  CI re-checks the same number from the JSON.
OVERHEAD_GATE = 25.0
#: Group-commit tuning for the interval arm (the deployment profile:
#: the log-writer thread fsyncs every 50 ms, and the 256-commit count
#: trigger -- also the backpressure bound -- only caps pathological
#: bursts; steady-state commits never wait on the disk).
GROUP_COMMITS = 256
GROUP_INTERVAL_MS = 50.0


def _run_pipeline(database) -> float:
    """One pipeline run: warm-up batch, then BATCHES timed batches (ms)."""
    pipeline = InsertPipeline(database=database, use_sockets=True)
    try:
        pipeline.run_batch(100)
        gc.collect()
        start = time.perf_counter()
        for _ in range(BATCHES):
            pipeline.run_batch(BATCH_ROWS)
        return (time.perf_counter() - start) * 1000.0
    finally:
        pipeline.close()


def _open_arm(arm: str, directory):
    if arm == "interval":
        return open_durable(
            directory,
            name="fig8",
            fsync=arm,
            group_commits=GROUP_COMMITS,
            group_interval_ms=GROUP_INTERVAL_MS,
        )
    return open_durable(directory, name="fig8", fsync=arm)


# ----------------------------------------------------------------------
# WAL overhead on the Figure-8 insert pipeline
@pytest.fixture(scope="module")
def overhead_result(emit, emit_json, tmp_path_factory):
    stats = {}

    def durable(policy: str) -> Arm:
        def arm() -> float:
            directory = tmp_path_factory.mktemp(policy) / "data"
            database, manager = _open_arm(policy, directory)
            try:
                return _run_pipeline(database)
            finally:
                stats[policy] = manager.stats()
                manager.close()

        return arm

    interval = paired_overhead(
        lambda: _run_pipeline(Database("fig8")),
        durable("interval"),
        GATES["durability"].pairs,
    )
    always_over_never = paired_overhead(durable("never"), durable("always"), 4)

    medians = {
        "baseline": interval.baseline_median,
        "never": always_over_never.baseline_median,
        "interval": interval.treated_median,
        "always": always_over_never.treated_median,
    }
    table = SeriesTable(
        "batch_rows", [f"{arm}_ms" for arm in medians] + ["interval_overhead_pct"]
    )
    table.add(
        BATCH_ROWS,
        {f"{arm}_ms": ms for arm, ms in medians.items()}
        | {"interval_overhead_pct": 100.0 * interval.overhead},
    )
    block = interval.block(OVERHEAD_GATE / 100.0, "ms")
    emit(
        f"\n== WAL overhead on the Figure-8 insert pipeline, "
        f"{BATCHES} x {BATCH_ROWS} rows (sockets) =="
    )
    for arm, ms in medians.items():
        emit(f"  {arm:<9} {ms:9.1f} ms")
    emit(f"fsync=interval over in-memory: {overhead_line(block)}")
    emit_json(
        "durability",
        table,
        extra={
            "batches": BATCHES,
            "batch_rows": BATCH_ROWS,
            "wal": {
                arm: {k: s[k] for k in ("commits", "wal_appends", "wal_syncs", "wal_bytes")}
                for arm, s in stats.items()
            },
            OVERHEAD_BLOCK: block,
        },
    )
    return always_over_never


def test_never_policy_not_slower_than_always(overhead_result):
    """No-fsync logging must not cost more than fsync-per-commit."""
    assert overhead_result.overhead >= 1 / 1.15 - 1  # generous noise margin


# ----------------------------------------------------------------------
# Recovery time vs WAL length
@pytest.fixture(scope="module")
def recovery_result(emit, emit_json, tmp_path_factory):
    directory = tmp_path_factory.mktemp("recovery") / "data"
    database, manager = _open_arm("never", directory)
    database.execute("CREATE TABLE pts (id INTEGER PRIMARY KEY, x FLOAT, y FLOAT)")
    table = SeriesTable("committed_rows", ["wal_bytes", "recover_ms"])
    total = 0
    next_id = 1
    for _step in range(4):
        rows = []
        for _ in range(BATCHES * BATCH_ROWS // 4):
            rows.append({"id": next_id, "x": float(next_id), "y": 0.5 * next_id})
            next_id += 1
        database.insert_many("pts", rows)
        total += len(rows)
        manager.wal.sync()
        start = time.perf_counter()
        recovered = recover(directory)
        elapsed = (time.perf_counter() - start) * 1000.0
        assert len(recovered.table("pts")) == total
        table.add(total, {"wal_bytes": manager.stats()["wal_offset"],
                          "recover_ms": elapsed})

    # A checkpoint folds the tail into the snapshot: the redo pass is
    # empty and recovery cost is snapshot-load only, independent of how
    # long the log was before the checkpoint.
    manager.checkpoint()
    start = time.perf_counter()
    info = _recover(directory)
    post_checkpoint_ms = (time.perf_counter() - start) * 1000.0
    assert len(info.database.table("pts")) == total
    manager.close()

    emit(f"\n== recovery time vs WAL length ({total} committed rows) ==")
    emit(table.format(unit="ms"))
    emit(
        f"after checkpoint: {post_checkpoint_ms:.1f} ms "
        f"({info.replayed_txns} txns replayed)"
    )
    emit_json(
        "durability_recovery",
        table,
        extra={
            "post_checkpoint_ms": post_checkpoint_ms,
            "post_checkpoint_replayed_txns": info.replayed_txns,
        },
    )
    return table, info


def test_recovery_scales_with_wal_length(recovery_result):
    """More committed-but-uncheckpointed work -> longer redo pass."""
    table, _info = recovery_result
    if table.xs()[-1] < 1000:
        pytest.skip("redo tail too small to time reliably (CI smoke scale)")
    times = table.series("recover_ms")
    assert times[-1] >= times[0]  # monotone within noise at 4x the tail


def test_checkpoint_empties_redo_tail(recovery_result):
    """After a checkpoint recovery replays nothing: cost no longer
    depends on how much work preceded the checkpoint."""
    _table, info = recovery_result
    assert info.replayed_txns == 0
