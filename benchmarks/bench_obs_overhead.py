"""Observability overhead: what the statement layer costs, off and on.

``Database.execute`` is one path: prepare (statement cache, plan cache),
then run under a span that is the shared no-op while tracing is off.
This bench prices that layer on the hottest instrumented statement --
the SQL point query -- in absolute microseconds:

* **floor**: the cached plan's ``to_list`` called directly -- the work
  the statement exists to do, with no statement layer around it;
* **disabled**: the public ``Database.execute`` with observability off;
* **enabled**: the public path with tracing on (spans + metrics), for
  context -- this one is allowed to cost real time.

``disabled - floor`` is the statement layer's own cost with tracing off
and must stay under ``STATEMENT_BUDGET_US``.  (The bench used to compare
``execute`` with a private untraced twin that differed from it by one
``if``; that difference was inside the timer's noise, so it gated
nothing.  There is no twin any more.)

Scale with ``BENCH_SQL_ROWS`` (default 100k; CI smoke runs small).
"""

import gc
import os
import random

import pytest

import repro.obs as obs
from repro.bench import Timer
from repro.db import Column, Database
from repro.db.types import INTEGER, TEXT

ROWS = int(os.environ.get("BENCH_SQL_ROWS", "100000"))
#: Iterations per timing sample; point queries are a few microseconds,
#: so each sample aggregates enough work to swamp timer resolution.
ITERS = 2000
#: Best-of-N sampling: scheduler hiccups and GC pauses otherwise
#: dominate single samples at this granularity.
SAMPLES = 5
#: What the statement layer (cache lookups, lock, no-op span, Result) may
#: cost per statement with tracing off: ~3x what it measures today, so
#: the gate trips on a second lookup or a stray allocation, not on a
#: slower CI host.
STATEMENT_BUDGET_US = 5.0


@pytest.fixture(scope="module")
def point_db():
    rng = random.Random(7)
    db = Database()
    db.create_table(
        "emp",
        [
            Column("id", INTEGER, nullable=False),
            Column("dept", TEXT),
            Column("salary", INTEGER),
        ],
        primary_key="id",
    )
    db.insert_many(
        "emp",
        [
            {"id": i, "dept": f"d{rng.randrange(20)}", "salary": rng.randrange(100_000)}
            for i in range(ROWS)
        ],
    )
    return db


def _best_of(fn, samples=SAMPLES):
    """Minimum wall-clock ms over ``samples`` runs of ``fn``."""
    best = float("inf")
    for _ in range(samples):
        gc.collect()
        with Timer() as t:
            fn()
        best = min(best, t.ms)
    return best


def test_disabled_obs_overhead_under_budget(point_db, emit, emit_json):
    sql = f"SELECT * FROM emp WHERE id = {ROWS // 2}"
    point_db.execute(sql)  # warm statement + plan caches
    plan = point_db.plan(sql)

    def run_floor():
        to_list = plan.to_list
        for _ in range(ITERS):
            to_list(point_db)

    def run_execute():
        execute = point_db.execute
        for _ in range(ITERS):
            execute(sql)

    obs.disable()
    floor_us = _best_of(run_floor) / ITERS * 1000
    disabled_us = _best_of(run_execute) / ITERS * 1000
    obs.enable()
    try:
        enabled_us = _best_of(run_execute) / ITERS * 1000
    finally:
        obs.disable()
        obs.reset()

    statement_off_us = disabled_us - floor_us
    statement_on_us = enabled_us - floor_us
    emit(
        f"\n== Observability overhead: SQL point query x{ITERS} ({ROWS} rows) ==\n"
        f"floor (cached plan.to_list):   {floor_us:.2f} us/query\n"
        f"execute, tracing off:          {disabled_us:.2f} us/query "
        f"(statement layer {statement_off_us:+.2f} us, "
        f"{disabled_us / floor_us:.2f}x floor)\n"
        f"execute, tracing + metrics on: {enabled_us:.2f} us/query "
        f"(statement layer {statement_on_us:+.2f} us, "
        f"{enabled_us / disabled_us:.2f}x tracing off)"
    )
    emit_json(
        "obs_overhead",
        {
            "rows": ROWS,
            "iterations": ITERS,
            "floor_us": floor_us,
            "disabled_us": disabled_us,
            "enabled_us": enabled_us,
            "statement_off_us": statement_off_us,
            "statement_on_us": statement_on_us,
            "budget_us": STATEMENT_BUDGET_US,
        },
    )
    assert statement_off_us < STATEMENT_BUDGET_US, (
        f"the statement layer costs {statement_off_us:.2f} us with tracing off "
        f"(budget {STATEMENT_BUDGET_US:.1f} us) -- "
        f"floor {floor_us:.2f} us vs execute {disabled_us:.2f} us"
    )
