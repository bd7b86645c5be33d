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

``disabled`` over ``floor`` is the statement layer's own cost with tracing
off.  The two arms go through ``benchmarks.paired.paired_overhead`` and
the ``obs`` gate holds the median pair to ``STATEMENT_BUDGET_US``, stated
relative to the floor arm's median like every overhead budget.  (The
bench used to compare ``execute`` with a private untraced twin that
differed from it by one ``if``; that difference was inside the timer's
noise, so it gated nothing.  There is no twin any more.)

Scale with ``BENCH_SQL_ROWS`` (default 100k; CI smoke runs small).
"""

import repro.obs as obs

from benchmarks.paired import paired_overhead, timed
from benchmarks.run_gates import GATES, OVERHEAD_BLOCK, overhead_line

#: Iterations per arm run; point queries are a few microseconds, so each
#: run aggregates enough work to swamp timer resolution.
ITERS = 2000
#: What the statement layer (cache lookups, lock, no-op span, Result) may
#: cost per statement with tracing off: ~3x what it measures today, so
#: the gate trips on a second lookup or a stray allocation, not on a
#: slower CI host.
STATEMENT_BUDGET_US = 5.0


def test_disabled_obs_overhead(point_db, emit, emit_json):
    rows = len(point_db.table("emp"))
    sql = f"SELECT * FROM emp WHERE id = {rows // 2}"
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

    pairs = GATES["obs"].pairs
    floor, execute = timed(run_floor, 1000 / ITERS), timed(run_execute, 1000 / ITERS)
    obs.disable()
    off = paired_overhead(floor, execute, pairs)

    def traced() -> float:
        obs.enable()
        try:
            return execute()
        finally:
            obs.disable()

    try:
        on = paired_overhead(execute, traced, pairs)  # context: not gated
    finally:
        obs.reset()

    floor_us, disabled_us = off.baseline_median, off.treated_median
    block = off.block(STATEMENT_BUDGET_US / floor_us, "us")
    emit(
        f"\n== Observability overhead: SQL point query x{ITERS} ({rows} rows) ==\n"
        f"floor (cached plan.to_list):   {floor_us:.2f} us/query\n"
        f"execute, tracing off:          {disabled_us:.2f} us/query "
        f"(statement layer {disabled_us - floor_us:+.2f} us of "
        f"{STATEMENT_BUDGET_US:.1f} us)\n"
        f"{overhead_line(block)}\n"
        f"execute, tracing + metrics on: {on.treated_median:.2f} us/query "
        f"({on.overhead:+.1%} over tracing off, "
        f"[Q1, Q3] = [{on.q1:+.1%}, {on.q3:+.1%}])"
    )
    emit_json(
        "obs_overhead",
        {
            "rows": rows,
            "iterations": ITERS,
            "budget_us": STATEMENT_BUDGET_US,
            "enabled_us": on.treated_median,
            "enabled_over_disabled": [on.q1, on.overhead, on.q3],
        },
        extra={OVERHEAD_BLOCK: block},
    )
