"""Telemetry sink overhead: tracing+sink vs tracing alone.

The self-hosted telemetry pipeline (``repro.obs.store.TelemetrySink``)
must be cheap enough to leave on while a workload runs: draining the
tracer ring buffer, snapshotting metrics, and persisting both into the
``sys_*`` system tables is batched work that happens on collect cycles,
not per traced operation.  This bench pins that contract on the hottest
traced path -- the SQL point query -- by comparing

* **enabled**: ``Database.execute`` with tracing+metrics on, no sink;
* **enabled + sink**: the same workload with a TelemetrySink collecting
  and flushing every ``COLLECT_EVERY`` queries, the collection cost
  included in the measured loop.

The sink runs in its production configuration -- head sampling
(``SPAN_SAMPLE``) and bounded retention (``SPAN_RETENTION``
collections) -- because persisting *every* span of a microsecond-scale
workload costs about as much as the workload itself; sampling is how
tracing systems make always-on persistence affordable.  Metric values
are never sampled or approximated: only their *persistence* is
deduplicated (changed series between keyframes), so counters,
histograms, and quantiles stay exact.

The two arms go through ``benchmarks.paired.paired_overhead``: back to
back, so both sides of each ratio see the same thermal/frequency
conditions (CPU drift between two sequential blocks on shared hardware
otherwise dwarfs the ~3% signal).  The ``telemetry`` gate holds the median
pair to ``OVERHEAD_BUDGET``.

Scale with ``BENCH_SQL_ROWS`` (default 100k; CI smoke runs small).
"""

import repro.obs as obs
from repro.obs.store import TelemetrySink

from benchmarks.paired import paired_overhead, timed
from benchmarks.run_gates import GATES, OVERHEAD_BLOCK, overhead_line

#: Iterations per arm run (see bench_obs_overhead for rationale).
ITERS = 8000
#: One collect/flush cycle per this many queries.  Collection cadence
#: is the sink's amortization lever: production sinks collect on a time
#: interval (hundreds of ms), so one cycle per ~80 ms of query work is
#: already far more aggressive than the default ``start()`` cadence.
COLLECT_EVERY = 4000
#: Production sink configuration: persist 1 span in 100, keep the last
#: 8 collections of spans (metric values stay exact; only their
#: persistence is deduplicated between keyframes).
SPAN_SAMPLE = 0.01
SPAN_RETENTION = 8
OVERHEAD_BUDGET = 0.05  # the sink may cost at most 5% on top of tracing


def test_telemetry_sink_overhead(point_db, emit, emit_json):
    rows = len(point_db.table("emp"))
    sql = f"SELECT * FROM emp WHERE id = {rows // 2}"
    point_db.execute(sql)  # warm statement + plan caches

    def run_enabled():
        execute = point_db.execute
        for _ in range(ITERS):
            execute(sql)

    obs.enable()
    sink = None
    try:
        sink = TelemetrySink(span_sample=SPAN_SAMPLE, span_retention=SPAN_RETENTION)

        def run_with_sink():
            execute = point_db.execute
            for i in range(ITERS):
                execute(sql)
                if (i + 1) % COLLECT_EVERY == 0:
                    sink.collect_and_flush()

        run_enabled()  # warm both code paths once
        run_with_sink()
        result = paired_overhead(
            timed(run_enabled, 1000 / ITERS),
            timed(run_with_sink, 1000 / ITERS),
            GATES["telemetry"].pairs,
        )
        collections = sink.collections
        spans_stored = sink.counters()["spans_stored"]
        sampled_out = sink.sampled_out
    finally:
        if sink is not None:
            sink.close()
        obs.disable()
        obs.reset()

    block = result.block(OVERHEAD_BUDGET, "us")
    emit(
        f"\n== Telemetry sink overhead: SQL point query x{ITERS} ({rows} rows) ==\n"
        f"tracing enabled, no sink:  {result.baseline_median:.2f} us/query\n"
        f"tracing enabled + sink:    {result.treated_median:.2f} us/query\n"
        f"{overhead_line(block)}\n"
        f"collect cycles: {collections} (every {COLLECT_EVERY} queries), "
        f"{spans_stored} spans persisted, {sampled_out} sampled out "
        f"(rate {SPAN_SAMPLE}, retention {SPAN_RETENTION} collections)"
    )
    emit_json(
        "telemetry_overhead",
        {
            "rows": rows,
            "iterations": ITERS,
            "collect_every": COLLECT_EVERY,
            "span_sample": SPAN_SAMPLE,
            "span_retention": SPAN_RETENTION,
        },
        extra={OVERHEAD_BLOCK: block},
    )
