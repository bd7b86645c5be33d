"""Continuous profiler overhead: Figure-8 pipeline, sampler on vs off.

The sampling profiler (``repro.obs.profiler``) is designed to stay on in
production: a 99 Hz daemon thread walking ``sys._current_frames()``
costs the *sampled* threads nothing directly -- the overhead is GIL
contention from the sampler's own work (one frame walk per live thread
per tick).  This bench pins that contract on the paper's headline
workload, the Figure-8 insert pipeline (DB write -> trigger -> NOTIFY ->
mirror refresh -> delta handler -> layout), by comparing:

* **baseline**: the pipeline with tracing+metrics enabled, no profiler;
* **profiled**: the same batches with the sampler running at
  ``BENCH_PROFILER_HZ`` and span attribution active.

The two arms go through ``benchmarks.paired.paired_overhead`` (back to
back, alternating order, median ratio with its quartiles); the verdict on
``OVERHEAD_BUDGET`` is the ``profiler`` gate's, from the emitted block.
What this file asserts itself is what no timing can: the run must produce
a non-empty flamegraph -- a sampler that costs nothing because it
observed nothing would pass a pure time gate.

Scale with ``BENCH_PROFILER_BATCH`` / ``BENCH_PROFILER_BATCHES``.
"""

import os

import repro.obs as obs

from benchmarks.fig8_pipeline import InsertPipeline
from benchmarks.paired import paired_overhead, timed
from benchmarks.run_gates import GATES, OVERHEAD_BLOCK, overhead_line

BATCH = int(os.environ.get("BENCH_PROFILER_BATCH", "500"))
BATCHES = int(os.environ.get("BENCH_PROFILER_BATCHES", "6"))
HZ = float(os.environ.get("BENCH_PROFILER_HZ", "99"))
#: The CI gate: continuous profiling may cost at most 5% wall time.
OVERHEAD_BUDGET = 0.05


def test_profiler_overhead(emit, emit_json):
    obs.enable()
    pipeline = InsertPipeline(use_sockets=False)
    try:
        pipeline.run_batch(BATCH)  # warm caches on both code paths

        def run() -> None:
            for _ in range(BATCHES):
                pipeline.run_batch(BATCH)

        baseline = timed(run)

        def profiled() -> float:
            obs.OBS.enable_profiler(hz=HZ)
            try:
                return baseline()
            finally:
                obs.OBS.disable_profiler()

        result = paired_overhead(baseline, profiled, GATES["profiler"].pairs)
        profiler = obs.OBS.profiler
        stats = profiler.stats()
        flame = obs.OBS.flamegraph()
        flame_lines = len([line for line in flame.splitlines() if line])
        hottest = profiler.hottest_spans(limit=5)
    finally:
        pipeline.close()
        obs.disable()
        obs.reset()

    block = result.block(OVERHEAD_BUDGET, "ms")
    emit(
        f"\n== Profiler overhead: Figure-8 pipeline, "
        f"{BATCHES}x{BATCH}-row batches at {HZ:g} Hz ==\n"
        f"baseline (tracing, no profiler): {result.baseline_median:.1f} ms\n"
        f"profiled (sampler running):      {result.treated_median:.1f} ms\n"
        f"{overhead_line(block)}\n"
        f"{stats['samples']} samples over {stats['distinct_stacks']} stacks, "
        f"{flame_lines} flamegraph lines; hottest spans: "
        + ", ".join(f"{h['span_name']} {h['self_ms']:.0f}ms" for h in hottest)
    )
    emit_json(
        "profiler_overhead",
        {
            "batch": BATCH,
            "batches": BATCHES,
            "hz": HZ,
            "samples": stats["samples"],
            "attributed_ms": stats["attributed_ms"],
            "distinct_stacks": stats["distinct_stacks"],
            "sampler_errors": stats["errors"],
            "flamegraph_lines": flame_lines,
            "hottest_spans": hottest,
        },
        extra={OVERHEAD_BLOCK: block},
    )
    assert flame_lines > 0, "profiled run produced an empty flamegraph"
    assert stats["errors"] == 0
