"""Metric names, units and the reductions from repetitions to values.

End-to-end values come from the untraced repetitions only: per-operation
samples are reduced per repetition (median), and the reported value is
the median over the measured repetitions, with min/max over repetitions
as ``spread`` and the total sample count as ``n``.  Per-layer values are
counts read at the call boundary or from the program's public counters,
and self times from the traced repetitions' spans.

Every *time* is reported at reference speed: divided by the repetition's
``slowdown`` (observed / reference duration of the calibration slices
interleaved with its operations; see ``harness.REFERENCE_SLICE_S``).  The
raw median is kept beside it as ``raw``, and ``bench.host_slowdown_ratio``
says how far from reference speed the host ran.  Counts, ratios and
memory are as counted.
"""

from __future__ import annotations

import statistics
from typing import Any, Callable

from harness import DEADLINE_MS, Rep, quantile, ratio
from spans import END, LAYER, NAME, PARENT, START, Tracer

#: (name, unit, better) -- defined on every workload, never zero.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("tuples_per_s", "tuples/s", "higher"),
    ("frame_latency_p50_ms", "ms", "lower"),
    ("write_batch_p50_ms", "ms", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
]

#: (name, unit, better); the prefix is the ``src/repro`` layer.  A metric
#: a workload does not exercise reads 0 there (the predicted-no-change
#: cells of the README's layer map).
PER_LAYER = [
    ("db.write.self_us_per_tuple", "us", "lower"),
    ("db.write.calls", "count", "lower"),
    ("db.write.tuples", "count", "higher"),
    ("db.wal.append_us_per_commit", "us", "lower"),
    ("db.wal.appends_per_statement", "count", "lower"),
    ("db.wal.bytes_per_tuple", "bytes", "lower"),
    ("db.wal.syncs", "count", "lower"),
    ("db.recover_ms", "ms", "lower"),
    ("db.stmt_cache.hit_ratio", "ratio", "higher"),
    ("db.plan_cache.hit_ratio", "ratio", "higher"),
    ("db.point_query_p50_us", "us", "lower"),
    ("db.range_query_p50_ms", "ms", "lower"),
    ("db.agg_query_p50_ms", "ms", "lower"),
    ("sync.broadcast.self_us_per_call", "us", "lower"),
    ("sync.broadcast.calls", "count", "lower"),
    ("sync.wire.notify_to_hook_ms_p50", "ms", "lower"),
    ("sync.client.wakeup_wait_ms_p50", "ms", "lower"),
    ("sync.client.refresh.self_ms_per_call", "ms", "lower"),
    ("sync.client.refresh.calls", "count", "lower"),
    ("sync.client.rows_per_refresh", "count", "higher"),
    ("sync.center.changes_since.self_us_per_call", "us", "lower"),
    ("sync.center.purge.self_ms_per_call", "ms", "lower"),
    ("sync.wire.bytes_per_delivery", "bytes", "lower"),
    ("sync.deliveries_per_s", "frames/s", "higher"),
    ("sync.server.loop_lag_p99_ms", "ms", "lower"),
    ("sync.server.poll_idle_ratio", "ratio", "higher"),
    ("sync.server.queue_hiwat_frames", "count", "lower"),
    ("sync.server.evictions", "count", "lower"),
    ("ivm.delta_apply.self_us_per_tuple", "us", "lower"),
    ("ivm.delta_rows", "count", "lower"),
    ("ivm.view_read.self_us_per_call", "us", "lower"),
    ("vis.attributes.write.self_us_per_tuple", "us", "lower"),
    ("vis.display.apply.self_us_per_tuple", "us", "lower"),
    ("vis.display.frames", "count", "lower"),
    ("bench.frame_latency_p99_ms", "ms", "lower"),
    ("bench.deadline_100ms_miss_ratio", "ratio", "lower"),
    ("bench.generator_late_p99_ms", "ms", "lower"),
    ("bench.saturation_tuples_per_s", "tuples/s", "higher"),
    ("bench.cold_rep_ratio", "ratio", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
    ("bench.unattributed_ratio", "ratio", "lower"),
    ("bench.host_slowdown_ratio", "ratio", "lower"),
]

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


def _over_reps(
    reps: list[Rep],
    raw: Callable[[Rep], float],
    at_reference: Callable[[Rep], float],
    n: int,
) -> dict[str, Any]:
    values = [at_reference(rep) for rep in reps]
    return {
        "value": statistics.median(values),
        "raw": statistics.median(raw(rep) for rep in reps),
        "spread": [min(values), max(values)],
        "n": n,
    }


def _samples(reps: list[Rep], series: str) -> int:
    return sum(len(rep.samples.get(series, ())) for rep in reps)


def end_to_end(
    import_s: float, import_slowdown: float, reps: list[Rep], peak_rss_mb: float
) -> dict[str, Any]:
    """The end-to-end metrics of one untraced run (``reps`` are measured)."""

    def series(name: str) -> dict[str, Any]:
        return _over_reps(
            reps,
            lambda r: r.median(name),
            lambda r: r.at_reference(name),
            _samples(reps, name),
        )

    out = {
        "setup_s": _over_reps(
            reps,
            lambda r: import_s + r.setup_s,
            lambda r: import_s / import_slowdown + r.setup_s / r.slowdown,
            len(reps),
        ),
        "tuples_per_s": _over_reps(
            reps,
            lambda r: r.tuples_per_s(),
            lambda r: r.rate_at_reference(),
            sum(r.tuples for r in reps),
        ),
        "frame_latency_p50_ms": series("frame_ms"),
        "write_batch_p50_ms": series("write_ms"),
        "peak_rss_mb": {
            "value": peak_rss_mb, "raw": peak_rss_mb, "spread": [peak_rss_mb] * 2,
            "n": 1,
        },
    }
    for name, metric in out.items():
        metric["unit"] = UNITS[name]
    return out


def layer_shares(tracer: Tracer, bounds: tuple[int, int]) -> dict[str, float]:
    """Share of the generator thread's repetition wall per layer.

    The generator thread's spans form one tree under ``bench.rep``, so
    their self times sum to the repetition's wall exactly; spans of other
    threads (reader, refresh driver) overlap it and are left out, as is
    what the generator does after the repetition (``recover``).
    """
    first, last = bounds
    spans = tracer.spans
    root = next(i for i in range(first, last) if spans[i][NAME] == "bench.rep")
    wall = spans[root][END] - spans[root][START]
    self_ns = tracer.self_times(first, last)
    inside = {root}
    shares: dict[str, float] = {}
    for index in range(root, last):
        span = spans[index]
        if index == root or span[PARENT] in inside:
            inside.add(index)
            shares[span[LAYER]] = shares.get(span[LAYER], 0.0) + self_ns[index]
    return {layer: ns / wall for layer, ns in sorted(shares.items())}


def _unattributed(stats: dict[str, dict[str, float]]) -> float:
    def field(name: str, key: str) -> float:
        return stats.get(name, {}).get(key, 0.0)

    loose = field("bench.rep", "self_ns") + field("bench.op", "self_ns")
    idle = field("bench.pace", "total_ns") + field("bench.calibrate", "total_ns")
    return ratio(loose, field("bench.rep", "total_ns") - idle)


def per_layer(
    warm: Rep,
    untraced: list[Rep],
    traced: list[Rep],
    tracer: Tracer,
    bounds: list[tuple[int, int]],
) -> dict[str, Any]:
    """The per-layer metrics of one traced run."""
    per_rep: list[dict[str, float]] = []
    for rep, rep_bounds in zip(traced, bounds):
        stats = tracer.summary(*rep_bounds)
        counts = rep.counts

        def self_per(name: str, divisor: float, scale: float) -> float:
            self_ns = stats.get(name, {}).get("self_ns", 0.0) / rep.slowdown
            return ratio(self_ns / scale, divisor)

        def calls(name: str) -> float:
            return stats.get(name, {}).get("calls", 0)

        def count(key: str) -> float:
            return counts.get(key, 0)

        wal_ns = sum(
            stats.get(name, {}).get("total_ns", 0.0)
            for name in ("db.wal.append", "db.wal.commit_point")
        )
        per_rep.append(
            {
                "db.write.self_us_per_tuple": self_per(
                    "db.write", count("write_tuples"), 1e3
                ),
                "db.write.calls": count("statements"),
                "db.write.tuples": count("write_tuples"),
                "db.wal.append_us_per_commit": ratio(
                    wal_ns / rep.slowdown / 1e3, count("commits")
                ),
                "db.wal.appends_per_statement": ratio(
                    count("wal_appends"), count("statements")
                ),
                "db.wal.bytes_per_tuple": ratio(
                    count("wal_bytes"), count("write_tuples")
                ),
                "db.wal.syncs": count("wal_syncs"),
                "db.recover_ms": count("recover_ms") / rep.slowdown,
                "db.stmt_cache.hit_ratio": ratio(
                    count("stmt_hits"), count("stmt_hits") + count("stmt_misses")
                ),
                "db.plan_cache.hit_ratio": ratio(
                    count("plan_hits"), count("plan_hits") + count("plan_misses")
                ),
                "sync.broadcast.self_us_per_call": self_per(
                    "sync.broadcast", calls("sync.broadcast"), 1e3
                ),
                "sync.broadcast.calls": calls("sync.broadcast"),
                "sync.client.wakeup_wait_ms_p50": rep.at_reference("wakeup_wait_ms"),
                "sync.client.refresh.self_ms_per_call": self_per(
                    "sync.client.refresh", calls("sync.client.refresh"), 1e6
                ),
                "sync.client.refresh.calls": calls("sync.client.refresh"),
                "sync.client.rows_per_refresh": ratio(
                    count("refresh_rows"), count("refresh_calls")
                ),
                "sync.center.changes_since.self_us_per_call": self_per(
                    "sync.center.changes_since",
                    calls("sync.center.changes_since"),
                    1e3,
                ),
                "sync.center.purge.self_ms_per_call": self_per(
                    "sync.center.purge", calls("sync.center.purge"), 1e6
                ),
                "sync.wire.bytes_per_delivery": ratio(
                    count("wire_bytes"), count("deliveries")
                ),
                "sync.server.loop_lag_p99_ms": count("loop_lag_p99_ms"),
                "sync.server.poll_idle_ratio": count("poll_idle_ratio"),
                "sync.server.queue_hiwat_frames": count("queue_hiwat_frames"),
                "sync.server.evictions": count("evictions"),
                "ivm.delta_apply.self_us_per_tuple": self_per(
                    "ivm.delta_apply", count("ivm_delta_rows"), 1e3
                ),
                "ivm.delta_rows": count("ivm_delta_rows"),
                "ivm.view_read.self_us_per_call": self_per(
                    "ivm.view_read", calls("ivm.view_read"), 1e3
                ),
                "vis.attributes.write.self_us_per_tuple": self_per(
                    "vis.attributes.write", count("vis_tuples"), 1e3
                ),
                "vis.display.apply.self_us_per_tuple": self_per(
                    "vis.display.apply", count("display_tuples"), 1e3
                ),
                "vis.display.frames": count("frames"),
                "bench.unattributed_ratio": _unattributed(stats),
            }
        )
    values = {
        name: statistics.median(rep_values[name] for rep_values in per_rep)
        for name in per_rep[0]
    }

    # Timings the trace would distort come from the untraced repetitions.
    def untraced_median(series: str) -> float:
        return statistics.median(rep.at_reference(series) for rep in untraced)

    def pooled(series: str) -> list[float]:
        return [
            value * rep.scale(series)
            for rep in untraced
            for value in rep.samples.get(series, ())
        ]

    frames = pooled("frame_ms")

    def write_p50(reps: list[Rep]) -> float:
        return statistics.median(rep.at_reference("write_ms") for rep in reps)

    values.update(
        {
            "db.point_query_p50_us": untraced_median("point_us"),
            "db.range_query_p50_ms": untraced_median("range_ms"),
            "db.agg_query_p50_ms": untraced_median("agg_ms"),
            "sync.wire.notify_to_hook_ms_p50": untraced_median("notify_to_hook_ms"),
            "sync.deliveries_per_s": statistics.median(
                rep.rate_at_reference()
                * ratio(rep.counts.get("deliveries", 0), rep.tuples)
                for rep in untraced
            ),
            "bench.frame_latency_p99_ms": quantile(frames, 0.99),
            "bench.deadline_100ms_miss_ratio": ratio(
                sum(1 for v in frames if v > DEADLINE_MS), len(frames)
            ),
            "bench.generator_late_p99_ms": quantile(pooled("late_ms"), 0.99),
            "bench.saturation_tuples_per_s": statistics.median(
                rep.rate_at_reference("burst") for rep in untraced
            ),
            "bench.cold_rep_ratio": ratio(write_p50([warm]), write_p50(untraced)),
            "bench.trace_overhead_ratio": ratio(write_p50(traced), write_p50(untraced)),
            "bench.host_slowdown_ratio": statistics.median(
                rep.slowdown for rep in untraced + traced
            ),
        }
    )
    return {
        name: {"value": values[name], "unit": unit, "n": len(traced)}
        for name, unit, _ in PER_LAYER
    }
