"""The continuous sampling profiler: lifecycle, attribution, self-hosting.

Covers the ISSUE-10 contracts: start/stop idempotency, the sampler never
profiling itself (or any suppressed thread), span attribution with
``self_time_ms`` tags, >=90% wall-time attribution on a busy run,
flamegraph export, concurrent sink drains under an active sampler, and
retention pruning of ``sys_profiles`` / ``sys_stacks``.
"""

import threading
import time

import pytest

import repro.obs as obs
from repro.obs import SamplingProfiler, collapse_frames
from repro.obs.profiler import OVERFLOW_STACK, iter_collapsed
from repro.obs.store import SYS_PROFILES, SYS_STACKS, TelemetrySink


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def busy_wait(seconds):
    """Burn CPU (not sleep): sleeping threads still show in samples, but
    the attribution math is clearest on genuinely running code."""
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        sum(i * i for i in range(200))


class TestCollapseFrames:
    def test_current_frame_collapses_to_this_test(self):
        import sys

        frame = sys._current_frames()[threading.get_ident()]
        stack = collapse_frames(frame)
        assert "test_profiler:" in stack
        leaf = stack.rsplit(";", 1)[-1]
        assert "test_current_frame_collapses_to_this_test" in leaf

    def test_max_depth_keeps_leaf_frames(self):
        def recurse(n):
            if n == 0:
                import sys

                return sys._current_frames()[threading.get_ident()]
            return recurse(n - 1)

        stack = collapse_frames(recurse(30), max_depth=5)
        frames = stack.split(";")
        assert frames[0] == "<deep>"
        assert len(frames) == 6  # marker + 5 kept leaf-most frames

    def test_iter_collapsed_round_trips(self):
        text = "a;b;c 3\nx;y 10\n"
        assert list(iter_collapsed(text)) == [(["a", "b", "c"], 3), (["x", "y"], 10)]


class TestLifecycle:
    def test_start_stop_idempotent(self):
        profiler = SamplingProfiler(hz=500)
        assert not profiler.running
        profiler.start()
        profiler.start()  # second start is a no-op
        assert profiler.running
        # Exactly one sampler thread exists.
        samplers = [
            t for t in threading.enumerate() if t.name == "profiler-sampler"
        ]
        assert len(samplers) == 1
        profiler.stop()
        profiler.stop()  # second stop is a no-op
        assert not profiler.running

    def test_restart_after_stop(self):
        profiler = SamplingProfiler(hz=500)
        profiler.start()
        profiler.stop()
        profiler.start()
        assert profiler.running
        profiler.stop()

    def test_invalid_hz_rejected(self):
        with pytest.raises(ValueError):
            SamplingProfiler(hz=0)

    def test_stop_keeps_aggregates(self):
        profiler = SamplingProfiler(hz=500).start()
        busy_wait(0.05)
        profiler.stop()
        assert profiler.samples_total > 0
        assert profiler.totals()

    def test_runtime_enable_disable(self):
        obs.enable()
        profiler = obs.OBS.enable_profiler(hz=500)
        assert profiler.running
        assert obs.OBS.enable_profiler() is profiler  # idempotent
        obs.OBS.disable_profiler()
        assert not profiler.running
        # Aggregates survive for post-mortem reads.
        assert obs.OBS.profiler is profiler

    def test_flamegraph_empty_without_profiler(self):
        assert obs.OBS.flamegraph() == ""


class TestSamplerNeverProfilesItself:
    def test_own_thread_absent_from_aggregates(self):
        profiler = SamplingProfiler(hz=1000).start()
        busy_wait(0.1)
        profiler.stop()
        threads = {entry["thread"] for entry in profiler.totals()}
        assert threads, "busy run produced no samples"
        assert "profiler-sampler" not in threads

    def test_suppressed_threads_not_sampled(self):
        obs.enable()
        tracer = obs.tracer()
        profiler = SamplingProfiler(tracer=tracer, hz=1000).start()

        def suppressed_work():
            with tracer.suppress():
                busy_wait(0.1)

        worker = threading.Thread(target=suppressed_work, name="suppressed-w")
        worker.start()
        worker.join()
        profiler.stop()
        threads = {entry["thread"] for entry in profiler.totals()}
        assert "suppressed-w" not in threads

    def test_excluded_thread_not_sampled(self):
        profiler = SamplingProfiler(hz=1000)

        ready = threading.Event()
        done = threading.Event()

        def excluded_work():
            ready.set()
            busy_wait(0.1)
            done.set()

        worker = threading.Thread(target=excluded_work, name="excluded-w")
        worker.start()
        ready.wait()
        profiler.exclude_thread(worker.ident)
        profiler.start()
        done.wait()
        worker.join()
        profiler.stop()
        threads = {entry["thread"] for entry in profiler.totals()}
        assert "excluded-w" not in threads


class TestSpanAttribution:
    def test_samples_attributed_to_open_span(self):
        obs.enable()
        profiler = obs.OBS.enable_profiler(hz=1000)
        with obs.tracer().span("hot.work") as span:
            busy_wait(0.1)
        obs.OBS.disable_profiler()
        names = {entry["span_name"] for entry in profiler.totals()}
        assert "hot.work" in names
        # The finish hook stamped profile evidence onto the span.
        assert span.tags["profile_samples"] > 0
        assert span.tags["self_time_ms"] > 0
        # And the per-span table agrees.
        profile = profiler.span_profile(span.span_id)
        assert profile is not None
        assert profile["samples"] == span.tags["profile_samples"]
        assert profile["stacks"]

    def test_hottest_spans_ranked(self):
        obs.enable()
        profiler = obs.OBS.enable_profiler(hz=1000)
        with obs.tracer().span("hot.long"):
            busy_wait(0.12)
        with obs.tracer().span("hot.short"):
            busy_wait(0.02)
        obs.OBS.disable_profiler()
        ranked = profiler.hottest_spans()
        names = [r["span_name"] for r in ranked]
        assert names.index("hot.long") < names.index("hot.short")

    def test_busy_run_attributes_ninety_percent_of_wall_time(self):
        """The acceptance bar: a busy single-thread run's flamegraph
        accounts for >=90% of its wall time (honest inter-sample
        accounting makes this hold regardless of sampler lateness)."""
        profiler = SamplingProfiler(hz=200).start()
        start = time.perf_counter_ns()
        busy_wait(0.5)
        wall_ms = (time.perf_counter_ns() - start) / 1e6
        profiler.stop()
        me = threading.current_thread().name
        attributed_ms = profiler.thread_totals().get(me, 0.0)
        assert attributed_ms >= 0.9 * wall_ms

    def test_flamegraph_non_empty_and_parseable(self):
        profiler = SamplingProfiler(hz=500).start()
        busy_wait(0.1)
        profiler.stop()
        text = profiler.flamegraph()
        parsed = list(iter_collapsed(text))
        assert parsed
        assert all(count >= 1 for _frames, count in parsed)
        total = sum(count for _f, count in parsed)
        assert total == profiler.samples_total
        ms_text = profiler.flamegraph(weights="ms")
        assert list(iter_collapsed(ms_text))
        with pytest.raises(ValueError):
            profiler.flamegraph(weights="bogus")


class TestBounds:
    def test_overflow_stack_bounds_aggregates(self):
        profiler = SamplingProfiler(hz=100, max_stacks=2)
        # Synthesize distinct keys straight through the private aggregate
        # to pin the bound without needing thousands of real stacks.
        with profiler._lock:
            for i in range(10):
                key = ("t", None, f"stack-{i}")
                if len(profiler._stacks) >= profiler.max_stacks:
                    key = ("t", None, OVERFLOW_STACK)
                cell = profiler._stacks.setdefault(key, [0, 0])
                cell[0] += 1
                cell[1] += 1000
        assert len(profiler._stacks) <= profiler.max_stacks + 1

    def test_span_table_lru_bounded(self):
        profiler = SamplingProfiler(hz=100, span_table_size=4)
        with profiler._lock:
            for span_id in range(20):
                profiler._credit_span(span_id, "a;b", 1000)
        assert len(profiler._span_tables) <= 4
        assert profiler.span_profile(0) is None
        assert profiler.span_profile(19) is not None


class TestDrainAndTotals:
    def test_drain_resets_deltas_but_totals_survive(self):
        profiler = SamplingProfiler(hz=500).start()
        busy_wait(0.06)
        profiler.stop()
        first = profiler.drain()
        assert first
        assert profiler.drain() == []  # deltas consumed
        # Lifetime reads still see everything.
        assert profiler.totals()
        assert profiler.flamegraph()

    def test_concurrent_drains_lose_nothing(self):
        """Sink-style drains racing the live sampler: every sample lands
        in exactly one drain (or the final totals), never split or lost."""
        profiler = SamplingProfiler(hz=1000).start()
        drained = []
        stop = threading.Event()

        def drainer():
            while not stop.is_set():
                drained.extend(profiler.drain())
                time.sleep(0.005)

        worker = threading.Thread(target=drainer, name="drainer")
        worker.start()
        busy_wait(0.2)
        stop.set()
        worker.join()
        profiler.stop()
        remaining = profiler.drain()
        total_samples = sum(e["samples"] for e in drained + remaining)
        assert total_samples == profiler.samples_total
        # And the totals aggregate agrees with the union of the drains.
        assert sum(e["samples"] for e in profiler.totals()) == total_samples

    def test_reset_clears_everything(self):
        profiler = SamplingProfiler(hz=500).start()
        busy_wait(0.05)
        profiler.stop()
        profiler.reset()
        assert profiler.samples_total == 0
        assert profiler.totals() == []
        assert profiler.flamegraph() == ""


class TestSinkSelfHosting:
    def _run_collections(self, sink, n, work_ms=0.03):
        for _ in range(n):
            busy_wait(work_ms)
            sink.collect_and_flush()

    def test_profile_rows_land_in_system_tables(self):
        obs.enable()
        obs.OBS.enable_profiler(hz=1000)
        sink = TelemetrySink()
        try:
            self._run_collections(sink, 2)
            profiles = sink.database.query(f"SELECT * FROM {SYS_PROFILES}")
            stacks = sink.database.query(f"SELECT * FROM {SYS_STACKS}")
            assert profiles and stacks
            assert {r["kind"] for r in profiles} >= {"delta"}
            # snap 1 is a keyframe collection: lifetime totals stored too.
            assert any(r["kind"] == "total" for r in profiles)
            assert sink.counters()["profiles_stored"] == len(profiles)
            assert sink.counters()["stacks_stored"] == len(stacks)
            # The sampler's own threads never appear (recursion guard).
            threads = {r["thread"] for r in stacks}
            assert "profiler-sampler" not in threads
            assert "telemetry-sink" not in threads
        finally:
            sink.close()

    def test_retention_prunes_old_generations(self):
        obs.enable()
        obs.OBS.enable_profiler(hz=1000)
        sink = TelemetrySink()
        for table in (SYS_PROFILES, SYS_STACKS):
            sink.tables[table].keep = 2
        try:
            self._run_collections(sink, 5)
            for table in (SYS_PROFILES, SYS_STACKS):
                snaps = {
                    r["snap"] for r in sink.database.query(f"SELECT * FROM {table}")
                }
                assert snaps, f"{table} is empty"
                assert min(snaps) > sink._snap - 2 - 1
        finally:
            sink.close()

    def test_no_profiler_costs_nothing(self):
        obs.enable()
        sink = TelemetrySink()
        try:
            sink.collect_and_flush()
            assert sink.counters()["profiles_stored"] == 0
            assert sink.counters()["stacks_stored"] == 0
        finally:
            sink.close()
