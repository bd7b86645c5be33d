"""The process-wide observability switchboard.

Instrumented modules import the :data:`OBS` singleton once and decide
*what span to run under* with a single attribute check; the work itself
is written once and takes the span as a value::

    from ..obs.runtime import OBS
    ...
    with OBS.span("db.write", {"table": name}) as span:
        ...                      # the one code path
        span.set_tag("rows", n)  # a no-op on NULL_SPAN

Disabled (the default) the cost is one global load, one attribute read
and a no-op ``with`` -- no allocation, no locking, no time syscalls --
and there is no untraced twin of the code to keep in step (keep the
check's result in a local to skip computing an expensive tag).  Rare
*events* (reconnects, degradations, hook failures) are counted
unconditionally: a metric you only record while someone is watching is
not a metric.

``enabled`` is a plain attribute so it can be flipped at runtime; the
flip is safe under threads (a racing reader either sees the old or the
new value, both of which are consistent states).
"""

from __future__ import annotations

from typing import Any, Optional

from .metrics import MetricsRegistry
from .profiler import DEFAULT_HZ, SamplingProfiler
from .trace import NULL_SPAN, NullSpan, Span, Tracer

__all__ = ["OBS", "ObsRuntime", "enable", "disable", "enabled", "reset"]


class ObsRuntime:
    """One tracer + one metrics registry + one profiler + the switch."""

    __slots__ = ("enabled", "tracer", "metrics", "profiler")

    def __init__(self) -> None:
        self.enabled = False
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
        #: The continuous sampling profiler, or None until enabled.
        #: Kept separate from ``enabled``: sampling has a real (small)
        #: cost, so it is opt-in even while tracing is on.
        self.profiler: Optional[SamplingProfiler] = None

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def span(
        self, name: str, tags: Optional[dict[str, Any]] = None
    ) -> Span | NullSpan:
        """A span while tracing is on, the shared no-op span otherwise."""
        return self.tracer.span(name, tags) if self.enabled else NULL_SPAN

    # ------------------------------------------------------------------
    # Continuous profiling
    def enable_profiler(self, hz: float = DEFAULT_HZ, **kwargs) -> SamplingProfiler:
        """Start (or return the already-running) sampling profiler.

        The profiler is wired to this runtime's tracer: samples are
        attributed to active spans, and a finish hook stamps
        ``self_time_ms`` onto spans the sampler saw.  Idempotent --
        a second call returns the live instance untouched.
        """
        profiler = self.profiler
        if profiler is not None and profiler.running:
            return profiler
        if profiler is None:
            profiler = SamplingProfiler(tracer=self.tracer, hz=hz, **kwargs)
            self.profiler = profiler
        self.tracer.add_finish_hook(profiler.on_span_finish)
        profiler.start()
        return profiler

    def disable_profiler(self) -> None:
        """Stop the sampler (aggregates survive for post-mortem reads)."""
        profiler = self.profiler
        if profiler is None:
            return
        self.tracer.remove_finish_hook(profiler.on_span_finish)
        profiler.stop()

    def flamegraph(self, weights: str = "samples") -> str:
        """Collapsed-stack flamegraph text from the profiler.

        Empty string when the profiler was never enabled: callers can
        pipe the output to flamegraph tooling unconditionally.
        """
        profiler = self.profiler
        if profiler is None:
            return ""
        return profiler.flamegraph(weights=weights)

    def reset(self) -> None:
        """Clear collected spans and metrics (the switch is untouched)."""
        self.tracer.reset()
        self.metrics.reset()
        if self.profiler is not None:
            self.disable_profiler()
            self.profiler = None


#: The process-wide instance every instrumentation site reads.
OBS = ObsRuntime()


def enable() -> None:
    """Turn tracing + hot-path metrics on, process-wide."""
    OBS.enable()


def disable() -> None:
    """Return to the near-zero-overhead default."""
    OBS.disable()


def enabled() -> bool:
    return OBS.enabled


def reset() -> None:
    OBS.reset()
