"""Hierarchical spans with thread-local context propagation.

The paper's evaluation is a story about *where time goes*: Figure 8
decomposes every insert into DB write -> trigger -> NOTIFY -> mirror
refresh -> delta handler -> layout.  A :class:`Tracer` makes that
decomposition observable on a *live* system instead of only inside
hand-written benchmarks: instrumented code opens :class:`Span`\\ s
(monotonic-clock start/end, parent id, free-form tags), nesting is
derived from a thread-local context stack, and finished spans land in a
bounded in-memory ring buffer that exports to JSON.

Two extras support the reactive pipeline's shape:

- :meth:`Tracer.activate` installs an explicit parent context, so work
  performed on *another thread* (a refresh driver, a trigger cascade
  replayed later) can join the originating trace;
- a bounded **link registry** (:meth:`Tracer.link` /
  :meth:`Tracer.lookup_link`) carries span contexts across the
  notification protocol, where the only shared key between producer and
  consumer is ``(table, seq_no)`` -- not a thread, not a call stack.

Everything is zero-dependency and safe under the sync layer's threads.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import OrderedDict, deque
from typing import Any, Iterator, Optional

__all__ = ["NULL_SPAN", "NullSpan", "Span", "SpanContext", "Tracer"]


class SpanContext:
    """The portable identity of a span: enough to parent remote work."""

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: int, span_id: int) -> None:
        self.trace_id = trace_id
        self.span_id = span_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpanContext(trace={self.trace_id}, span={self.span_id})"


class Span:
    """One timed operation.  Use as a context manager via Tracer.span()."""

    __slots__ = (
        "tracer",
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start_ns",
        "end_ns",
        "tags",
        "events",
        "thread_name",
        "_explicit_parent",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        tags: Optional[dict[str, Any]] = None,
        parent: Optional[SpanContext] = None,
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.tags: dict[str, Any] = dict(tags) if tags else {}
        self.events: list[tuple[int, str, dict[str, Any]]] = []
        self.trace_id = 0
        self.span_id = 0
        self.parent_id: Optional[int] = None
        self.start_ns = 0
        self.end_ns: Optional[int] = None
        self.thread_name = ""
        self._explicit_parent = parent

    # ------------------------------------------------------------------
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)

    def set_tag(self, key: str, value: Any) -> "Span":
        self.tags[key] = value
        return self

    def add_event(self, name: str, **attrs: Any) -> "Span":
        """Attach a timestamped point annotation to this span.

        Events carry things a duration cannot: per-operator row counters
        of an EXPLAIN ANALYZE, the moment a retry fired, a flush being
        forced.  They export alongside the span and persist into the
        ``sys_span_events`` telemetry table.
        """
        self.events.append((time.perf_counter_ns(), name, dict(attrs)))
        return self

    def set_parent(self, context: Optional[SpanContext]) -> "Span":
        """Re-parent onto a remote context (e.g. a notification link).

        Call before starting child spans: children pick up ``trace_id``
        from this span at *their* start.
        """
        if context is not None:
            self.parent_id = context.span_id
            self.trace_id = context.trace_id
        return self

    @property
    def duration_ms(self) -> float:
        end = self.end_ns if self.end_ns is not None else time.perf_counter_ns()
        return (end - self.start_ns) / 1e6

    @property
    def finished(self) -> bool:
        return self.end_ns is not None

    # ------------------------------------------------------------------
    def __enter__(self) -> "Span":
        stack = self.tracer._stack()
        parent = self._explicit_parent
        if parent is None and stack:
            top = stack[-1]
            parent = SpanContext(top.trace_id, top.span_id)
        self.span_id = next(self.tracer._ids)
        if parent is not None:
            self.trace_id = parent.trace_id
            self.parent_id = parent.span_id
        else:
            self.trace_id = next(self.tracer._ids)
        self.thread_name = threading.current_thread().name
        stack.append(self)
        self.start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.end_ns = time.perf_counter_ns()
        stack = self.tracer._stack()
        # Pop our own frame; tolerate (and repair) unbalanced exits.
        while stack:
            top = stack.pop()
            if top is self:
                break
        self.tracer._record(self)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "duration_ms": self.duration_ms,
            "thread": self.thread_name,
            "tags": dict(self.tags),
            "events": [
                {"ts_ns": ts, "name": name, "attrs": dict(attrs)}
                for ts, name, attrs in list(self.events)
            ],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Span {self.name!r} trace={self.trace_id} id={self.span_id} "
            f"parent={self.parent_id} {self.duration_ms:.3f}ms>"
        )


class NullSpan:
    """A do-nothing stand-in: the span of work nobody is tracing.

    Handed out while a thread is suppressed, and passed by instrumented
    code paths that take their span as an argument while tracing is off.

    The telemetry sink persists the tracer's own output back into a
    database whose write path is itself instrumented; without a guard the
    observer would observe itself forever (every flush creates spans that
    the next flush persists, which creates spans...).  Inside
    :meth:`Tracer.suppress`, ``span()`` hands out one of these: it honors
    the whole :class:`Span` surface but records nothing and never touches
    the ring buffer or the context stack.
    """

    __slots__ = ()

    name = "<suppressed>"
    trace_id = 0
    span_id = 0
    parent_id: Optional[int] = None
    start_ns = 0
    end_ns: Optional[int] = 0
    thread_name = ""

    @property
    def tags(self) -> dict[str, Any]:
        return {}

    @property
    def events(self) -> list[tuple[int, str, dict[str, Any]]]:
        return []

    def context(self) -> SpanContext:
        return SpanContext(0, 0)

    def set_tag(self, key: str, value: Any) -> "NullSpan":
        return self

    def add_event(self, name: str, **attrs: Any) -> "NullSpan":
        return self

    def set_parent(self, context: Optional[SpanContext]) -> "NullSpan":
        return self

    @property
    def duration_ms(self) -> float:
        return 0.0

    @property
    def finished(self) -> bool:
        return True

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None

    def to_dict(self) -> dict[str, Any]:  # pragma: no cover - debugging aid
        return {"name": self.name, "suppressed": True}


#: Shared instance -- NullSpan carries no state, one is enough.
NULL_SPAN = NullSpan()


class _Suppression:
    """Context manager marking the current thread as do-not-trace."""

    __slots__ = ("tracer",)

    def __init__(self, tracer: "Tracer") -> None:
        self.tracer = tracer

    def __enter__(self) -> None:
        local = self.tracer._local
        depth = getattr(local, "suppress", 0) + 1
        local.suppress = depth
        if depth == 1:
            # Mirror into the shared ident set so *other* threads (the
            # sampling profiler) can honor this thread's do-not-observe
            # marker without reaching into its thread-locals.
            with self.tracer._lock:
                self.tracer._suppressed_idents.add(threading.get_ident())

    def __exit__(self, *exc: Any) -> None:
        local = self.tracer._local
        depth = max(getattr(local, "suppress", 1) - 1, 0)
        local.suppress = depth
        if depth == 0:
            with self.tracer._lock:
                self.tracer._suppressed_idents.discard(threading.get_ident())


class _Activation:
    """Context manager installing an explicit parent context."""

    __slots__ = ("tracer", "context")

    def __init__(self, tracer: "Tracer", context: Optional[SpanContext]) -> None:
        self.tracer = tracer
        self.context = context

    def __enter__(self) -> Optional[SpanContext]:
        if self.context is not None:
            self.tracer._stack().append(self.context)
        return self.context

    def __exit__(self, *exc: Any) -> None:
        if self.context is None:
            return
        stack = self.tracer._stack()
        while stack:
            top = stack.pop()
            if top is self.context:
                break


class Tracer:
    """Produces spans; keeps the last ``capacity`` finished ones.

    Thread model: each thread has its own context stack (``threading.local``),
    the finished-span ring buffer and the link registry are shared and
    lock-protected where iteration could race appends.
    """

    def __init__(self, capacity: int = 8192, link_capacity: int = 2048) -> None:
        self.capacity = capacity
        self._buffer: deque[Span] = deque(maxlen=capacity)
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._links: OrderedDict[Any, tuple[SpanContext, int]] = OrderedDict()
        self._link_capacity = link_capacity
        #: thread ident -> that thread's live context stack.  The stacks
        #: are only ever *mutated* by their owning thread; the registry
        #: lets the sampling profiler read "what span is thread T inside
        #: right now" from its own sampler thread.
        self._thread_stacks: dict[int, list[Any]] = {}
        #: idents currently inside :meth:`suppress` (see _Suppression).
        self._suppressed_idents: set[int] = set()
        #: Called with each finished span, after it enters the buffer.
        self._finish_hooks: list[Any] = []

    # ------------------------------------------------------------------
    def _stack(self) -> list[Any]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
            with self._lock:
                self._thread_stacks[threading.get_ident()] = stack
        return stack

    def _record(self, span: Span) -> None:
        with self._lock:
            self._buffer.append(span)
        for hook in self._finish_hooks:
            try:
                hook(span)
            except Exception:  # pragma: no cover - hooks must not break tracing
                pass

    # ------------------------------------------------------------------
    # Cross-thread introspection (the sampling profiler's read path)
    def add_finish_hook(self, hook: Any) -> None:
        """Call ``hook(span)`` whenever a span finishes.

        Hooks run on the finishing thread, outside the buffer lock, and
        exceptions are swallowed: observability must never take the
        workload down.  The profiler uses this to stamp ``self_time_ms``
        onto spans it sampled; the slow-path attributor uses it to catch
        over-budget spans the moment they close.
        """
        if hook not in self._finish_hooks:
            self._finish_hooks.append(hook)

    def remove_finish_hook(self, hook: Any) -> None:
        # Equality, not identity: ``obj.method`` builds a fresh bound
        # method on every access, so the unhook call never passes the
        # same object that add_finish_hook stored.
        self._finish_hooks = [h for h in self._finish_hooks if h != hook]

    def suppressed_idents(self) -> set[int]:
        """Idents of threads currently inside :meth:`suppress`."""
        with self._lock:
            return set(self._suppressed_idents)

    def active_spans(self) -> dict[int, Span]:
        """Innermost *open* span per thread ident, read cross-thread.

        The registry maps each thread to the same list object that
        thread pushes/pops; reading it from another thread is safe under
        the GIL (list ops are atomic) and at worst one frame stale --
        exactly the tolerance a statistical profiler has anyway.
        """
        with self._lock:
            stacks = list(self._thread_stacks.items())
        out: dict[int, Span] = {}
        for ident, stack in stacks:
            for frame in reversed(tuple(stack)):
                if isinstance(frame, Span) and frame.end_ns is None:
                    out[ident] = frame
                    break
        return out

    def prune_thread_registry(self, live_idents: Any) -> None:
        """Forget context stacks of threads no longer in ``live_idents``.

        Called by the profiler with ``sys._current_frames().keys()`` so
        the registry does not grow one (empty) entry per short-lived
        thread forever.
        """
        keep = set(live_idents)
        with self._lock:
            for ident in [i for i in self._thread_stacks if i not in keep]:
                del self._thread_stacks[ident]
                self._suppressed_idents.discard(ident)

    # ------------------------------------------------------------------
    # Suppression (the telemetry sink's recursion guard)
    def suppress(self) -> _Suppression:
        """Mark this thread do-not-trace for the duration of a ``with``.

        Every ``span()`` call made on the thread while inside returns a
        shared :class:`NullSpan` that records nothing.  Reentrant.  This
        is the recursion guard that keeps telemetry writes from being
        themselves traced (see :mod:`repro.obs.store`).
        """
        return _Suppression(self)

    @property
    def suppressed(self) -> bool:
        """True while the current thread is inside :meth:`suppress`."""
        return getattr(self._local, "suppress", 0) > 0

    # ------------------------------------------------------------------
    # Span creation / context propagation
    def span(
        self,
        name: str,
        tags: Optional[dict[str, Any]] = None,
        parent: Optional[SpanContext] = None,
    ) -> "Span | NullSpan":
        """Create a span (enter it with ``with``).

        Without an explicit ``parent`` the span nests under the current
        thread's innermost active span (or activation), if any.  On a
        suppressed thread (see :meth:`suppress`) a no-op span is returned
        instead.
        """
        if getattr(self._local, "suppress", 0) > 0:
            return NULL_SPAN
        return Span(self, name, tags=tags, parent=parent)

    def current_context(self) -> Optional[SpanContext]:
        """Context of the innermost active span on this thread."""
        stack = self._stack()
        if not stack:
            return None
        top = stack[-1]
        return SpanContext(top.trace_id, top.span_id)

    def activate(self, context: Optional[SpanContext]) -> _Activation:
        """Install ``context`` as the parent for spans started inside.

        ``None`` is accepted and is a no-op, so callers can write
        ``with tracer.activate(maybe_ctx):`` unconditionally.
        """
        return _Activation(self, context)

    # ------------------------------------------------------------------
    # Cross-boundary links (the notification protocol has no call stack)
    def link(self, key: Any, context: SpanContext) -> None:
        """Register ``context`` under ``key`` (e.g. ``(table, seq_no)``)."""
        with self._lock:
            self._links[key] = (context, time.perf_counter_ns())
            while len(self._links) > self._link_capacity:
                self._links.popitem(last=False)

    def lookup_link(self, key: Any) -> Optional[tuple[SpanContext, int]]:
        """Return ``(context, registered_at_ns)`` for ``key`` or None."""
        with self._lock:
            return self._links.get(key)

    # ------------------------------------------------------------------
    # Inspection / export
    def finished_spans(self) -> list[Span]:
        """Snapshot of the ring buffer, oldest first."""
        with self._lock:
            return list(self._buffer)

    def drain(self) -> list[Span]:
        """Atomically remove and return every buffered span, oldest first.

        The snapshot-and-clear happens under the buffer lock, so a
        concurrently finishing span either lands wholly in this drain or
        wholly in the next one -- never split, never lost, never seen
        half-written.  Spans only enter the buffer *after* their
        ``end_ns`` is set (``Span.__exit__`` records last), and the
        defensive filter below keeps that invariant even if a future
        caller records by hand.  This is the telemetry sink's read path.
        """
        with self._lock:
            spans = [s for s in self._buffer if s.end_ns is not None]
            self._buffer.clear()
        return spans

    def spans_named(self, name: str) -> list[Span]:
        return [s for s in self.finished_spans() if s.name == name]

    def traces(self) -> dict[int, list[Span]]:
        """Finished spans grouped by trace id."""
        out: dict[int, list[Span]] = {}
        for span in self.finished_spans():
            out.setdefault(span.trace_id, []).append(span)
        return out

    def export_json(self, indent: Optional[int] = None) -> str:
        """The ring buffer as a JSON array of span dicts.

        The span list is serialized from one atomic snapshot taken under
        the buffer lock, so concurrent span-finishes cannot shift the
        buffer mid-export.
        """
        with self._lock:
            dicts = [span.to_dict() for span in self._buffer]
        return json.dumps(dicts, indent=indent)

    def __iter__(self) -> Iterator[Span]:
        return iter(self.finished_spans())

    def __len__(self) -> int:
        with self._lock:
            return len(self._buffer)

    def reset(self) -> None:
        """Drop finished spans and links (active spans are unaffected)."""
        with self._lock:
            self._buffer.clear()
            self._links.clear()
