"""In-memory span recorder for the traced run.

Spans are opened from the benchmark's own files, around the calls into
each layer: :meth:`Tracer.wrap` sets a timing wrapper as an *instance
attribute* over a public callable the drivers already hold, and the
drivers open explicit spans (``with tracer.span(...)``) around waits.
Nothing under ``src/`` is edited and the program's own ``OBS`` tracer
stays off.

A span is ``[name, layer, start_ns, end_ns, parent, op, thread]``;
``parent`` is the index of the enclosing span on the same thread (-1 for
a root) and ``op`` the operation id (batch / tick / probe number) the
generator last announced with :meth:`Tracer.set_op`.  A span's *self
time* is its duration minus the part its child spans cover, so the self
times of one thread's tree sum to the root's duration exactly.

A disabled tracer is a no-op: ``wrap`` installs nothing and ``span``
returns a shared null context, so the untraced run executes the
program's own bound methods.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Callable, Optional

NAME, LAYER, START, END, PARENT, OP, THREAD = range(7)

_NULL = nullcontext()


class _Span:
    __slots__ = ("tracer", "name", "layer", "index")

    def __init__(self, tracer: "Tracer", name: str, layer: str) -> None:
        self.tracer = tracer
        self.name = name
        self.layer = layer

    def __enter__(self) -> "_Span":
        self.index = self.tracer.open(self.name, self.layer)
        return self

    def __exit__(self, *exc: object) -> None:
        self.tracer.close(self.index)


class Tracer:
    """Records spans with per-thread parent stacks."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.op = -1
        self._local = threading.local()
        # Several threads open spans; a lock here would make them convoy
        # on the GIL (a blocked thread waits out the 5 ms switch interval).
        # ``next`` on a counter and a dict store are each atomic instead.
        self._ids = itertools.count()
        self._records: dict[int, list[Any]] = {}

    @property
    def spans(self) -> list[list[Any]]:
        """All spans, in the order they were opened."""
        return [self._records[index] for index in range(len(self._records))]

    # -- recording -----------------------------------------------------
    def set_op(self, op: int) -> None:
        """Announce the operation every span opened from now on belongs to."""
        self.op = op

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def open(self, name: str, layer: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        op = self.op
        if parent >= 0 and self._records[parent][LAYER] != "bench":
            # Nested layer spans keep their parent's operation even when
            # the generator thread has moved on meanwhile.
            op = self._records[parent][OP]
        record = [name, layer, 0, 0, parent, op, threading.get_ident()]
        index = next(self._ids)
        self._records[index] = record
        stack.append(index)
        record[START] = time.perf_counter_ns()
        return index

    def close(self, index: int) -> None:
        end = time.perf_counter_ns()
        self._records[index][END] = end
        self._stack().pop()

    def span(self, name: str, layer: str) -> Any:
        """Context manager for an explicit span (a wait, a whole operation)."""
        if not self.enabled:
            return _NULL
        return _Span(self, name, layer)

    def wrap(
        self,
        obj: Any,
        attr: str,
        name: str,
        layer: str,
        before: Optional[Callable[..., None]] = None,
    ) -> None:
        """Time every call of ``obj.attr`` as a span named ``name``.

        ``before`` (if given) runs with the call's arguments just before
        the span opens -- the hook the wake-up probe uses to stamp the
        entry of ``SyncClient.refresh``.
        """
        if not self.enabled:
            return
        inner = getattr(obj, attr)

        def traced(*args: Any, **kwargs: Any) -> Any:
            if before is not None:
                before(*args, **kwargs)
            index = self.open(name, layer)
            try:
                return inner(*args, **kwargs)
            finally:
                self.close(index)

        setattr(obj, attr, traced)

    def __len__(self) -> int:
        return len(self._records)

    # -- analysis ------------------------------------------------------
    def self_times(self, first: int = 0, last: Optional[int] = None) -> dict[int, int]:
        """Span index -> self time (ns) for the spans in ``[first, last)``."""
        spans = self.spans
        last = len(spans) if last is None else last
        covered: dict[int, int] = defaultdict(int)
        for index in range(first, last):
            span = spans[index]
            parent = span[PARENT]
            if parent >= first:
                covered[parent] += span[END] - span[START]
        return {
            index: spans[index][END] - spans[index][START] - covered[index]
            for index in range(first, last)
        }

    def summary(
        self, first: int = 0, last: Optional[int] = None
    ) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self time (ns) in ``[first, last)``."""
        out: dict[str, dict[str, float]] = {}
        spans = self.spans
        for index, self_ns in self.self_times(first, last).items():
            span = spans[index]
            entry = out.setdefault(
                span[NAME], {"layer": span[LAYER], "calls": 0, "total_ns": 0, "self_ns": 0}
            )
            entry["calls"] += 1
            entry["total_ns"] += span[END] - span[START]
            entry["self_ns"] += self_ns
        return out

    def dump(self, path: Path, meta: dict[str, Any]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "fields": ["name", "layer", "start_ns", "end_ns", "parent", "op", "thread"],
            "meta": meta,
            "spans": self.spans,
        }
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


def check_tree(spans: list[list[Any]]) -> list[str]:
    """Well-formedness problems of a span list (empty when sound).

    Every span is closed, starts no later than it ends, lies inside its
    parent on the parent's thread, and shares its layer parent's
    operation id.
    """
    problems: list[str] = []
    for index, span in enumerate(spans):
        label = f"span {index} ({span[NAME]})"
        if span[END] < span[START] or span[START] == 0:
            problems.append(f"{label}: not closed or negative duration")
        parent = span[PARENT]
        if parent >= 0:
            outer = spans[parent]
            if parent >= index:
                problems.append(f"{label}: parent opened after child")
            if outer[THREAD] != span[THREAD]:
                problems.append(f"{label}: parent on another thread")
            if span[START] < outer[START] or span[END] > outer[END]:
                problems.append(f"{label}: outside its parent {outer[NAME]}")
            if span[OP] != outer[OP] and outer[LAYER] != "bench":
                problems.append(f"{label}: operation id differs from parent's")
    return problems
