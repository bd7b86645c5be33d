"""Myers O(ND) diff.

The Wikipedia application's first elementary task is to "compute the
differences between successive versions of each article" (Section III).
This is the classic Myers greedy algorithm over token sequences, plus
helpers to express the result as edit operations with positions -- which
the contribution-table computation consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence


@dataclass(frozen=True)
class EditOp:
    """One edit operation transforming ``old`` into ``new``.

    ``kind`` is 'equal', 'insert', or 'delete'.
    For 'equal':  old[old_start:old_end] == new[new_start:new_end].
    For 'insert': tokens new[new_start:new_end] appear at old_start.
    For 'delete': tokens old[old_start:old_end] are removed.
    """

    kind: str
    old_start: int
    old_end: int
    new_start: int
    new_end: int

    @property
    def length(self) -> int:
        if self.kind == "insert":
            return self.new_end - self.new_start
        return self.old_end - self.old_start


def _myers_middle_trace(a: Sequence[Any], b: Sequence[Any]) -> list[dict[int, int]]:
    """Forward pass of Myers's algorithm, keeping the V maps per D."""
    n, m = len(a), len(b)
    v: dict[int, int] = {1: 0}
    trace: list[dict[int, int]] = []
    for d in range(n + m + 1):
        trace.append(dict(v))
        for k in range(-d, d + 1, 2):
            if k == -d or (k != d and v.get(k - 1, -1) < v.get(k + 1, -1)):
                x = v.get(k + 1, 0)
            else:
                x = v.get(k - 1, 0) + 1
            y = x - k
            while x < n and y < m and a[x] == b[y]:
                x += 1
                y += 1
            v[k] = x
            if x >= n and y >= m:
                trace.append(dict(v))
                return trace
    return trace  # pragma: no cover - loop always returns for valid input


def _backtrack(
    a: Sequence[Any], b: Sequence[Any], trace: list[dict[int, int]]
) -> list[tuple[int, int, int, int]]:
    """Recover the edit path as (prev_x, prev_y, x, y) moves, reversed."""
    moves: list[tuple[int, int, int, int]] = []
    x, y = len(a), len(b)
    for d in range(len(trace) - 2, -1, -1):
        v = trace[d]
        k = x - y
        if k == -d or (k != d and v.get(k - 1, -1) < v.get(k + 1, -1)):
            prev_k = k + 1
        else:
            prev_k = k - 1
        prev_x = v.get(prev_k, 0)
        prev_y = prev_x - prev_k
        # Snake (diagonal) part.
        while x > prev_x and y > prev_y:
            moves.append((x - 1, y - 1, x, y))
            x -= 1
            y -= 1
        if d > 0:
            moves.append((prev_x, prev_y, x, y))
            x, y = prev_x, prev_y
        if x == 0 and y == 0:
            break
    moves.reverse()
    return moves


def diff(a: Sequence[Any], b: Sequence[Any]) -> list[EditOp]:
    """Compute a minimal edit script turning ``a`` into ``b``.

    Returns a list of :class:`EditOp` covering both sequences in order,
    with adjacent ops of the same kind coalesced.
    """
    if not a and not b:
        return []
    if not a:
        return [EditOp("insert", 0, 0, 0, len(b))]
    if not b:
        return [EditOp("delete", 0, len(a), 0, 0)]
    trace = _myers_middle_trace(a, b)
    moves = _backtrack(a, b, trace)
    ops: list[EditOp] = []

    def push(kind: str, ox: int, oy: int, x: int, y: int) -> None:
        if ops and ops[-1].kind == kind and ops[-1].old_end == ox and ops[-1].new_end == oy:
            last = ops.pop()
            ops.append(EditOp(kind, last.old_start, x, last.new_start, y))
        else:
            ops.append(EditOp(kind, ox, x, oy, y))

    for prev_x, prev_y, x, y in moves:
        if x - prev_x == 1 and y - prev_y == 1:
            push("equal", prev_x, prev_y, x, y)
        elif x - prev_x == 1:
            push("delete", prev_x, prev_y, x, y)
        else:
            push("insert", prev_x, prev_y, x, y)
    return ops


def diff_stats(a: Sequence[Any], b: Sequence[Any]) -> tuple[int, int, int]:
    """(equal, inserted, deleted) token counts between two versions."""
    equal = inserted = deleted = 0
    for op in diff(a, b):
        if op.kind == "equal":
            equal += op.length
        elif op.kind == "insert":
            inserted += op.length
        else:
            deleted += op.length
    return equal, inserted, deleted


def annotate_contributions(
    old_tokens: Sequence[Any],
    old_authors: Sequence[int],
    new_tokens: Sequence[Any],
    author: int,
) -> list[int]:
    """Carry per-token authorship across one revision.

    ``old_authors[i]`` is the user who contributed ``old_tokens[i]``.
    Tokens surviving the edit keep their author; inserted tokens belong
    to ``author``.  This is the "contribution table, storing at each
    character index the identifier of the user who entered it"
    (Section III), at token granularity.
    """
    if len(old_tokens) != len(old_authors):
        raise ValueError(
            f"token/author length mismatch: {len(old_tokens)} vs {len(old_authors)}"
        )
    new_authors: list[int] = []
    for op in diff(old_tokens, new_tokens):
        if op.kind == "equal":
            new_authors.extend(old_authors[op.old_start : op.old_end])
        elif op.kind == "insert":
            new_authors.extend([author] * op.length)
    return new_authors
