"""Correctness oracle: every output checked against the base tables.

Each function returns a list of problems (empty when the output is
right).  The drivers run them once per repetition, after quiescence; a
non-empty list fails every operation of that repetition.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro.db import TID


def _by_tid(rows: Iterable[Mapping[str, Any]]) -> dict[int, dict[str, Any]]:
    return {row[TID]: dict(row) for row in rows}


def _diff(what: str, got: dict[Any, Any], want: dict[Any, Any]) -> list[str]:
    if got == want:
        return []
    missing = want.keys() - got.keys()
    extra = got.keys() - want.keys()
    differing = [key for key in want.keys() & got.keys() if got[key] != want[key]]
    return [
        f"{what}: {len(missing)} missing, {len(extra)} unexpected, "
        f"{len(differing)} differing (of {len(want)} expected)"
    ]


def mirror_equals_table(mirror: Any, table: Any) -> list[str]:
    """A client mirror holds exactly the base table's current rows."""
    return _diff(
        f"mirror of {mirror.table!r} vs base table",
        _by_tid(mirror.all_rows()),
        _by_tid(table.rows()),
    )


def display_equals(display: Any, expected: Mapping[Any, tuple[Any, Any]]) -> list[str]:
    """The display list shows exactly ``expected``: obj_id -> (x, y)."""
    shown = {obj_id: (item.x, item.y) for obj_id, item in display.items.items()}
    return _diff(f"display {display.name!r} vs expected items", shown, dict(expected))


def fleet_counts(fleet: Any, frames: int, evictions: int) -> list[str]:
    """Every fleet client received exactly ``frames`` NOTIFY frames."""
    problems = []
    if evictions:
        problems.append(f"server evicted {evictions} client(s)")
    short = [c.frames for c in fleet.clients if c.frames != frames]
    if short:
        problems.append(
            f"{len(short)} of {len(fleet.clients)} clients off the expected "
            f"{frames} frames (min {min(short)}, max {max(short)})"
        )
    return problems


def groups_equal(
    what: str,
    rows: Iterable[Mapping[str, Any]],
    reference: Mapping[Any, tuple[int, int]],
) -> list[str]:
    """Aggregate rows (group, count, sum -- in that column order) match
    ``reference``: group -> (count, sum)."""
    got = {}
    for row in rows:
        group, count, total = row.values()
        got[group] = (count, total)
    return _diff(what, got, dict(reference))


def databases_equal(recovered: Any, live: Any) -> list[str]:
    """``recover()`` rebuilt every table of the live database verbatim."""
    problems = []
    if sorted(recovered.table_names()) != sorted(live.table_names()):
        problems.append(
            f"recovered tables {sorted(recovered.table_names())} != "
            f"live {sorted(live.table_names())}"
        )
        return problems
    for name in live.table_names():
        problems += _diff(
            f"recovered table {name!r} vs live",
            _by_tid(recovered.table(name).rows()),
            _by_tid(live.table(name).rows()),
        )
    return problems
