"""Incremental view maintenance (Gupta-Mumick counting algorithm).

Public surface::

    from repro.ivm import ViewRegistry, SelectProjectView, JoinView, AggregateView, Delta

    registry = ViewRegistry(db)
    view = registry.register(AggregateView(
        "votes_by_state", "votes", group_by=["state"],
        aggregates=[AggSpec("SUM", col("count"), "total")],
    ))
    # ... inserts into `votes` now maintain the view automatically.

Each view shape has one fold, ``view.apply(delta)``; ``view.recompute(db)``
is that fold applied to every row of the view's base tables.
"""

from .delta import Delta, row_key
from .registry import ViewRegistry, ViewStats
from .view import AggregateView, JoinView, SelectProjectView, ViewDefinition

__all__ = [
    "AggregateView",
    "Delta",
    "JoinView",
    "SelectProjectView",
    "ViewDefinition",
    "ViewRegistry",
    "ViewStats",
    "row_key",
]
