"""Tuple-lineage capture: one entry point over both query engines.

Backward lineage of an output row is the set of base tuples that
contributed to it -- represented as ``(table, tid)`` pairs.  Capture
happens *inside* the operators, where tids are nearly free (the Smoke
insight), as a mode of execution: the row operators of
:mod:`repro.db.algebra` carry each row's lineage under a hidden key,
the batch operators of :mod:`repro.db.vector` thread a ``lin`` sidecar
through each batch, and what an operator does to lineage is documented
on the operator.  The two implementations share nothing but the
canonical form below, which is what lets the lineage oracle tests
compare them byte-for-byte.
"""

from __future__ import annotations

from typing import Any, Iterable

from ..db.algebra import Lineage, Plan, Row, TableProvider


def canon_lineage(pairs: Iterable[tuple[str, Any]]) -> Lineage:
    """Canonical form: sorted, deduplicated ``(table, tid)`` tuple.

    Both engines accumulate lineage in whatever order their operators
    visit inputs; canonicalization makes the representations comparable
    byte-for-byte and gives set semantics (a base tuple contributes once
    however many operator paths touched it).
    """
    return tuple(sorted(set(pairs)))


def capture_plan(
    plan: Plan, source: TableProvider
) -> tuple[list[Row], list[Lineage]]:
    """Execute ``plan`` with lineage capture on whichever engine serves
    it -- exactly the rows and row order ``plan.to_list(source)`` gives --
    and return ``(rows, lineages)`` in lockstep, lineage canonicalized."""
    rows, lins = plan.to_list_lineage(source)
    return rows, [canon_lineage(lin) for lin in lins]
