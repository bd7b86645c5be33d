"""Transactions: atomic batches of statements with rollback.

The engine keeps an undo log per transaction.  On rollback, inverse
operations are replayed in reverse order directly against the tables
(bypassing triggers -- a rolled-back statement must leave no trace, so
its trigger effects are suppressed by deferring trigger dispatch until
commit, matching statement-level AFTER-trigger semantics).

Nested ``transaction()`` blocks join the outer transaction (savepoints
are not needed by any EdiFlow mechanism and are left out deliberately).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from ..errors import TransactionError
from .schema import TID
from .table import ChangeSet

if TYPE_CHECKING:  # pragma: no cover
    from .database import Database


@dataclass
class _UndoRecord:
    """One inverse operation: kind is 'insert' | 'update' | 'delete'."""

    kind: str
    table: str
    row: dict[str, Any]  # for insert: the inserted row; for delete: the image
    before: dict[str, Any] | None = None  # for update: prior image


class Transaction:
    """State of one open transaction."""

    def __init__(self, database: "Database") -> None:
        self._database = database
        self._undo: list[_UndoRecord] = []
        self._pending_changes: list[ChangeSet] = []
        self.active = True

    # -- recording (called by Database's write path) ----------------------
    def record(self, change: ChangeSet) -> None:
        """Log the inverse of every row ``change`` touched."""
        table = change.table
        for row in change.inserted:
            self._undo.append(_UndoRecord("insert", table, row))
        for before, after in change.updated:
            self._undo.append(_UndoRecord("update", table, after, before=before))
        for row in change.deleted:
            self._undo.append(_UndoRecord("delete", table, row))

    def defer_triggers(self, change: ChangeSet) -> None:
        """Queue a change set for trigger dispatch at commit time."""
        self._pending_changes.append(change)

    # -- lifecycle --------------------------------------------------------
    def commit(self) -> None:
        if not self.active:
            raise TransactionError("transaction is no longer active")
        self.active = False
        pending = self._pending_changes
        self._pending_changes = []
        self._undo.clear()
        # Durability first: the write-ahead log must hold the full
        # transaction before any trigger makes its effects observable.
        # A rolled-back transaction never reaches this point, so the log
        # only ever frames committed work.
        if self._database._commit_hooks and pending:
            self._database._notify_commit(pending)
        # Fire triggers only after the transaction's effects are final.
        for change in pending:
            self._database._triggers.fire(change)

    def rollback(self) -> None:
        if not self.active:
            raise TransactionError("transaction is no longer active")
        self.active = False
        self._pending_changes.clear()
        for record in reversed(self._undo):
            table = self._database.table(record.table)
            if record.kind == "insert":
                table.delete_row(record.row[TID])
            elif record.kind == "delete":
                table.restore_row(record.row)
            else:  # update
                assert record.before is not None
                # Replace the row wholesale so indexes are rebuilt for it.
                if table.get(record.row[TID]) is not None:
                    table.delete_row(record.row[TID])
                table.restore_row(record.before)
        self._undo.clear()


class TransactionContext:
    """``with db.transaction():`` -- commit on success, rollback on error."""

    def __init__(self, database: "Database") -> None:
        self._database = database
        self._owns = False

    def __enter__(self) -> Transaction:
        current = self._database._current_transaction
        if current is None:
            current = Transaction(self._database)
            self._database._current_transaction = current
            self._owns = True
        return current

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        if not self._owns:
            # Inner block: the outermost context decides the outcome.
            return False
        transaction = self._database._current_transaction
        self._database._current_transaction = None
        assert transaction is not None
        if exc_type is None:
            transaction.commit()
        else:
            transaction.rollback()
        return False
