"""Transactions: atomic batches of statements with rollback.

An open transaction is the ordered list of its statements' change sets.
Commit hands that list to the database's one commit routine
(:meth:`Database._commit`: trigger phase, log, publish) -- the routine an
auto-committed statement reaches with a list of one.  Rollback walks the
list in reverse, replaying each row's inverse directly against the tables
(bypassing triggers -- a rolled-back statement must leave no trace, which
is why nothing of it was fired, logged or published yet).

The block holds the database lock from entry to exit: a statement of
another thread waits for the outcome instead of joining the transaction,
and a mirror refresh never reads an uncommitted image.

Nested ``transaction()`` blocks join the outer transaction (savepoints
are not needed by any EdiFlow mechanism and are left out deliberately).

Traced, the outermost block is one ``db.transaction`` span, open from
entry to exit: its statements' ``db.write`` spans and the commit its exit
makes (the trigger phase, the NOTIFY, and so the refresh that joins it)
all nest in it -- one trace, each span inside its parent's interval.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..errors import TransactionError
from ..obs.runtime import OBS
from .schema import TID
from .table import ChangeSet

if TYPE_CHECKING:  # pragma: no cover
    from .database import Database


class Transaction:
    """State of one open transaction."""

    def __init__(self, database: "Database") -> None:
        self._database = database
        #: The statements' change sets, in statement order (appended by
        #: the database's write path): the commit list and the undo log.
        self.changes: list[ChangeSet] = []
        self.active = True

    def commit(self) -> None:
        if not self.active:
            raise TransactionError("transaction is no longer active")
        self.active = False
        if self.changes:
            self._database._commit(self.changes)

    def rollback(self) -> None:
        if not self.active:
            raise TransactionError("transaction is no longer active")
        self.active = False
        for change in reversed(self.changes):
            table = self._database.table(change.table)
            for row in reversed(change.deleted):
                table.restore_row(row)
            for before, after in reversed(change.updated):
                # Replace the row wholesale so indexes are rebuilt for it.
                if table.get(after[TID]) is not None:
                    table.delete_row(after[TID])
                table.restore_row(before)
            for row in reversed(change.inserted):
                table.delete_row(row[TID])


class TransactionContext:
    """``with db.transaction():`` -- commit on success, rollback on error."""

    def __init__(self, database: "Database") -> None:
        self._database = database
        self._owns = False
        self._span: Any = None

    def __enter__(self) -> Transaction:
        self._database.lock.acquire()
        current = self._database._current_transaction
        if current is None:
            current = Transaction(self._database)
            self._database._current_transaction = current
            self._owns = True
            if OBS.enabled:
                self._span = OBS.tracer.span("db.transaction").__enter__()
        return current

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        span = self._span
        try:
            if self._owns:  # an inner block leaves the outcome to the outermost
                transaction = self._database._current_transaction
                self._database._current_transaction = None
                assert transaction is not None
                if span is not None and transaction.changes:
                    span.set_tag("table", transaction.changes[0].table)
                if exc_type is None:
                    transaction.commit()
                else:
                    transaction.rollback()
        finally:
            if span is not None:
                self._span = None
                span.__exit__(exc_type, exc, tb)
            self._database.lock.release()
        return False
