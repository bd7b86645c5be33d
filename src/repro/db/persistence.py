"""Database snapshots: save/load to a JSON-lines file.

The paper's DBMS is persistent; our embedded engine persists through
explicit snapshots.  The format is line-oriented JSON:

    {"kind": "header",  "name": ..., "clock": ...}
    {"kind": "schema",  "schema": {...}, "tids": n}   # one per table
    {"kind": "row", "table": ..., "tid": ..., "created": ...,
     "values": {...}}                             # one per row

Tids and creation stamps round-trip, so the time-based isolation story
survives a restart, and so does each table's highest tid a commit named
(``tids``, :attr:`Table.named_tids`), so a deleted row's tid is never
handed out again.  A snapshot
written before that field loads without it, and a row record an older
writer left an ``updated`` field in loads the same (it is ignored).
Values must be JSON-serializable; :class:`~repro.db.types.AnyType`
columns holding non-JSON values fail loudly at save time rather than
corrupting the file.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from ..errors import DatabaseError
from .database import Database
from .schema import TID, TableSchema
from .wal import fsync_dir

FORMAT_VERSION = 1


def save_snapshot(database: Database, path: str | Path) -> int:
    """Write a consistent snapshot of ``database`` to ``path``.

    Returns the number of rows written.  Writing happens to a temp file
    that is flushed and fsynced, followed by an atomic rename and a
    directory fsync -- so neither a crash nor a *power loss* can leave a
    torn, empty, or missing snapshot behind a successful return.
    """
    path = Path(path)
    rows_written = 0
    directory = path.parent if str(path.parent) else Path(".")
    fd, tmp_name = tempfile.mkstemp(dir=directory, prefix=".snapshot-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as out:
            header = {
                "kind": "header",
                "version": FORMAT_VERSION,
                "name": database.name,
                "clock": database.now(),
            }
            out.write(json.dumps(header) + "\n")
            for table_name in database.table_names():
                table = database.table(table_name)
                schema = table.schema.to_dict()
                record = {"kind": "schema", "schema": schema, "tids": table.named_tids}
                out.write(json.dumps(record) + "\n")
            for table_name in database.table_names():
                table = database.table(table_name)
                for row in table.rows():
                    values = {
                        k: v for k, v in row.items() if not k.startswith("__")
                    }
                    record = {
                        "kind": "row",
                        "table": table_name,
                        "tid": row[TID],
                        "created": table.created[row[TID] - 1],
                        "values": values,
                    }
                    try:
                        out.write(json.dumps(record) + "\n")
                    except TypeError as exc:
                        raise DatabaseError(
                            f"row {row[TID]} of {table_name!r} holds a value "
                            f"that is not JSON-serializable: {exc}"
                        ) from None
                    rows_written += 1
            # os.replace is atomic but not durable: without these two
            # fsyncs a power loss can zero the data (page cache never
            # written) or lose the rename (directory entry not logged).
            out.flush()
            os.fsync(out.fileno())
        os.replace(tmp_name, path)
        fsync_dir(directory)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return rows_written


def load_snapshot(path: str | Path) -> Database:
    """Reconstruct a :class:`Database` from a snapshot file."""
    path = Path(path)
    database: Database | None = None
    tids: dict[str, int] = {}
    with open(path, encoding="utf-8") as infile:
        for line_no, line in enumerate(infile, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatabaseError(
                    f"{path}:{line_no}: invalid snapshot line: {exc}"
                ) from None
            kind = record.get("kind")
            if kind == "header":
                if record.get("version") != FORMAT_VERSION:
                    raise DatabaseError(
                        f"unsupported snapshot version {record.get('version')!r}"
                    )
                database = Database(record.get("name", "ediflow"))
                database.restore_clock(int(record.get("clock", 0)))
            elif kind == "schema":
                if database is None:
                    raise DatabaseError(f"{path}:{line_no}: schema before header")
                schema = TableSchema.from_dict(record["schema"])
                database.create_table(schema.name, schema=schema)
                tids[schema.name] = record.get("tids", 0)
            elif kind == "row":
                if database is None:
                    raise DatabaseError(f"{path}:{line_no}: row before header")
                table = database.table(record["table"])
                image = dict(record["values"])
                image[TID] = record["tid"]
                table.restore_row(image, record["created"])
            else:
                raise DatabaseError(
                    f"{path}:{line_no}: unknown snapshot record kind {kind!r}"
                )
    if database is None:
        raise DatabaseError(f"{path}: empty snapshot (no header)")
    # The tids past the last row's were named by rows since deleted:
    # their stamp is the snapshot's clock, later than every row's.
    for name, count in tids.items():
        table = database.table(name)
        table.created.extend([database.now()] * (count - len(table.created)))
        table.named_tids = max(table.named_tids, count)
    return database
