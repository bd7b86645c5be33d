"""Embedded relational engine -- the DBMS substrate EdiFlow runs on.

Public surface::

    from repro.db import Database, Column, TableSchema, col
    from repro.db import INTEGER, FLOAT, TEXT, BOOLEAN, TIMESTAMP, ANY

    db = Database()
    db.execute("CREATE TABLE authors (id INTEGER PRIMARY KEY, name TEXT)")
    db.execute("INSERT INTO authors (id, name) VALUES (?, ?)", [1, "Noack"])
    rows = db.query("SELECT name FROM authors WHERE id = 1")
"""

from .algebra import (
    AggSpec,
    format_plan,
    instrument_plan,
    Aggregate,
    CompositeIndexScan,
    Difference,
    Distinct,
    HashJoin,
    IndexNestedLoopJoin,
    IndexScan,
    KeepAll,
    Limit,
    MapRows,
    Plan,
    Product,
    Project,
    RangeIndexScan,
    RowSource,
    Scan,
    Select,
    Sort,
    Union,
    sort_key_total,
)
from .columnar import CHUNK_ROWS, ColumnStore, value_tag
from .database import Database, Result
from .durability import DurabilityManager, RecoveryInfo, open_durable, recover
from .plancache import LRUCache
from .routing import matching_tids, optimize_plan
from .expression import (
    ColumnRef,
    Expression,
    Lambda,
    Literal,
    col,
)
from .persistence import load_snapshot, save_snapshot
from .schema import CREATED_AT, TID, Column, ForeignKey, TableSchema
from .table import ChangeSet, Table
from .types import ANY, BOOLEAN, FLOAT, INTEGER, TEXT, TIMESTAMP, ColumnType
from .vector import Batch, Unvectorizable, Vectorized, batch_rows, rows_to_batch, vectorize_plan
from .wal import (
    FSYNC_ALWAYS,
    FSYNC_INTERVAL,
    FSYNC_NEVER,
    WalRecord,
    WriteAheadLog,
    read_wal,
    truncate_torn_tail,
)

__all__ = [
    "ANY",
    "AggSpec",
    "Aggregate",
    "BOOLEAN",
    "Batch",
    "CHUNK_ROWS",
    "CREATED_AT",
    "ChangeSet",
    "Column",
    "ColumnStore",
    "ColumnRef",
    "ColumnType",
    "CompositeIndexScan",
    "Database",
    "Difference",
    "Distinct",
    "DurabilityManager",
    "Expression",
    "FLOAT",
    "FSYNC_ALWAYS",
    "FSYNC_INTERVAL",
    "FSYNC_NEVER",
    "ForeignKey",
    "HashJoin",
    "INTEGER",
    "IndexNestedLoopJoin",
    "IndexScan",
    "KeepAll",
    "LRUCache",
    "Lambda",
    "Limit",
    "Literal",
    "MapRows",
    "Plan",
    "Product",
    "Project",
    "RangeIndexScan",
    "RecoveryInfo",
    "Result",
    "RowSource",
    "Scan",
    "Select",
    "Sort",
    "TEXT",
    "TID",
    "TIMESTAMP",
    "Table",
    "TableSchema",
    "Union",
    "Unvectorizable",
    "Vectorized",
    "WalRecord",
    "WriteAheadLog",
    "batch_rows",
    "col",
    "format_plan",
    "instrument_plan",
    "load_snapshot",
    "matching_tids",
    "open_durable",
    "optimize_plan",
    "read_wal",
    "recover",
    "rows_to_batch",
    "save_snapshot",
    "sort_key_total",
    "truncate_torn_tail",
    "value_tag",
    "vectorize_plan",
]
