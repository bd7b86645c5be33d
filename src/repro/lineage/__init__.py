"""Fine-grained tuple lineage: capture, storage, and provenance queries.

Backward lineage ("why is this output row here") is captured inside the
query operators of both engines -- tid sidecar arrays in the vectorized
batches, a hidden row key on the row engine -- and persisted as
queryable ``sys_lineage_*`` system tables.  Incrementally maintained
views keep a live bidirectional lineage index, which powers forward
lineage ("which outputs does this base tuple feed"): cross-view
brushing-and-linking and the dashboard's "why is this point here" panel
are both lineage queries over that index.
"""

from .brushing import CrossViewLinker
from .capture import Lineage, canon_lineage, capture_plan
from .manager import LineageManager
from .store import (
    LINEAGE_TABLES,
    SYS_LINEAGE_EDGES,
    SYS_LINEAGE_QUERIES,
    LineageStore,
)
from .views import ViewLineage

__all__ = [
    "CrossViewLinker",
    "Lineage",
    "LineageManager",
    "LineageStore",
    "LINEAGE_TABLES",
    "SYS_LINEAGE_EDGES",
    "SYS_LINEAGE_QUERIES",
    "ViewLineage",
    "canon_lineage",
    "capture_plan",
]
