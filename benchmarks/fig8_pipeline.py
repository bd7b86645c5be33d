"""The Figure-8 insert pipeline, read from one propagation trace.

The paper's robustness experiment (Section VII-C): "the DBMS is connected
to two EdiFlow instances running on two machines.  The first EdiFlow
machine computes visual attributes, while the second extracts nodes from
VisualAttributes table and displays the graph."  Inserting tuples
performs five measured steps:

1. Parsing the message involved after insertion in the nodes table
   (protocol step 7, on the first machine);
2. Inserting the resulting tuples in the VisualAttributes table;
3. Parsing the message involved after insertion in VisualAttributes
   (protocol step 9, on all display machines);
4. Extracting the visual attributes of the new nodes (a select);
5. Inserting the new nodes into the display screen.

:class:`InsertPipeline` reproduces the deployment with two sync clients
(the "machines") over loopback sockets or the in-process transport, and
:meth:`~InsertPipeline.run_batch` propagates one batch of tuples.  It
keeps no clock: traced (``repro.obs.enable()``), a batch is one trace,
and :func:`fig8_series` reads the five steps from its
:func:`~repro.obs.propagation_report`.
"""

from __future__ import annotations

import random
from itertools import islice
from typing import Optional

from repro.core import datamodel
from repro.db.database import Database
from repro.db.schema import Column
from repro.db.types import INTEGER, TEXT
from repro.obs import OBS, PropagationReport
from repro.sync.client import SyncClient
from repro.sync.notification import NotificationCenter
from repro.sync.server import SyncServer
from repro.vis.attributes import VisualAttributesStore, VisualItem
from repro.vis.display import Display

T_NODES = "pipeline_author"
T_ATTRS = datamodel.T_VISUAL_ATTRIBUTES

#: The six series of Figure 8, in the paper's legend order.
FIG8_SERIES = (
    "parse_author_msg",
    "insert_visualattrs",
    "parse_visattr_msg",
    "extract_new_nodes",
    "insert_into_display",
    "total",
)


def fig8_series(report: PropagationReport) -> dict[str, float]:
    """Figure 8's five steps (ms) from one batch's report, and their
    total; a step the trace lacks raises ``KeyError``.  The report's
    ``wall_ms`` less ``total`` is what no step covers: the stimulus
    write, the purge, the glue between spans."""
    author, attrs = report.tables[T_NODES], report.tables[T_ATTRS]
    steps = (
        author["hop"] + author["mirror_refresh"],
        attrs["db_write"] + attrs["trigger"] + attrs["notify"],
        attrs["hop"],
        attrs["mirror_refresh"],
        attrs["layout"],
    )
    return dict(zip(FIG8_SERIES, (*steps, sum(steps))))


class InsertPipeline:
    """Two-machine notification pipeline over one database."""

    def __init__(
        self,
        database: Optional[Database] = None,
        use_sockets: bool = True,
    ) -> None:
        self.database = database or Database("fig8")
        self.rng = random.Random(5)
        datamodel.install_core_schema(self.database)
        if not self.database.has_table(T_NODES):
            self.database.create_table(
                T_NODES,
                [
                    Column("id", INTEGER, nullable=False),
                    Column("name", TEXT, nullable=False),
                ],
                primary_key="id",
            )
        self.center = NotificationCenter(self.database)
        self.server = SyncServer(self.database, self.center, use_sockets=use_sockets)
        self.store = VisualAttributesStore(self.database)
        self.component_id = 1
        # Machine 1: computes visual attributes from author changes.
        self.machine1 = SyncClient(self.server)
        self.machine1_nodes = self.machine1.mirror(T_NODES)
        # Machine 2: extracts VisualAttributes rows and displays them.
        self.machine2 = SyncClient(self.server)
        self.machine2_attrs = self.machine2.mirror(T_ATTRS)
        self.display = Display("machine2")
        self._next_node_id = 1

    # ------------------------------------------------------------------
    def _wait_dirty(self, client: SyncClient, table: str) -> None:
        """Block until the NOTIFY for ``table`` reached ``client``."""
        if self.server.use_sockets and not client.wait_dirty(table, timeout=10.0):
            raise TimeoutError(f"no NOTIFY for {table!r} within 10s")

    def run_batch(self, batch_size: int) -> None:
        """Insert ``batch_size`` author tuples and carry them through
        both machines to the display.  Each machine works inside the
        trace of the refresh it reacts to, as ``RefreshDriver`` listeners
        do: traced, the batch is one trace."""
        first = self._next_node_id
        self._next_node_id += batch_size
        ids = range(first, first + batch_size)
        rows = [{"id": i, "name": f"node-{i}"} for i in ids]
        # The stimulus: the batch lands in the nodes table as one
        # statement -> one notification.
        self.database.insert_many(T_NODES, rows)

        # Step 1: machine 1 receives the author-change message and pulls.
        self._wait_dirty(self.machine1, T_NODES)
        self.machine1.refresh(T_NODES)
        # Step 2: machine 1 computes the visual attributes (the layout
        # stand-in assigns positions) and writes them, in one commit.
        with OBS.tracer.activate(self.machine1.last_refresh_context(T_NODES)):
            with self.database.transaction():
                items = [
                    VisualItem(
                        obj_id=row["id"],
                        x=self.rng.uniform(0, 800),
                        y=self.rng.uniform(0, 600),
                        color="#4e79a7",
                        label=row["name"],
                    )
                    for row in rows
                ]
                self.store.write(self.component_id, items)

        # Step 3: machine 2 receives the VisualAttributes message; step 4:
        # its refresh selects the changed rows (cost proportional to the
        # batch, not to the accumulated table: Figure 8's linearity).
        self._wait_dirty(self.machine2, T_ATTRS)
        pulled = self.machine2.refresh(T_ATTRS)["upserts"]
        with OBS.tracer.activate(self.machine2.last_refresh_context(T_ATTRS)):
            # Step 5: a batch's items are all new, so the rows the refresh
            # pulled are the mirror's newest; the display reads them.
            newest = reversed(self.machine2_attrs.rows.values())
            self.display.apply_rows(islice(newest, pulled))
            self.display.refresh()
            # Protocol step 11, none of the five: purge consumed
            # notifications so the change log stays small.
            self.server.purge_notifications()

    def close(self) -> None:
        self.machine1.close()
        self.machine2.close()
        self.server.close()
        self.center.close()
