"""The Figure-8 insert pipeline, instrumented end to end.

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
:meth:`run_batch` returns the per-step times for one batch of tuples.
"""

from __future__ import annotations

import random
import time
from typing import Optional

from repro.core import datamodel
from repro.db.database import Database
from repro.db.schema import Column
from repro.db.types import INTEGER, TEXT
from repro.sync.client import SyncClient
from repro.sync.notification import NotificationCenter
from repro.sync.server import SyncServer
from repro.vis.attributes import VisualAttributesStore, VisualItem
from repro.vis.display import Display

T_NODES = "pipeline_author"

#: The six series of Figure 8, in the paper's legend order.
FIG8_SERIES = (
    "parse_author_msg",
    "insert_visualattrs",
    "parse_visattr_msg",
    "extract_new_nodes",
    "insert_into_display",
    "total",
)


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
        self.machine2_attrs = self.machine2.mirror(datamodel.T_VISUAL_ATTRIBUTES)
        self.display = Display("machine2")
        self._next_node_id = 1

    # ------------------------------------------------------------------
    def _wait_dirty(self, client: SyncClient, table: str) -> float:
        """Time (ms) until the NOTIFY for ``table`` is received and parsed."""
        start = time.perf_counter()
        if self.server.use_sockets:
            if not client.wait_dirty(table, timeout=10.0):
                raise TimeoutError(f"no NOTIFY for {table!r} within 10s")
        return (time.perf_counter() - start) * 1000.0

    def run_batch(self, batch_size: int) -> dict[str, float]:
        """Insert ``batch_size`` author tuples and time all five steps:
        one value (ms) per series of ``FIG8_SERIES``."""
        rows = []
        for _ in range(batch_size):
            rows.append({"id": self._next_node_id, "name": f"node-{self._next_node_id}"})
            self._next_node_id += 1
        # The stimulus (not one of the measured steps): the batch lands in
        # the nodes table as one statement -> one notification.
        self.database.insert_many(T_NODES, rows)

        # Step 1: machine 1 receives + parses the author-change message.
        t1 = self._wait_dirty(self.machine1, T_NODES)
        start = time.perf_counter()
        self.machine1.refresh(T_NODES)
        t1 += (time.perf_counter() - start) * 1000.0

        # Step 2: compute + insert the visual attributes (the layout
        # stand-in assigns positions; the dominant cost is the DB write).
        start = time.perf_counter()
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
        t2 = (time.perf_counter() - start) * 1000.0

        # Step 3: machine 2 receives + parses the VisualAttributes message.
        t3 = self._wait_dirty(self.machine2, datamodel.T_VISUAL_ATTRIBUTES)

        # Step 4: extract the new rows (the select).  Only the changed
        # tids are pulled -- cost proportional to the batch, not to the
        # accumulated table (the property behind Figure 8's linearity).
        start = time.perf_counter()
        _newest, changed = self.center.changes_since(
            datamodel.T_VISUAL_ATTRIBUTES, self.machine2_attrs.last_seq_no
        )
        self.machine2.refresh(datamodel.T_VISUAL_ATTRIBUTES)
        fresh_rows = []
        seen_tids = set()
        for tid, op in changed:
            if op == "delete" or tid in seen_tids:
                continue
            seen_tids.add(tid)
            row = self.machine2_attrs.get(tid)
            if row is not None and row["component_id"] == self.component_id:
                fresh_rows.append(row)
        t4 = (time.perf_counter() - start) * 1000.0

        # Step 5: insert the new nodes into the display.
        start = time.perf_counter()
        self.display.apply_rows(fresh_rows)
        self.display.refresh()
        t5 = (time.perf_counter() - start) * 1000.0

        # Housekeeping outside the measured steps: purge consumed
        # notifications (protocol step 11) so the change log stays small.
        self.server.purge_notifications()

        steps = (t1, t2, t3, t4, t5)
        return dict(zip(FIG8_SERIES, (*steps, sum(steps))))

    def close(self) -> None:
        self.machine1.close()
        self.machine2.close()
        self.server.close()
