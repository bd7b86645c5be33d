"""Trace one insert through the whole reactive pipeline (Figure 8, live).

Builds the full chain -- database, notification center, sync client with a
mirrored table, a materialized view, LinLog layout, display -- switches on
`repro.obs`, performs a single insert, and prints:

  * the propagation report (db_write / trigger / notify / hop /
    mirror_refresh / delta_handler / layout, and per table) with the
    stitched span tree,
  * the Prometheus-format metrics dump.

Run:  python examples/trace_propagation.py
"""

import repro.obs as obs
from repro.db import Column, Database
from repro.db.types import INTEGER, TEXT
from repro.ivm.registry import ViewRegistry
from repro.ivm.view import SelectProjectView
from repro.sync.client import SyncClient
from repro.sync.server import SyncServer
from repro.vis.attributes import VisualItem
from repro.vis.display import Display
from repro.vis.layout.graph import Graph
from repro.vis.layout.linlog import LinLogLayout


def main() -> None:
    db = Database("ediflow")
    db.create_table(
        "nodes",
        [Column("id", INTEGER, nullable=False), Column("label", TEXT)],
    )
    server = SyncServer(db, use_sockets=False)
    client = SyncClient(server)
    mirror = client.mirror("nodes")
    views = ViewRegistry(db)
    views.register(SelectProjectView("all_nodes", "nodes"))

    obs.enable()

    # The stimulus: one batch insert.  Everything downstream reacts.
    db.insert_many("nodes", [{"id": i, "label": f"n{i}"} for i in range(8)])
    client.refresh("nodes")

    # The visualization runs inside the refresh's trace, exactly as the
    # RefreshDriver's listener fan-out does.
    with obs.tracer().activate(client.last_refresh_context("nodes")):
        graph = Graph()
        for row in mirror.all_rows():
            graph.add_node(row["id"])
        result = LinLogLayout(graph).run(max_iterations=10)
        Display("wall").apply_rows(
            [
                VisualItem(obj_id=n, x=x, y=y).to_row(1)
                for n, (x, y) in result.positions.items()
            ]
        )

    print(obs.propagation_report().format())
    print()
    print(obs.metrics().prometheus_text())

    client.close()
    server.close()


if __name__ == "__main__":
    main()
