"""One deployment, three propagation planes (test helper, not a test).

A :class:`Deployment` is one :class:`~repro.EdiFlow` with a table ``t``
feeding a consumer on every plane Section V's policies apply to: an
in-process mirror (sync), a select-all materialized view (ivm) and a
running activity with a delta handler (workflow).  Each plane answers the
same five questions, so one contract and one equivalence script can be
asked of all three.  The policy questions are asked of the plane's edge
out of ``t`` -- its subscription, the one handle every plane has.
"""

import threading

from repro import EdiFlow
from repro.db import Column
from repro.db.schema import TID
from repro.db.types import INTEGER
from repro.ivm import SelectProjectView
from repro.sync import SyncClient
from repro.workflow import (
    CallProcedure,
    ProcessDefinition,
    Procedure,
    RelationDecl,
    UpdatePropagation,
    seq,
)

PLANES = ("sync", "ivm", "workflow")


def visible(rows):
    """Rows as a sorted list of ``(id, v)``: what every plane is compared on."""
    return sorted((row["id"], row["v"]) for row in rows)


class Plane:
    """The policy half every plane shares: its edge out of ``t``."""

    edge = None

    def set_policy(self, policy):
        self.edge.set_policy(policy)

    def pending(self):
        return self.edge.pending_ops()

    def flush(self):
        return self.edge.flush()


class MirrorPlane(Plane):
    """sync: NotificationCenter -> in-process client -> R_M."""

    def __init__(self, platform):
        self.edge = platform.center.watch("t")
        self.arrived = threading.Event()
        self.client = SyncClient(platform.server)
        self.mirror = self.client.mirror("t")
        self.client.on_notify(lambda table, op, seq_no: self.arrived.set())

    def rows(self):
        """R_M after pulling whatever the log holds (``changes_since``)."""
        self.client.refresh("t")
        return visible(self.mirror.all_rows())

    def close(self):
        self.client.close()


class ViewPlane(Plane):
    """ivm: ViewRegistry -> ``SELECT * FROM t`` materialized."""

    def __init__(self, platform):
        registry = platform.materialized
        self.view = registry.register(SelectProjectView("all", "t"))
        (self.edge,) = registry.subscriptions["all"]
        self.arrived = threading.Event()
        deliver = self.edge.fn

        def signalling(change):
            deliver(change)
            self.arrived.set()

        self.edge.fn = signalling

    def rows(self):
        return visible(self.view.rows())

    def close(self):
        pass


class _Folder(Procedure):
    """A long-running activity that folds every delta it is handed."""

    name = "folder"

    def __init__(self, arrived):
        self.state = {}  # tid -> row, the sum of the deltas so far
        self.deliveries = 0
        self.arrived = arrived

    def run(self, env, inputs, read_write):
        return []

    def on_delta_running(self, env, delta):
        for row in delta.deleted:
            del self.state[row[TID]]
        for row in delta.inserted:
            self.state[row[TID]] = row
        self.deliveries += 1
        self.arrived.set()
        return None


class HandlerPlane(Plane):
    """workflow: UP (t, fold, ra) -> the running handler of ``fold``."""

    def __init__(self, platform):
        self.platform = platform
        self.arrived = threading.Event()
        self.folder = _Folder(self.arrived)
        platform.procedures.register(self.folder)
        platform.deploy(
            ProcessDefinition(
                "p",
                seq(CallProcedure("fold", "folder", inputs=["t"], detached=True)),
                relations=[RelationDecl("t")],
                procedures=["folder"],
                propagations=[UpdatePropagation("t", "fold", "ra")],
            )
        )
        self.execution = platform.run("p")
        self.edge = platform.propagation.subscriptions["t"]

    def rows(self):
        return visible(self.folder.state.values())

    def close(self):
        self.platform.close_execution(self.execution)


class Deployment:
    def __init__(self):
        self.platform = EdiFlow()
        self.db = self.platform.database
        self.db.create_table(
            "t",
            [Column("id", INTEGER, nullable=False), Column("v", INTEGER)],
            primary_key="id",
        )
        self.planes = {
            "sync": MirrorPlane(self.platform),
            "ivm": ViewPlane(self.platform),
            "workflow": HandlerPlane(self.platform),
        }

    def base_rows(self):
        """A fresh recompute from the base table."""
        return visible(self.db.query("SELECT id, v FROM t"))

    def close(self):
        for plane in self.planes.values():
            plane.close()
        self.platform.shutdown()
