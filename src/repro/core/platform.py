"""The EdiFlow platform facade.

One object wiring the full architecture of Figure 5: the DBMS at the
center, the workflow engine and propagation manager on top, the
notification/synchronization layer toward visualization modules, and the
view manager fanning visual attributes out to displays (Figure 6).

    ediflow = EdiFlow()
    ediflow.procedures.register(MyLayout())
    ediflow.deploy(definition)
    execution = ediflow.run("my-process", user="alice")
    view = ediflow.views.add_view("laptop", component_id)
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Optional

from ..db.database import Database
from ..db.persistence import load_snapshot, save_snapshot
from ..db.policy import PropagationPolicy
from ..ivm.registry import ViewRegistry
from ..sync.notification import NotificationCenter
from ..sync.server import SyncServer
from ..vis.views import ViewManager
from ..workflow.engine import Execution, WorkflowEngine
from ..workflow.model import ProcessDefinition
from ..workflow.monitor import ProcessMonitor
from ..workflow.procedures import ProcedureRegistry
from ..workflow.propagation import PropagationManager
from ..workflow.spec import load_procedures, parse_process, parse_process_file
from . import datamodel


class EdiFlow:
    """The assembled platform."""

    def __init__(
        self,
        database: Optional[Database] = None,
        use_sockets: bool = False,
        name: str = "ediflow",
    ) -> None:
        self.database = database or Database(name)
        datamodel.install_core_schema(self.database)
        self.engine = WorkflowEngine(self.database)
        self.propagation = PropagationManager(self.engine)
        self.center = NotificationCenter(self.database)
        self.server = SyncServer(self.database, self.center, use_sockets=use_sockets)
        self.views = ViewManager(self.database, self.server)
        self.materialized = ViewRegistry(self.database)
        self.monitor = ProcessMonitor(self.database)

    # -- convenience passthroughs ------------------------------------------
    @property
    def procedures(self) -> ProcedureRegistry:
        return self.engine.procedures

    def deploy(self, definition: ProcessDefinition) -> None:
        self.engine.deploy(definition)

    def deploy_xml(self, xml_text: str) -> ProcessDefinition:
        """Parse, load declared procedure classpaths, and deploy."""
        definition = parse_process(xml_text)
        load_procedures(definition, self.procedures)
        self.engine.deploy(definition)
        return definition

    def deploy_xml_file(self, path: str | Path) -> ProcessDefinition:
        definition = parse_process_file(str(path))
        load_procedures(definition, self.procedures)
        self.engine.deploy(definition)
        return definition

    def run(self, process_name: str, **kwargs: Any) -> Execution:
        return self.engine.run(process_name, **kwargs)

    def start(self, process_name: str, **kwargs: Any) -> Execution:
        return self.engine.start(process_name, **kwargs)

    def close_execution(self, execution: Execution) -> None:
        self.engine.close(execution)

    def execute(self, sql: str, params: Any = ()) -> Any:
        return self.database.execute(sql, params)

    def query(self, sql: str, params: Any = ()) -> list[dict[str, Any]]:
        return self.database.query(sql, params)

    # -- propagation policies (Section V) ------------------------------------
    # "A table's policy" means one thing: the policy of every edge out of
    # it -- the mirror's notifications, each materialized view over it,
    # its UP handlers -- that exists when the call is made.
    def set_propagation_policy(self, table: str, policy: PropagationPolicy) -> None:
        """Apply ``policy`` to every subscription on ``table``."""
        for edge in self.database.subscriptions(table):
            edge.set_policy(policy)

    def flush_propagation(self, table: Optional[str] = None) -> int:
        """Flush every subscription on ``table`` (``None``: on every
        table) now; returns the net operations delivered."""
        return sum(edge.flush() for edge in self.database.subscriptions(table))

    # -- persistence ---------------------------------------------------------
    def save(self, path: str | Path) -> int:
        """Snapshot the whole database (process state included)."""
        return save_snapshot(self.database, path)

    @classmethod
    def load(cls, path: str | Path, use_sockets: bool = False) -> "EdiFlow":
        """Rebuild a platform over a snapshot.

        Process *definitions* are code, not data -- redeploy them after
        loading; instance history and application data come back as-is.
        """
        return cls(database=load_snapshot(path), use_sockets=use_sockets)

    def shutdown(self) -> None:
        """Stop the synchronization layer (open executions stay queryable).

        Every subscription delivers what it still buffers and goes, and
        with the last timed one the database's policy timer stops."""
        self.views.close()
        self.server.close()
        self.center.close()
        self.materialized.close()
        self.propagation.close()
