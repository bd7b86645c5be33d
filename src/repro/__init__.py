"""repro: a full reproduction of EdiFlow (ICDE 2011).

EdiFlow is a workflow platform for visual analytics backed by a
persistent DBMS.  This package rebuilds the entire system in Python:

- ``repro.db``        embedded relational engine (SQL subset, triggers)
- ``repro.ivm``       incremental view maintenance
- ``repro.core``      EdiFlow data model + assembled platform facade
- ``repro.workflow``  process model, enactment, update propagation,
                      isolation
- ``repro.sync``      DBMS <-> visualization notification protocol
- ``repro.vis``       headless visualization toolkit + LinLog layout
- ``repro.apps``      the paper's three applications

Quickstart::

    from repro import EdiFlow
    platform = EdiFlow()
    platform.execute("CREATE TABLE points (id INTEGER PRIMARY KEY, x FLOAT)")
"""

from .core.platform import EdiFlow
from .db.database import Database

__version__ = "1.0.0"

__all__ = ["Database", "EdiFlow", "__version__"]
