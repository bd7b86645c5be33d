"""DBMS <-> visualization synchronization (Section VI-C of the paper).

Typical socket-mode use::

    center = NotificationCenter(db)
    server = SyncServer(db, center)           # DBMS side
    client = SyncClient(server)               # visualization host
    rm = client.mirror("visual_attributes")   # steps 1-6 + initial fill
    ... db changes ... client receives NOTIFY ...
    client.refresh("visual_attributes")       # step 8: pull
    client.write_back("visual_attributes", tid, "x", 4.2)   # step 9

Propagation policies (Section V) are per-table::

    center.set_policy("visual_attributes", Threshold(max_changes=256))
    center.set_policy("annotations", MANUAL)   # flush on activity end
"""

from .batching import (
    DeltaCoalescer,
    IMMEDIATE,
    Immediate,
    MANUAL,
    Manual,
    PolicyGate,
    PropagationPolicy,
    Threshold,
)
from .client import SyncClient
from .faults import FaultPlan, FaultyTransport
from .memtable import MemoryTable
from .notification import NotificationCenter
from .refresher import RefreshDriver
from .protocol import (
    DISCONNECT,
    HELLO,
    NOTIFY,
    NOTIFY_BATCH,
    PING,
    PONG,
    REPLY,
    MessageStream,
    decode,
    encode,
)
from .server import SyncServer

__all__ = [
    "DISCONNECT",
    "DeltaCoalescer",
    "FaultPlan",
    "FaultyTransport",
    "HELLO",
    "IMMEDIATE",
    "Immediate",
    "MANUAL",
    "Manual",
    "MemoryTable",
    "MessageStream",
    "NOTIFY",
    "NOTIFY_BATCH",
    "NotificationCenter",
    "PING",
    "PONG",
    "PolicyGate",
    "PropagationPolicy",
    "REPLY",
    "RefreshDriver",
    "SyncClient",
    "SyncServer",
    "Threshold",
    "decode",
    "encode",
]
