"""DBMS <-> visualization synchronization (Section VI-C of the paper).

Typical socket-mode use::

    center = NotificationCenter(db)
    server = SyncServer(db, center)           # DBMS side
    client = SyncClient(server)               # visualization host
    rm = client.mirror("visual_attributes")   # steps 1-6 + initial fill
    ... db changes ... client receives NOTIFY ...
    client.refresh("visual_attributes")       # step 8: pull
    client.write_back("visual_attributes", tid, "x", 4.2)   # step 9

Propagation policies (Section V) belong to a watched table's edge::

    center.watch("visual_attributes").set_policy(Threshold(max_changes=256))
    center.watch("annotations").set_policy(MANUAL)   # flush on activity end

The policy names are re-exported here; they and the gate that applies
them live in :mod:`repro.db.policy`, beside the triggers they govern.
"""

from ..db.policy import (
    IMMEDIATE,
    MANUAL,
    Immediate,
    Manual,
    PropagationPolicy,
    Threshold,
)
from ..db.table import DeltaCoalescer
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
    "PropagationPolicy",
    "REPLY",
    "RefreshDriver",
    "SyncClient",
    "SyncServer",
    "Threshold",
    "decode",
    "encode",
]
