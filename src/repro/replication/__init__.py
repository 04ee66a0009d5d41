"""WAL-shipping replication: primary/replica roles, commit modes,
epoch-fenced failover, lease-based leadership, and bounded-staleness
reads.

Layering (see docs/REPLICATION.md):

* :mod:`repro.replication.transport` — the in-process carrier: every
  replica lives in the primary's process;
* :mod:`repro.replication.replica` — the follower role, applying
  shipped v2 WAL records in sequence order onto a
  checkpoint-bootstrapped copy;
* :mod:`repro.replication.shipper` — the data plane reading record
  ranges out of the primary's :class:`repro.fdb.wal.UpdateLog`;
* :mod:`repro.replication.group` — the control plane: ``async`` /
  ``sync(k)`` / ``quorum`` commit modes, the monotone term fence,
  promotion, rejoin repair, catch-up and staleness-bounded reads;
* :mod:`repro.replication.lease` — leadership liveness: the
  quorum-renewed lease, heartbeat failure detection, and the
  coordinator that elects and promotes without an operator.
"""

from repro.replication.group import (
    CatchUpReport,
    CommitMode,
    PromotionReport,
    RejoinReport,
    ReplicationGroup,
)
from repro.replication.lease import (
    FailoverCoordinator,
    FailureDetector,
    LeaseClock,
    LeaseConfig,
    LeaseManager,
)
from repro.replication.replica import Replica
from repro.replication.shipper import (
    ReplicaLink,
    SnapshotNeeded,
    WalShipper,
)
from repro.replication.transport import InProcessTransport, Transport

__all__ = [
    "CatchUpReport",
    "CommitMode",
    "FailoverCoordinator",
    "FailureDetector",
    "InProcessTransport",
    "LeaseClock",
    "LeaseConfig",
    "LeaseManager",
    "PromotionReport",
    "RejoinReport",
    "Replica",
    "ReplicaLink",
    "ReplicationGroup",
    "SnapshotNeeded",
    "Transport",
    "WalShipper",
]
