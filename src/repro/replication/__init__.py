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

from repro.lazy import export_lazily

__all__ = export_lazily(__name__, {
    ".group": (
        "CatchUpReport", "CommitMode", "PromotionReport", "RejoinReport",
        "ReplicationGroup",
    ),
    ".lease": (
        "FailoverCoordinator", "FailureDetector", "LeaseClock",
        "LeaseConfig", "LeaseManager",
    ),
    ".replica": ("Replica",),
    ".shipper": ("ReplicaLink", "SnapshotNeeded", "WalShipper"),
    ".transport": ("InProcessTransport", "Transport"),
})
