"""Streaming v2 WAL records from the primary's log to replicas.

The :class:`WalShipper` is the data plane: per replica it remembers
the last acknowledged sequence number and, on demand, reads the raw
framed lines in ``(acked, through]`` out of the primary's
:class:`repro.fdb.wal.UpdateLog` and pushes them over that replica's
transport. Shipping is synchronous and idempotent — a lost ack just
means the same records go again and the replica skips what it already
holds — so the control plane (:class:`ReplicationGroup
<repro.replication.group.ReplicationGroup>`) can retry freely.

When a checkpoint has already folded the needed range into the
snapshot (``shippable_floor() > acked``), delta shipping is
impossible and :exc:`SnapshotNeeded` tells the control plane to fall
back to snapshot catch-up.

The shipper keeps no copy of what it sends: the stream is the log's
own record run, and what a replica was delivered is the replica's
business (the chaos soak records it on the receiving side).
"""

from __future__ import annotations

import threading
import time

from repro.errors import ReplicaDiverged, ReplicationError
from repro.fdb.wal import UpdateLog, decode_frame
from repro.obs.hooks import OBS
from repro.replication.transport import encode_snapshot

__all__ = ["WalShipper", "ReplicaLink", "SnapshotNeeded"]

# Records per append frame (trailing aborts of a batched entry ride
# along past it; see :meth:`WalShipper.ship`).
BATCH_LIMIT = 256


class SnapshotNeeded(ReplicationError):
    """Delta shipping cannot reach this replica: the records it needs
    were folded into a checkpoint. Catch up from the snapshot."""

    def __init__(self, name: str, acked: int, floor: int) -> None:
        super().__init__(
            f"replica {name!r} is at seq {acked} but the log floor is "
            f"{floor}; snapshot catch-up required"
        )
        self.replica = name
        self.acked = acked
        self.floor = floor


class ReplicaLink:
    """Shipping state for one replica: transport + ack bookkeeping."""

    def __init__(self, name: str, transport) -> None:
        self.name = name
        self.transport = transport
        self.acked_seq = 0
        self.acked_term = 0
        self.errors = 0
        self.last_error: str | None = None
        self.last_progress = time.monotonic()
        self.needs_snapshot = True  # fresh links bootstrap first

    def note_ack(self, applied_seq: int, term: int) -> None:
        if applied_seq > self.acked_seq:
            self.acked_seq = applied_seq
            self.last_progress = time.monotonic()
        self.acked_term = max(self.acked_term, term)
        self.last_error = None

    def note_error(self, error: str) -> None:
        self.errors += 1
        self.last_error = error


class WalShipper:
    """The record stream from one primary log to N replica links."""

    def __init__(self, log: UpdateLog, *, term: int = 0) -> None:
        self.log = log
        self.term = term
        # Set by ReplicationGroup.enable_lease(): when present, every
        # outbound frame carries a heartbeat stamp and every ok reply
        # counts as a lease renewal vote (piggybacked heartbeats).
        self.lease = None
        self._links: dict[str, ReplicaLink] = {}
        self._lock = threading.Lock()

    # -- link management ----------------------------------------------------

    def add(self, name: str, transport) -> ReplicaLink:
        with self._lock:
            if name in self._links:
                raise ReplicationError(f"replica {name!r} already "
                                       f"linked")
            link = ReplicaLink(name, transport)
            self._links[name] = link
            return link

    def remove(self, name: str) -> ReplicaLink | None:
        with self._lock:
            return self._links.pop(name, None)

    def link(self, name: str) -> ReplicaLink:
        with self._lock:
            try:
                return self._links[name]
            except KeyError:
                raise ReplicationError(
                    f"no replica linked as {name!r}"
                ) from None

    def links(self) -> list[ReplicaLink]:
        with self._lock:
            return list(self._links.values())

    # -- shipping -----------------------------------------------------------

    def ship(self, link: ReplicaLink, through_seq: int) -> int:
        """Push the records ``(link.acked_seq, through_seq]`` and
        collect the ack. Returns the replica's new applied sequence.

        Raises ``ConnectionError``/``TimeoutError`` for unreachable
        replicas, :exc:`SnapshotNeeded` when the link is marked for
        bootstrap (however far it acked) or the range is gone from the
        log, and a refusal as :meth:`_refusal` reads it.
        """
        while True:
            acked = link.acked_seq
            if through_seq <= acked and not link.needs_snapshot:
                return acked
            floor = self.log.shippable_floor()
            if link.needs_snapshot or acked < floor:
                raise SnapshotNeeded(link.name, acked, floor)
            records = self.log.records_between(acked, through_seq)
            if not records or records[0][0] != acked + 1:
                # The range (or its head) was folded away between the
                # floor check and the read — a concurrent checkpoint
                # truncated the log. Snapshot after all: an empty (or
                # gapped) append must never go out, because the replica
                # advances ``applied_seq`` to the high-water mark and
                # would silently claim records it never received.
                floor = (records[0][0] - 1 if records
                         else self.log.shippable_floor())
                raise SnapshotNeeded(link.name, acked, floor)
            batch = records[:BATCH_LIMIT]
            # A batch boundary must never separate an entry from its
            # compensating abort: the replica skips an aborted entry
            # only when both arrive in the same batch, so trailing
            # aborts referencing an already-batched record ride along
            # past the limit.
            while len(batch) < len(records):
                frame = decode_frame(records[len(batch)][1], verify=False)
                if frame.kind != "abort" \
                        or not isinstance(frame.payload, int) \
                        or frame.payload > batch[-1][0]:
                    break
                batch.append(records[len(batch)])
            # The high-water mark is the last record actually sent —
            # never ``through_seq`` itself, which may point past the
            # log's end after a concurrent fold.
            batch_through = batch[-1][0]
            reply = self._traced_exchange(link, {
                "type": "append",
                "term": self.term,
                "records": [line for _, line in batch],
                "through_seq": batch_through,
            }, "replication.ship", from_seq=acked + 1,
                through_seq=batch_through, records=len(batch))
            if not reply.get("ok"):
                raise self._refusal(link, reply, "records")
            link.note_ack(reply.get("applied_seq", acked),
                          reply.get("term", self.term))
            if OBS.enabled:
                OBS.inc("replication.records_shipped", len(batch))
            if link.acked_seq >= through_seq:
                return link.acked_seq

    def ship_snapshot(self, link: ReplicaLink, snapshot: str,
                      wal_applied: int) -> int:
        """Full-state catch-up: install ``snapshot`` on the replica
        and reset its link to ``wal_applied``.

        The payload goes out zlib-compressed behind the frame's
        ``encoding`` flag; replicas without the flag handling (older
        builds) are reached by the uncompressed form, which remains a
        valid frame — see :func:`repro.replication.transport.\
decode_snapshot`.
        """
        payload, encoding, raw_bytes, wire_bytes = \
            encode_snapshot(snapshot)
        if OBS.enabled:
            OBS.inc("replication.snapshot.bytes_raw", raw_bytes)
            OBS.inc("replication.snapshot.bytes_wire", wire_bytes)
        reply = self._traced_exchange(link, {
            "type": "snapshot",
            "term": self.term,
            "snapshot": payload,
            "encoding": encoding,
            "wal_applied": wal_applied,
        }, "replication.ship_snapshot", wal_applied=wal_applied,
            bytes_raw=raw_bytes, bytes_wire=wire_bytes)
        if not reply.get("ok"):
            raise self._refusal(link, reply, "snapshot")
        link.needs_snapshot = False
        link.note_ack(reply.get("applied_seq", wal_applied),
                      reply.get("term", self.term))
        if OBS.enabled:
            OBS.inc("replication.snapshots_shipped")
        return link.acked_seq

    def poll_status(self, link: ReplicaLink) -> dict | None:
        """The replica's own view, or ``None`` if unreachable. Status
        polls ride the same lease-stamped exchange as shipping, so a
        healthy poll also renews the lease."""
        try:
            reply = self._exchange(link, {"type": "status"})
        except ConnectionError:
            return None
        return reply if reply.get("ok") else None

    def _refusal(self, link: ReplicaLink, reply: dict,
                 what: str) -> ReplicationError:
        """The error a refused append or snapshot raises: ``stale-term``
        means this shipper is deposed (:exc:`ReplicaDiverged`); a lost
        place marks the link for bootstrap (:exc:`SnapshotNeeded`)."""
        error = reply.get("error", "refused")
        link.note_error(error)
        if error == "stale-term":
            return ReplicaDiverged(
                f"replica {link.name} is at term {reply.get('term')} — "
                f"this shipper (term {self.term}) is deposed"
            )
        if error in ("needs-snapshot", "gap", "diverged"):
            link.needs_snapshot = True
            return SnapshotNeeded(link.name, link.acked_seq,
                                  self.log.shippable_floor())
        return ReplicationError(
            f"replica {link.name} refused {what}: {error}"
        )

    def _traced_exchange(self, link: ReplicaLink, message: dict,
                         span_name: str, **attrs) -> dict:
        """One exchange wrapped in a shipping span, with the span's
        trace context stamped into the frame.

        The frame's ``trace`` field carries the ship span's id as
        ``parent_span`` (plus the causal update id, term and shipped
        seq), so the replica's receive span joins the originating
        request's pipeline across the node boundary. Older replicas
        ignore the extra key — frames round-trip unknown keys. The
        per-replica round-trip lands in the
        ``replication.ship.rtt_seconds.<replica>`` log histogram.
        Collapses to a bare exchange when telemetry is disabled.
        """
        if not OBS.enabled:
            return self._exchange(link, message)
        with OBS.span(span_name, replica=link.name, term=self.term,
                      **attrs):
            trace = OBS.trace_context()
            if trace is not None:
                trace["term"] = self.term
                trace["seq"] = message.get(
                    "through_seq", message.get("wal_applied", 0)
                )
                message = dict(message)
                message["trace"] = trace
            started = time.perf_counter()
            try:
                return self._exchange(link, message)
            finally:
                OBS.observe(
                    f"replication.ship.rtt_seconds.{link.name}",
                    time.perf_counter() - started,
                )

    def _exchange(self, link: ReplicaLink, message: dict) -> dict:
        # Piggyback the lease heartbeat: stamp the frame, and time the
        # renewal vote from *before* the request goes out so a slow
        # round trip shortens the lease instead of stretching it.
        lease = self.lease
        started = 0.0
        if lease is not None:
            message = dict(message)
            message["lease"] = lease.heartbeat_frame()
            started = lease.clock()
        try:
            reply = link.transport.request(message)
        except (ConnectionError, TimeoutError, OSError) as exc:
            link.note_error(str(exc))
            raise ConnectionError(str(exc)) from exc
        if lease is not None and reply.get("ok"):
            lease.note_ack(link.name, started)
        return reply
