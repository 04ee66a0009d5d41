"""The follower role: apply shipped WAL records in sequence order.

A :class:`Replica` owns a working directory with the same two files a
primary has — ``snapshot.json`` and ``wal.log`` — and keeps them in
write-ahead order: every shipped record is appended to the local log
*before* it is applied, so a replica that dies mid-batch restarts into
exactly the prefix it durably received. Because update application is
deterministic (null and NC indices come from persisted counters), the
replica's state after applying records ``1..n`` is byte-for-byte the
primary's state at sequence ``n`` — the repair guarantee failover
builds on.

The replica speaks the shipper's message protocol via :meth:`handle`:

* ``append`` — a batch of raw framed v2 records ``(applied_seq, hi]``
  plus the ``through_seq`` high-water mark. Records the replica
  already holds are skipped (re-shipment after a lost ack), a gap
  — before the batch or inside it — means the shipper must back up
  (reply ``error: gap``, nothing of the batch kept), and a term
  below the replica's own is refused outright (``error: stale-term``
  — a deposed primary must never extend a follower's history).
* ``snapshot`` — full-state catch-up: install the primary's
  ``persistence.dumps`` text, reset the local log to a header at
  ``wal_applied``. Text that does not load is refused
  (``error: bad-snapshot``) and changes nothing.
* ``status`` — ``applied_seq`` / ``term`` for promotion decisions.

The shipper calls :meth:`handle` on its own thread, so the spans a
frame opens here nest under the shipping span.

Entries whose compensating ``abort_of`` record arrives in the same
batch are skipped rather than applied-then-unapplied. The shipper
sends every record it read for the range in one batch, so an entry and
an abort behind it that the range holds arrive together — a replica
never applies an entry whose abort is already in the shipped history
behind it.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path

from repro.errors import PersistenceError, ReplicationError
from repro.faults.registry import FAULTS, SimulatedCrash
from repro.fdb import persistence, storage
from repro.fdb.database import FunctionalDatabase
from repro.fdb.updates import apply_entry
from repro.fdb.wal import Frame, UpdateLog, committed, decode_frame, recover
from repro.obs.hooks import OBS

__all__ = ["Replica"]

FAULTS.register(
    "repl.replica.apply",
    "Replica.handle(append): before one shipped record is applied "
    "(crash here simulates a replica dying mid-batch)",
)


class Replica:
    """One follower: a checkpoint-bootstrapped database copy advanced
    by shipped WAL records, exposing ``applied_seq``."""

    def __init__(self, name: str, workdir: str | Path, *,
                 fsync: bool = False) -> None:
        self.name = name
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.snapshot_path = self.workdir / "snapshot.json"
        self.wal_path = self.workdir / "wal.log"
        self.fsync = fsync
        # The one log object for this copy's ``wal.log``: shipped
        # frames are appended through it and every repair (torn tail,
        # fence truncation, snapshot install) goes through it, so the
        # held descriptor is dropped wherever the file is replaced.
        self.log = UpdateLog(self.wal_path, fsync=fsync)
        self.db: FunctionalDatabase | None = None
        self.applied_seq = 0
        self.term = 0
        self.crashed = False
        self.diverged = False
        # Attached by FailoverCoordinator.watch(): tracks lease expiry
        # from the heartbeat stamps observed on incoming frames.
        self.failure_detector = None
        self._lock = threading.RLock()
        self._last_progress = time.monotonic()

    # -- lifecycle ----------------------------------------------------------

    def crash(self) -> None:
        """Simulate process death: drop the in-memory state, keep the
        files. :meth:`restart` must rebuild from disk alone."""
        with self._lock:
            self.crashed = True
            self.db = None
            self.log.close()  # a dead process holds no descriptor

    def close(self) -> None:
        """Shutdown: release the local WAL's descriptor. Idempotent; a
        later shipped batch reopens."""
        with self._lock:
            self.log.close()

    def restart(self) -> None:
        """Come back from a crash using only the working directory:
        replay snapshot + log, recompute ``applied_seq`` from what is
        durably on disk. A torn tail is skipped here and cut by the
        log's next write."""
        with self._lock:
            if not self.snapshot_path.exists():
                # Never bootstrapped before the crash: stay empty and
                # let catch-up install a snapshot.
                self.db = None
                self.applied_seq = 0
                self.crashed = False
                self.diverged = False
                return
            report = recover(self.snapshot_path, self.wal_path,
                             policy="strict")
            self.db = report.db
            # From the files, not the log object's cached position:
            # the disk is all a restart may trust.
            self.applied_seq = max(report.last_seq,
                                   report.wal_applied or 0)
            self.term = max(report.term, self.term)
            self.crashed = False
            self.diverged = False
            self._last_progress = time.monotonic()

    # -- message protocol ---------------------------------------------------

    def handle(self, message: dict) -> dict:
        """Serve one shipper request (see module docstring)."""
        if self.crashed:
            raise ConnectionError(f"replica {self.name} is down")
        lease = message.get("lease")
        detector = self.failure_detector
        if lease is not None and detector is not None:
            # Any frame from a live leader is a heartbeat: feed the
            # failure detector before dispatch (a crashed replica
            # hears nothing — the check above already threw).
            detector.observe(lease)
        kind = message.get("type")
        if kind == "append":
            return self._handle_append(message)
        if kind == "snapshot":
            return self._handle_snapshot(message)
        if kind == "status":
            return self.status() | {"ok": True}
        return {"ok": False, "error": f"unknown message type {kind!r}"}

    def _handle_append(self, message: dict) -> dict:
        term = message.get("term", 0)
        records = message.get("records", [])
        through_seq = message.get("through_seq", 0)
        with self._lock, OBS.span("replication.receive",
                                  replica=self.name, term=term,
                                  records=len(records),
                                  through_seq=through_seq) as scope:
            return self._append_received(term, records, through_seq,
                                         scope)

    def _append_received(self, term: int, records: list,
                         through_seq: int, scope) -> dict:
        # Caller holds the lock and the receive span.
        def refused(error: str, detail: str = "", **extra) -> dict:
            if OBS.enabled:
                scope.attrs["error"] = error
            return {"ok": False, "error": error + detail,
                    "applied_seq": self.applied_seq, **extra}

        if term < self.term:
            return refused("stale-term", term=self.term)
        if self.diverged:
            return refused("diverged")
        if self.db is None:
            return refused("needs-snapshot")
        try:
            frames = [decode_frame(line) for line in records]
        except PersistenceError as exc:
            return refused("bad-record", f": {exc}")
        if any(frame.seq is None for frame in frames):
            # Checkpoint bookkeeping with no sequence number of its
            # own: meaningless off the node that wrote it.
            return refused("bad-record", ": a header record never ships")
        fresh = [frame for frame in frames
                 if frame.seq > self.applied_seq]
        # Every fresh frame is its predecessor's successor, not just
        # the first: acking past a hole would claim a record this copy
        # never received, and leave a local log strict recovery
        # refuses.
        if any(frame.seq != seq for seq, frame
               in enumerate(fresh, self.applied_seq + 1)):
            return refused("gap")
        # The last frame this copy holds once the batch is in. The ack
        # goes that far — past trailing abort records, which apply
        # nothing — and never further: a higher mark would claim
        # records this copy never received.
        held = fresh[-1].seq if fresh else self.applied_seq
        if through_seq > held:
            return refused("bad-record",
                           f": through_seq {through_seq} is beyond the "
                           f"last record sent ({held})")
        try:
            self._apply_fresh(fresh)
        except SimulatedCrash:
            self.crash()
            raise ConnectionError(
                f"replica {self.name} crashed mid-apply"
            ) from None
        with OBS.span("replication.ack", replica=self.name,
                      term=term) as ack_scope:
            if term > self.term:
                self.term = term
            self.applied_seq = held
            self._last_progress = time.monotonic()
            if OBS.enabled:
                OBS.inc("replication.records_applied", len(fresh))
                ack_scope.attrs["applied_seq"] = self.applied_seq
        return {"ok": True, "applied_seq": self.applied_seq,
                "term": self.term}

    def _apply_fresh(self, fresh: list[Frame]) -> None:
        """Append the whole fresh batch to the local log, then apply
        it — two passes, write-ahead order preserved batch-wide (every
        record is durable before *any* of its effects are; a crash
        between the phases replays the appended suffix on restart).
        The split keeps each phase one contiguous span, so the folded
        pipeline shows local-WAL time apart from apply time. The spans'
        ``appended_to``/``applied_to`` attrs advance record by record:
        a batch cut short by a crash reports exactly how far it got.
        """
        if not fresh:
            return
        first, last = fresh[0].seq, fresh[-1].seq
        enabled = OBS.enabled
        started = time.perf_counter() if enabled else 0.0
        with OBS.span("replica.wal_append",
                      replica=self.name, from_seq=first,
                      to_seq=last) as scope:
            for frame in fresh:
                FAULTS.fire("repl.replica.apply", replica=self.name,
                            seq=frame.seq)
                # Write-ahead locally too: the record is on disk before
                # its effects are, so a crash between the two replays it.
                self.log.append_frame(frame.seq, frame.line)
                if enabled:
                    scope.attrs["appended_to"] = frame.seq
        if enabled:
            OBS.observe(
                f"replication.pipeline.wal_append_seconds.{self.name}",
                time.perf_counter() - started,
            )
            started = time.perf_counter()
        with OBS.span("replica.apply",
                      replica=self.name, from_seq=first,
                      to_seq=last) as scope:
            for frame in committed(fresh):
                try:
                    apply_entry(self.db, frame.payload)
                except Exception as exc:
                    # Deterministic replay of a committed record
                    # failed: this copy no longer extends the
                    # primary's history. Freeze it; catch-up must
                    # re-bootstrap.
                    self.diverged = True
                    if OBS.enabled:
                        OBS.action("replication.diverged",
                                   replica=self.name, seq=frame.seq,
                                   error=str(exc))
                    raise ReplicationError(
                        f"replica {self.name} diverged at seq "
                        f"{frame.seq}: {exc}"
                    ) from exc
                self.applied_seq = frame.seq
                if enabled:
                    scope.attrs["applied_to"] = frame.seq
        if enabled:
            OBS.observe(
                f"replication.pipeline.apply_seconds.{self.name}",
                time.perf_counter() - started,
            )

    def _handle_snapshot(self, message: dict) -> dict:
        term = message.get("term", 0)
        wal_applied = message.get("wal_applied", 0)
        with self._lock, OBS.span("replica.snapshot_install",
                                  replica=self.name, term=term,
                                  wal_applied=wal_applied):
            if term < self.term:
                return {"ok": False, "error": "stale-term",
                        "term": self.term,
                        "applied_seq": self.applied_seq}
            text = message.get("snapshot", "")
            try:
                db = persistence.loads(text)
            except (PersistenceError, ValueError) as exc:
                return {"ok": False,
                        "error": f"bad-snapshot: {exc}",
                        "applied_seq": self.applied_seq}
            storage.atomic_write(self.snapshot_path, text)
            self.log.term = max(term, self.term)  # stamps the header
            self.log.truncate(next_seq=wal_applied + 1)
            self.db = db
            self.applied_seq = wal_applied
            self.term = max(term, self.term)
            self.diverged = False
            self._last_progress = time.monotonic()
            if OBS.enabled:
                OBS.inc("replication.snapshots_installed")
                OBS.action("replication.snapshot_installed",
                           replica=self.name, wal_applied=wal_applied,
                           term=self.term)
            return {"ok": True, "applied_seq": self.applied_seq,
                    "term": self.term}

    # -- reading ------------------------------------------------------------

    def read(self, fn):
        """Run a read-only callable against the replica's database
        under its apply lock (a consistent point-in-time view)."""
        with self._lock:
            if self.crashed or self.db is None:
                raise ReplicationError(
                    f"replica {self.name} cannot serve reads "
                    f"(crashed={self.crashed})"
                )
            return fn(self.db)

    def status(self) -> dict:
        with self._lock:
            return {
                "name": self.name,
                "applied_seq": self.applied_seq,
                "term": self.term,
                "crashed": self.crashed,
                "diverged": self.diverged,
            }
