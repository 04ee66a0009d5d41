"""The control plane: commit modes, fencing, failover, catch-up.

A :class:`ReplicationGroup` sits between :class:`DatabaseService
<repro.service.service.DatabaseService>` and the :class:`WalShipper
<repro.replication.shipper.WalShipper>`:

* **Commit modes.** ``async`` acknowledges a commit as soon as it is
  durable on the primary; ``sync(k)`` blocks until ``k`` replicas
  acknowledge the commit's sequence number; ``quorum`` blocks until a
  majority of the group (primary included) holds it. On a missed quota
  the caller gets :exc:`ReplicationTimeout` — the op is durable and
  applied locally but was *not* acknowledged, and after a failover it
  may legitimately be absent.

* **Epoch fencing.** Every leadership change bumps a monotone ``term``
  stamped into subsequent WAL records. The primary's write path calls
  :meth:`check_primary` with the term token it was issued at attach;
  once the group has moved on, the check raises :exc:`StalePrimary`
  *before* the deposed writer can touch its log — split-brain is
  rejected at the door, not repaired after.

* **Failover.** :meth:`promote` polls the replicas and picks the one
  with the highest ``applied_seq``. Shipping is sequential per
  replica, so all replica prefixes are totally ordered and the
  longest prefix contains every sequence number any replica ever
  acknowledged — under ``sync(k>=1)``/``quorum`` that includes every
  op acknowledged to any caller, which is the no-acked-loss guarantee
  the chaos soak asserts, *provided every replica that might hold the
  longest prefix is reachable when promotion runs* (promoting while
  the freshest replica is partitioned away fences below its acked
  tail — see :meth:`promote`). The fence point (deposed term →
  highest surviving sequence) is recorded so a rejoining deposed
  primary can cut its unacknowledged tail back to the shared prefix;
  surviving links past the fence are re-bootstrapped by snapshot
  before they may ack in the new term.

* **Bounded-staleness reads.** :meth:`read` picks the freshest
  replica within ``max_lag_seq``/``max_lag_seconds`` and runs the
  callable against its copy; when nothing qualifies the caller gets
  :exc:`StalenessUnserved` (surfaced as a 503 via ``/health``).
"""

from __future__ import annotations

import json
import re
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass

from repro.errors import (
    ReplicaDiverged,
    ReplicationError,
    ReplicationTimeout,
    StalenessUnserved,
    StalePrimary,
)
from repro.fdb import persistence
from repro.obs.hooks import OBS
from repro.replication.replica import Replica
from repro.report import Report
from repro.replication.shipper import (
    ReplicaLink,
    SnapshotNeeded,
    WalShipper,
)
from repro.replication.transport import InProcessTransport

__all__ = ["CommitMode", "ReplicationGroup", "PromotionReport",
           "CatchUpReport", "RejoinReport"]

_SYNC = re.compile(r"^sync\((\d+)\)$")


def _within(info: dict, max_lag_seq: int | None,
            max_lag_seconds: float | None) -> bool:
    """Whether one replica's :meth:`ReplicationGroup.lag` entry sits
    within the staleness bound (an absent bound always holds)."""
    return ((max_lag_seq is None or info["lag_seq"] <= max_lag_seq)
            and (max_lag_seconds is None
                 or info["lag_seconds"] <= max_lag_seconds))


def ranked(statuses: dict[str, dict]) -> list[str]:
    """The replicas a failover may promote, best first: none whose
    status says crashed or diverged; the highest ``applied_seq`` (the
    longest applied prefix) first, the smallest name on ties. A bare
    :meth:`ReplicationGroup.promote` and the lease coordinator's
    election both take the head."""
    return sorted(
        (name for name, status in statuses.items()
         if not (status.get("crashed") or status.get("diverged"))),
        key=lambda name: (-statuses[name]["applied_seq"], name))


@dataclass(frozen=True)
class CommitMode:
    """Parsed commit mode: ``async`` | ``sync(k)`` | ``quorum``."""

    kind: str
    k: int = 0

    @classmethod
    def parse(cls, text: "CommitMode | str") -> "CommitMode":
        if isinstance(text, CommitMode):
            return text
        if text == "async":
            return cls("async")
        if text == "quorum":
            return cls("quorum")
        match = _SYNC.match(text)
        if match:
            k = int(match.group(1))
            if k < 1:
                raise ValueError("sync(k) requires k >= 1")
            return cls("sync", k)
        raise ValueError(
            f"unknown commit mode {text!r} "
            f"(expected 'async', 'sync(k)' or 'quorum')"
        )

    def required_acks(self, replicas: int) -> int:
        """Replica acks needed before a commit is acknowledged."""
        if self.kind == "async":
            return 0
        if self.kind == "sync":
            return self.k
        # quorum: majority of the whole group; the primary's own
        # durable copy counts as one vote.
        return (replicas + 1) // 2

    def __str__(self) -> str:
        return f"sync({self.k})" if self.kind == "sync" else self.kind


@dataclass(frozen=True)
class PromotionReport(Report, tag="promotion"):
    """What one failover decided, JSON-ready via :meth:`as_dict`."""

    chosen: str
    applied_seq: int
    old_term: int
    new_term: int
    candidates: tuple[tuple[str, int], ...] = ()

    def __str__(self) -> str:
        return (f"promoted {self.chosen} at seq {self.applied_seq} "
                f"(term {self.old_term} -> {self.new_term})")


@dataclass(frozen=True)
class CatchUpReport(Report, tag="catch_up"):
    """How one replica was brought up to date."""

    replica: str
    mode: str  # "delta" | "snapshot" | "none"
    from_seq: int
    to_seq: int
    term: int
    snapshot_wal_applied: int | None = None


@dataclass(frozen=True)
class RejoinReport(Report, tag="rejoin"):
    """How a deposed primary was repaired back into the group."""

    replica: str
    old_term: int
    fence_seq: int
    records_dropped: int
    torn_tail_discarded: bool
    rebootstrapped: bool
    catch_up: CatchUpReport


class ReplicationGroup:
    """One primary, N replicas, a commit mode, and a monotone term."""

    def __init__(self, mode: CommitMode | str = "async", *,
                 ack_timeout: float = 5.0,
                 retry_interval: float = 0.02) -> None:
        self.mode = CommitMode.parse(mode)
        self.ack_timeout = ack_timeout
        self.retry_interval = retry_interval
        self.term = 0
        self.primary_name = "primary"
        self.shipper: WalShipper | None = None
        # Set by the service: a zero-arg callable returning a context
        # manager that holds the write path still while a consistent
        # snapshot is dumped for catch-up. Without one, snapshots are
        # taken unguarded (single-threaded harnesses).
        self.exclusive = None
        self._logged = None
        self._lease = None  # LeaseManager once enable_lease() ran
        self._replicas: dict[str, Replica] = {}
        self._fences: dict[int, int] = {}  # deposed term -> fence seq
        self._pending_term: int | None = None
        self._lock = threading.RLock()

    # -- leadership ---------------------------------------------------------

    def attach_primary(self, logged, *, node: str = "primary") -> int:
        """Bind a :class:`LoggedDatabase` as the group's primary.

        Bumps the term (the first attach is term 1) unless a
        :meth:`promote` already claimed the next term for this attach.
        Returns the term token the primary's write path must present
        to :meth:`check_primary` on every commit. Surviving replica
        links carry over from the previous leadership.
        """
        with self._lock:
            if self._pending_term is not None:
                term = self._pending_term
                self._pending_term = None
            else:
                term = self.term + 1
            self.term = term
            self.primary_name = node
            self._logged = logged
            logged.log.term = term
            old = self.shipper
            self.shipper = WalShipper(logged.log, term=term)
            if old is not None:
                for link in old.links():
                    self.shipper._links[link.name] = link
            if self._lease is not None:
                self.shipper.lease = self._lease
                self._lease.grant(term)
            if OBS.enabled:
                OBS.gauge("replication.term", term)
                OBS.action("replication.primary_attached",
                           node=node, term=term)
            return term

    def check_primary(self, token: int) -> None:
        """The epoch fence: raise :exc:`StalePrimary` unless ``token``
        is the group's current term *and* (with a lease enabled) a
        quorum confirmed this leadership inside the lease's validity
        window. Called on the primary's write path *before* the WAL
        append — a deposed or leaderless primary never reaches its
        log."""
        with self._lock:
            current = self.term
            deposed = (token != current or self._pending_term is not None)
            lease = self._lease
        if deposed:
            if OBS.enabled:
                OBS.action("replication.write_fenced",
                           writer_term=token, group_term=current)
            raise StalePrimary(token, current)
        if lease is not None:
            lease.check()  # raises LeaseExpired once the lease lapsed

    def enable_lease(self, config=None, *, clock=None):
        """Turn on lease-based leadership for this group: subsequent
        shipper exchanges carry heartbeat stamps and count as renewal
        votes, and :meth:`check_primary` additionally self-demotes a
        primary whose lease lapsed. Returns the :class:`LeaseManager
        <repro.replication.lease.LeaseManager>` (start its renewer for
        idle-primary heartbeats)."""
        from repro.replication.lease import LeaseConfig, LeaseManager
        with self._lock:
            if self._lease is None:
                self._lease = LeaseManager(
                    self, config or LeaseConfig(), clock=clock
                )
            if self.shipper is not None:
                self.shipper.lease = self._lease
            if self._logged is not None:
                self._lease.grant(self.term)
            return self._lease

    @property
    def lease(self):
        """The group's :class:`LeaseManager`, or ``None``."""
        return self._lease

    def leaderless(self) -> bool:
        """True when lease-based leadership is on and no node can
        currently prove leadership — the service layer fails writes
        fast (:exc:`LeaseExpired` is a :exc:`ServiceReadOnly`) instead
        of queueing them behind locks."""
        lease = self._lease
        return lease is not None and not lease.held()

    # -- membership ---------------------------------------------------------

    def add_replica(self, name: str, replica: Replica) -> CatchUpReport:
        """Link a replica and bootstrap it from the primary's current
        state — or, if it cannot be reached, report that
        (:meth:`catch_up`) and leave it linked for a later pass to
        bootstrap."""
        with self._lock:
            shipper = self._require_shipper()
            self._replicas[name] = replica
            shipper.add(name, InProcessTransport(replica.handle, name=name))
        return self.catch_up(name)

    def remove_replica(self, name: str) -> None:
        with self._lock:
            if self.shipper is not None:
                self.shipper.remove(name)
            replica = self._replicas.pop(name, None)
        if replica is not None:
            replica.close()

    def close(self) -> None:
        """Shut down every local replica (releases its WAL
        descriptor). The group stays usable — a replica reopens on the
        next shipped batch."""
        with self._lock:
            replicas = list(self._replicas.values())
        for replica in replicas:
            replica.close()

    def replica(self, name: str) -> Replica:
        with self._lock:
            try:
                return self._replicas[name]
            except KeyError:
                raise ReplicationError(
                    f"no local replica named {name!r}"
                ) from None

    def replica_names(self) -> list[str]:
        with self._lock:
            shipper = self.shipper
            return [link.name for link in shipper.links()] \
                if shipper else []

    # -- the commit path ----------------------------------------------------

    def on_commit(self, seq: int) -> dict:
        """Ship the commit at ``seq`` and wait out the commit mode:
        :meth:`_ship_passes` until ``required_acks`` links hold it, or
        :exc:`ReplicationTimeout` after ``ack_timeout`` — at once when
        the quota is larger than the linked replicas. ``async`` needs
        no ack, so it is one best-effort pass."""
        shipper = self._require_shipper()
        links = shipper.links()
        needed = self.mode.required_acks(len(links))
        acked = self._ship_passes(
            shipper, links, seq, needed,
            time.monotonic() + self.ack_timeout,
            ack_clock=time.perf_counter() if OBS.enabled else None,
        )
        if acked >= needed:
            return {"seq": seq, "acks": acked, "mode": str(self.mode)}
        if OBS.enabled:
            OBS.inc("replication.ack_timeouts")
            OBS.action("replication.ack_timeout", seq=seq, acks=acked,
                       needed=needed, mode=str(self.mode))
        within = (f"with only {len(links)} replicas linked"
                  if needed > len(links) else f"within {self.ack_timeout}s")
        raise ReplicationTimeout(f"commit seq {seq} got {acked}/{needed} "
                                 f"replica acks {within} ({self.mode})")

    def sync_all(self, timeout: float | None = None) -> dict:
        """Drain every reachable replica up to the primary's last
        sequence number (test/soak settling, not a commit-path API)."""
        shipper = self._require_shipper()
        target = shipper.log.last_seq()
        links = shipper.links()
        timeout = self.ack_timeout if timeout is None else timeout
        self._ship_passes(shipper, links, target, len(links),
                          time.monotonic() + timeout)
        return {"target": target,
                "lagging": sorted(link.name for link in links
                                  if link.acked_seq < target)}

    def _ship_passes(self, shipper: WalShipper, links: list[ReplicaLink],
                     target: int, needed: int, deadline: float, *,
                     ack_clock: float | None = None) -> int:
        """The one shipping loop. Each pass ships every link below
        ``target``; passes after the first run only while fewer than
        ``needed`` links hold it, ``needed`` can be met and
        ``deadline`` is ahead. Returns how many links hold ``target``;
        with an ``ack_clock`` (``perf_counter`` origin) each one that
        comes to hold it is timed into the commit-to-ack histogram."""
        awaiting = ({link.name for link in links
                     if link.acked_seq < target}
                    if ack_clock is not None else ())
        while True:
            acked = 0
            for link in links:
                if link.acked_seq < target:
                    self._ship(shipper, link, target)
                    if link.acked_seq < target:
                        continue
                acked += 1
                if link.name in awaiting:
                    awaiting.discard(link.name)
                    OBS.observe(
                        f"replication.commit.ack_seconds.{link.name}",
                        time.perf_counter() - ack_clock,
                    )
            self._refresh_gauges()
            if (acked >= needed or needed > len(links)
                    or time.monotonic() >= deadline):
                return acked
            time.sleep(self.retry_interval)

    def _ship(self, shipper: WalShipper, link: ReplicaLink,
              seq: int) -> int | None:
        """Ship one link up to ``seq``, by snapshot when delta cannot
        reach it; returns the installed snapshot's ``wal_applied`` (or
        ``None``). The one refusal policy: an unreachable or refusing
        replica is left for the next pass; :exc:`ReplicaDiverged` (a
        newer term: this shipper is deposed) propagates."""
        installed = None
        try:
            try:
                shipper.ship(link, seq)
            except SnapshotNeeded:
                installed = self._snapshot_catch_up(shipper, link)
                shipper.ship(link, seq)
        except ReplicaDiverged:
            raise
        except (ConnectionError, TimeoutError, ReplicationError):
            pass
        return installed

    # -- catch-up -----------------------------------------------------------

    def catch_up(self, name: str) -> CatchUpReport:
        """Bring one replica up to the primary's last sequence number
        (one :meth:`_ship`). An unreachable replica is reported, not
        raised: ``to_seq == from_seq`` and the link stays as it was,
        for the next commit to bring along."""
        shipper = self._require_shipper()
        link = shipper.link(name)
        from_seq = link.acked_seq
        installed = self._ship(shipper, link, shipper.log.last_seq())
        mode = ("snapshot" if installed is not None
                else "delta" if link.acked_seq > from_seq else "none")
        report = CatchUpReport(
            replica=name, mode=mode, from_seq=from_seq,
            to_seq=link.acked_seq, term=self.term,
            snapshot_wal_applied=installed,
        )
        if OBS.enabled:
            OBS.action("replication.catch_up", **report.as_dict())
        self._refresh_gauges()
        return report

    def _snapshot_catch_up(self, shipper: WalShipper,
                           link: ReplicaLink) -> int:
        """Dump a consistent snapshot of the primary and install it on
        the replica. The dump runs under the service's exclusive write
        guard when one is wired in, so no commit lands mid-dump."""
        logged = self._logged
        if logged is None:
            raise ReplicationError("no primary attached")
        guard = self.exclusive() if self.exclusive is not None \
            else nullcontext()
        with guard:
            wal_applied = logged.log.last_seq()
            text = persistence.dumps(
                logged.db, wal_applied=wal_applied, term=self.term
            )
        shipper.ship_snapshot(link, text, wal_applied)
        if OBS.enabled:
            OBS.inc("replication.snapshot.catch_ups")
            OBS.action("replication.snapshot_bootstrap",
                       replica=link.name, wal_applied=wal_applied,
                       term=self.term, bytes=len(text))
        return wal_applied

    # -- failover -----------------------------------------------------------

    def promote(self, name: str | None = None) -> PromotionReport:
        """Fail over: depose the current primary and pick the new one.

        Polls every reachable replica and (by default) chooses by
        :func:`ranked`, the rule the lease coordinator's election
        applies too: never a crashed or diverged replica; the highest
        ``applied_seq`` — the longest applied prefix, which contains
        every acknowledged commit — and the smallest name on ties.
        ``name`` chooses any reachable replica instead. The chosen replica
        leaves the follower set; the caller builds the new primary on
        its working directory and calls :meth:`attach_primary`, which
        consumes the term this promotion claimed. The deposed term's
        fence point is recorded for :meth:`rejoin`, surviving links
        have their acks capped at the fence, and any link that could
        not be polled — or whose applied prefix exceeds the fence —
        is marked for snapshot re-bootstrap so a divergent old-term
        tail can never ack new-term commits.

        **Partition caveat.** Only *reachable* replicas are
        candidates. If the sole holder of an acked commit is
        unreachable when promotion runs, the new history fences below
        that commit and the ack guarantee is violated for it — the
        same trade every leader election without a quorum
        intersection makes. Under ``quorum``/``sync(k)`` with healthy
        majorities this cannot happen; operators promoting into a
        partition accept it.
        """
        with self._lock:
            shipper = self._require_shipper()
            statuses = {link.name: status for link in shipper.links()
                        if (status := shipper.poll_status(link))
                        is not None}
            candidates = [(replica, status["applied_seq"])
                          for replica, status in statuses.items()]
            if name is None:
                fit = ranked(statuses)
                if not fit:
                    raise ReplicationError(
                        "no reachable replica fit to promote"
                    )
                name = fit[0]
            elif name not in statuses:
                raise ReplicationError(
                    f"replica {name!r} is not reachable for promotion"
                )
            chosen, applied = name, statuses[name]["applied_seq"]
            old_term = self.term
            new_term = old_term + 1
            self._fences[old_term] = applied
            self._pending_term = new_term
            self.term = new_term
            if self._lease is not None:
                # The deposed term's lease dies with the promotion —
                # the polls this election just ran (and any late acks)
                # must not renew it; attach_primary re-grants for the
                # new term.
                self._lease.revoke()
            shipper.remove(chosen)
            # The chosen follower retires; the new primary's log
            # becomes the one log object on its wal.log.
            self._replicas[chosen].close()
            # Surviving links must not carry acks — or history — past
            # the fence into the new term. A replica whose applied
            # prefix exceeds the fence (it outran the chosen one
            # before a partition cut it off) holds old-term records
            # at sequence numbers the new history will reuse with
            # different contents; leaving its ack standing would let
            # on_commit count never-shipped new-term records as
            # replicated, and its divergent tail would never be
            # repaired. Cap every carried ack at the fence, and force
            # any link that sits past it — or that we could not poll
            # at all — through snapshot re-bootstrap, which truncates
            # its local log before it can ack anything in the new
            # term.
            for link in shipper.links():
                status = statuses.get(link.name)
                if (status is None or status.get("diverged")
                        or status["applied_seq"] > applied):
                    link.needs_snapshot = True
                link.acked_seq = min(link.acked_seq, applied)
            report = PromotionReport(
                chosen=chosen, applied_seq=applied,
                old_term=old_term, new_term=new_term,
                candidates=tuple(sorted(candidates)),
            )
            # Per-replica ack state at the instant the fence fell
            # (post-capping) — the audit timeline's evidence for which
            # acks survived into the new term and who must
            # re-bootstrap. Serialized here, while the lock still
            # guards the links.
            ack_state = {
                link.name: {
                    "acked_seq": link.acked_seq,
                    "acked_term": link.acked_term,
                    "needs_snapshot": link.needs_snapshot,
                }
                for link in shipper.links()
            }
        if OBS.enabled:
            OBS.gauge("replication.term", new_term)
            OBS.action("replication.fence", old_term=old_term,
                       new_term=new_term, fence_seq=applied,
                       chosen=chosen,
                       acks=json.dumps(ack_state, sort_keys=True))
            OBS.action("replication.promote", chosen=chosen,
                       applied_seq=applied, old_term=old_term,
                       new_term=new_term)
        return report

    def fence_seq(self, old_term: int) -> int:
        """Where the history of a deposed term was cut."""
        with self._lock:
            try:
                return self._fences[old_term]
            except KeyError:
                raise ReplicationError(
                    f"term {old_term} was never deposed here"
                ) from None

    def rejoin(self, replica: Replica, old_term: int) -> RejoinReport:
        """Repair a deposed primary's working directory back onto the
        shared prefix and re-admit it as a follower.

        The repair order is the tentpole's safety argument in code:
        drop a torn final line (the mid-write crash artifact), then
        truncate every record past the fence point (committed on the
        old primary, acknowledged by nobody), then recover locally and
        catch up from the new primary. If the old primary checkpointed
        its unacknowledged tail into its snapshot before dying, the
        local state is unrepairable by truncation and the node
        re-bootstraps from the new primary's checkpoint instead.
        """
        fence = self.fence_seq(old_term)
        torn = replica.log.discard_torn_tail()
        dropped = replica.log.truncate_to(fence)
        rebootstrap = False
        if replica.snapshot_path.exists():
            _, meta = persistence.load_with_meta(replica.snapshot_path)
            if (meta.get("wal_applied") or 0) > fence:
                rebootstrap = True
        if rebootstrap:
            replica.db = None
            replica.applied_seq = 0
            replica.crashed = False
            replica.diverged = False
        else:
            replica.restart()
            replica.applied_seq = min(replica.applied_seq, fence)
        replica.term = max(replica.term, old_term)
        with self._lock:
            shipper = self._require_shipper()
            self._replicas[replica.name] = replica
            link = shipper.add(
                replica.name,
                InProcessTransport(replica.handle, name=replica.name),
            )
            link.needs_snapshot = rebootstrap or replica.db is None
            if not link.needs_snapshot:
                link.acked_seq = replica.applied_seq
        catch_up = self.catch_up(replica.name)
        report = RejoinReport(
            replica=replica.name, old_term=old_term, fence_seq=fence,
            records_dropped=dropped, torn_tail_discarded=torn,
            rebootstrapped=rebootstrap, catch_up=catch_up,
        )
        if OBS.enabled:
            OBS.action("replication.rejoin", replica=replica.name,
                       old_term=old_term, fence_seq=fence,
                       records_dropped=dropped,
                       rebootstrapped=rebootstrap)
        return report

    # -- reads --------------------------------------------------------------

    def read(self, fn, *, max_lag_seq: int | None = None,
             max_lag_seconds: float | None = None):
        """Serve a read from the freshest replica within the staleness
        bound; :exc:`StalenessUnserved` when none qualifies."""
        lags = self.lag()
        eligible = sorted(
            (info["lag_seq"], name) for name, info in lags.items()
            if _within(info, max_lag_seq, max_lag_seconds)
        )
        for _, name in eligible:
            try:
                return self.replica(name).read(fn)
            except ReplicationError:
                continue
        raise StalenessUnserved(
            f"no replica within max_lag_seq={max_lag_seq} "
            f"max_lag_seconds={max_lag_seconds} "
            f"(lags: { {n: i['lag_seq'] for n, i in lags.items()} })"
        )

    # -- health -------------------------------------------------------------

    def lag(self) -> dict:
        """Per-replica lag in sequence numbers and seconds, refreshing
        the ``replication.lag.{seq,seconds}.<replica>`` gauges."""
        shipper = self.shipper
        if shipper is None:
            return {}
        head = shipper.log.last_seq()
        now = time.monotonic()
        out: dict[str, dict] = {}
        for link in shipper.links():
            lag_seq = max(0, head - link.acked_seq)
            lag_seconds = 0.0 if lag_seq == 0 \
                else max(0.0, now - link.last_progress)
            out[link.name] = {
                "acked_seq": link.acked_seq,
                "lag_seq": lag_seq,
                "lag_seconds": lag_seconds,
                "errors": link.errors,
                "last_error": link.last_error,
            }
            if OBS.enabled:
                OBS.gauge(f"replication.lag.seq.{link.name}", lag_seq)
                OBS.gauge(f"replication.lag.seconds.{link.name}",
                          round(lag_seconds, 6))
        return out

    def worst_lag_seq(self) -> float | None:
        """The worst replica's applied-seq lag right now, or ``None``
        with no links — the level the ``replication.lag`` SLO probes."""
        lags = self.lag()
        if not lags:
            return None
        return float(max(info["lag_seq"] for info in lags.values()))

    def _refresh_gauges(self) -> None:
        if OBS.enabled:
            self.lag()

    def health(self, *, max_lag_seq: int | None = None,
               max_lag_seconds: float | None = None) -> dict:
        """One JSON-ready view for ``/health`` and ``stats()``:
        ``servable`` is whether at least one replica sits within the
        given staleness bound (no bound: any linked replica at all)."""
        lags = self.lag()
        servable = any(_within(info, max_lag_seq, max_lag_seconds)
                       for info in lags.values())
        out = {
            "role": "primary",
            "node": self.primary_name,
            "term": self.term,
            "mode": str(self.mode),
            "replicas": lags,
            "min_lag_seq": min(
                (info["lag_seq"] for info in lags.values()),
                default=None,
            ),
            "servable": servable,
        }
        if self._lease is not None:
            out["lease"] = self._lease.status()
        return out

    def _require_shipper(self) -> WalShipper:
        shipper = self.shipper
        if shipper is None:
            raise ReplicationError(
                "no primary attached to the replication group"
            )
        return shipper
