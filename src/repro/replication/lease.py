"""Lease-based leadership: heartbeats, failure detection, election.

PR 6–8 made failover *safe* (the term fence in
:meth:`ReplicationGroup.promote` guarantees no acked write is lost or
reordered) but not *automatic*: someone had to notice the primary was
dead and call ``promote()``. This module closes that loop with a
wall-clock-free lease protocol:

* **The lease** (:class:`LeaseManager`, primary side). The primary's
  claim to leadership is a sliding validity window anchored at its
  *quorum renewal watermark* — the instant, on the primary's own
  monotonic clock, at which a majority of the group last confirmed it.
  Every successful shipping or status exchange doubles as a heartbeat
  (the frame carries a ``lease`` stamp and the reply counts as a
  renewal vote, timed from *before* the request went out — the
  conservative end), and a background renewer keeps beats flowing when
  no writes do. The primary considers itself leader for
  ``duration - margin`` seconds past the watermark; once it cannot
  re-confirm against a quorum it **self-demotes**: the group's
  :meth:`check_primary <repro.replication.group.ReplicationGroup.\
check_primary>` raises :exc:`LeaseExpired` (a :exc:`StalePrimary`)
  *before* any WAL append, so a partitioned primary stops writing on
  its own — split-brain is structurally impossible, not merely
  detected at rejoin.

* **Failure detection** (:class:`FailureDetector`, replica side). Each
  replica tracks the last heartbeat it observed, on *its own*
  monotonic clock, and declares the lease expired only after
  ``duration + 2 * margin`` seconds of silence.

* **The safety argument.** Monotonic clocks do not share an epoch and
  may drift; ``margin`` bounds the tolerated per-node error. The
  primary stops writing ``duration - margin`` after its watermark; a
  replica's detector fires no earlier than ``duration + 2 * margin``
  after it observed a beat that was sent *at or after* that watermark.
  Even with the primary's clock running fast by ``margin`` and the
  replica's slow by ``margin`` (and heartbeat delivery latency only
  *postpones* detection — the safe direction), a real-time gap of at
  least ``margin`` separates the old leader's last possible write from
  the earliest election. The term fence then makes the ordering
  permanent.

* **Election** (:class:`FailoverCoordinator`). When a majority of the
  full group (``n`` replicas + the presumed-dead primary) reports
  expiry, the coordinator deterministically elects the reachable
  replica with the highest ``applied_seq`` (lexicographically smallest
  name on ties) — and only if enough candidates are reachable that the
  candidate set must intersect the commit mode's ack quota, so the
  longest acked prefix is always in the running (this closes the PR 6
  partition caveat for automatic failover). It then drives the
  *existing* :meth:`promote` machinery: term fence, ack capping and
  snapshot re-bootstrap rules are reused, not reimplemented.

Fault points: ``repl.lease.clock`` lets :class:`ClockSkewFault
<repro.faults.registry.ClockSkewFault>` inject per-node drift into
every clock read; ``repl.lease.heartbeat`` lets
:class:`HeartbeatDropFault <repro.faults.registry.HeartbeatDropFault>`
drop dedicated renewal exchanges.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.errors import LeaseExpired, ReplicationError
from repro.faults.registry import FAULTS
from repro.obs.hooks import OBS
from repro.replication.group import CommitMode

__all__ = ["LeaseConfig", "LeaseClock", "LeaseManager",
           "FailureDetector", "FailoverCoordinator"]

FAULTS.register(
    "repl.lease.clock",
    "LeaseClock read: every monotonic clock sample a lease participant "
    "takes (ClockSkewFault adds per-node drift here)",
)
FAULTS.register(
    "repl.lease.heartbeat",
    "LeaseManager renewal: before a dedicated heartbeat exchange goes "
    "out (HeartbeatDropFault drops it)",
)


@dataclass(frozen=True)
class LeaseConfig:
    """Timing contract shared by every lease participant.

    ``margin`` is the tolerated per-node monotonic clock error: the
    primary treats its lease as valid for ``duration - margin`` past
    the quorum watermark, while a replica's detector waits
    ``duration + 2 * margin`` past the last observed beat — the
    asymmetry is what keeps the two windows apart under worst-case
    opposite drift (see the module docstring). ``renew_interval`` and
    ``check_interval`` pace the renewer and the coordinator's watch
    loop; both must be positive.
    """

    duration: float = 1.5
    margin: float = 0.25
    renew_interval: float = 0.3
    check_interval: float = 0.05

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("lease duration must be positive")
        if self.margin < 0:
            raise ValueError("lease margin cannot be negative")
        if self.margin * 2 >= self.duration:
            raise ValueError(
                f"lease margin {self.margin} leaves no validity window "
                f"(need duration > 2 * margin, got duration "
                f"{self.duration})"
            )
        if self.renew_interval >= self.duration - self.margin:
            raise ValueError(
                "renew_interval must fit inside the primary's validity "
                f"window ({self.duration - self.margin:.3f}s)"
            )
        # Event.wait(0) returns at once: the renewer and the
        # coordinator would spin.
        if self.renew_interval <= 0:
            raise ValueError("renew_interval must be positive")
        if self.check_interval <= 0:
            raise ValueError("check_interval must be positive")

    @property
    def primary_validity(self) -> float:
        """How long past the quorum watermark the primary may write."""
        return self.duration - self.margin

    @property
    def detector_horizon(self) -> float:
        """How long a replica waits past the last observed beat."""
        return self.duration + 2 * self.margin


class LeaseClock:
    """A per-node monotonic clock whose reads pass through the
    ``repl.lease.clock`` fault point, so chaos runs can skew any one
    participant's notion of elapsed time without touching the others.
    The armed :class:`ClockSkewFault` writes its drift into the
    ``skew`` sink the clock passes along."""

    def __init__(self, node: str, base=time.monotonic) -> None:
        self.node = node
        self._base = base

    def __call__(self) -> float:
        skew = [0.0]
        FAULTS.fire("repl.lease.clock", node=self.node, skew=skew)
        return self._base() + skew[0]


class LeaseManager:
    """The primary's side of the lease: quorum-renewed, self-demoting.

    Renewal votes arrive two ways — piggybacked on every successful
    shipper exchange (:meth:`note_ack`, called by the data plane) and
    from the background renewer thread's dedicated status beats
    (:meth:`renew_once`), which keep the lease alive on an idle
    primary. Each vote is timestamped *before* its request went out,
    so a slow round-trip shortens the lease rather than stretching it.
    """

    def __init__(self, group, config: LeaseConfig | None = None, *,
                 clock=None) -> None:
        self.group = group
        self.config = config or LeaseConfig()
        self.clock = clock or LeaseClock(group.primary_name)
        self._lock = threading.Lock()
        self._granted: float | None = None
        self._term = 0
        self._acks: dict[str, float] = {}
        self._lapsed = False          # current lapse episode noted?
        self._renew_logged_term = 0   # first renewal per term is logged
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- the lease window ---------------------------------------------------

    def grant(self, term: int) -> None:
        """Anchor a fresh lease for ``term`` (called by
        ``attach_primary``): the grant instant is the first watermark,
        so a new primary gets one full validity window to start
        collecting renewals."""
        if isinstance(self.clock, LeaseClock):
            # The lease moves with the leadership: clock reads (and
            # any injected skew) are attributed to the node that now
            # holds it, which may differ from the node at enable time.
            self.clock.node = self.group.primary_name
        now = self.clock()
        with self._lock:
            self._granted = now
            self._term = term
            self._acks.clear()
            self._lapsed = False
        if OBS.enabled:
            OBS.action("replication.lease_granted",
                       node=self.group.primary_name, term=term,
                       duration=self.config.duration,
                       margin=self.config.margin)
        self._refresh_gauges(now)

    def revoke(self) -> None:
        """Invalidate the current grant (called by ``promote``): the
        leadership has moved on, so *nobody* holds the lease until the
        next ``attach_primary`` re-grants it — in particular the
        status polls the promotion itself sends must not count as
        renewal votes for the deposed term."""
        with self._lock:
            self._granted = None
            self._acks.clear()
            self._lapsed = True
        if OBS.enabled:
            OBS.gauge("replication.lease.held", 0)

    def note_ack(self, name: str, started: float) -> None:
        """One replica confirmed us; ``started`` is the clock reading
        taken before its request went out."""
        recovered = False
        with self._lock:
            if self._granted is None:
                return
            if started > self._acks.get(name, float("-inf")):
                self._acks[name] = started
            if self._lapsed and self._held_locked(self.clock()):
                # A quorum came back before any election: the lease
                # resumes under the same term, no fence needed.
                self._lapsed = False
                recovered = True
        if OBS.enabled:
            OBS.inc("replication.lease.heartbeats")
            if recovered:
                OBS.action("replication.lease_renewed",
                           term=self._term, recovered=True,
                           acks=self.ack_count())

    def needed_acks(self) -> int:
        """Renewal votes required: a majority of the full group (the
        primary's own vote included), i.e. ``(n + 1) // 2`` of ``n``
        linked replicas — the ``quorum`` commit mode's ack quota. A solo
        primary (no links) never demotes."""
        shipper = self.group.shipper
        n = len(shipper.links()) if shipper is not None else 0
        return CommitMode("quorum").required_acks(n)

    def ack_count(self) -> int:
        with self._lock:
            return len(self._acks)

    def watermark(self) -> float | None:
        """The instant a quorum last confirmed this leadership (on our
        clock), or ``None`` before any grant. With ``k`` votes needed
        the watermark is the ``k``-th freshest vote — the newest
        instant at which *all* of some quorum had already answered —
        floored at the grant instant."""
        with self._lock:
            return self._watermark_locked()

    def _watermark_locked(self) -> float | None:
        if self._granted is None:
            return None
        k = self.needed_acks()
        if k == 0:
            return self.clock()
        times = sorted(self._acks.values(), reverse=True)
        if len(times) < k:
            return self._granted
        return max(self._granted, times[k - 1])

    def held(self, now: float | None = None) -> bool:
        with self._lock:
            return self._held_locked(now if now is not None
                                     else self.clock())

    def _held_locked(self, now: float) -> bool:
        mark = self._watermark_locked()
        if mark is None:
            return False
        return (now - mark) <= self.config.primary_validity

    def remaining(self, now: float | None = None) -> float:
        """Seconds of validity left (negative once lapsed)."""
        if now is None:
            now = self.clock()
        with self._lock:
            mark = self._watermark_locked()
        if mark is None:
            return float("-inf")
        return (mark + self.config.primary_validity) - now

    def check(self) -> None:
        """The self-demotion gate, called from ``check_primary`` on
        the write path *before* any WAL append: raise
        :exc:`LeaseExpired` unless a quorum confirmed this leadership
        within the validity window."""
        now = self.clock()
        with self._lock:
            mark = self._watermark_locked()
            held = mark is not None \
                and (now - mark) <= self.config.primary_validity
            term = self._term
            first = not self._lapsed and not held
            if first:
                self._lapsed = True
        if held:
            return
        age = float("inf") if mark is None else now - mark
        if OBS.enabled:
            OBS.gauge("replication.lease.held", 0)
            if first:
                OBS.inc("replication.lease.expiries")
                OBS.action("replication.lease_expired", term=term,
                           age=round(age, 6),
                           needed_acks=self.needed_acks(),
                           acks=self.ack_count())
        raise LeaseExpired(term, age, self.config.primary_validity)

    # -- heartbeats ---------------------------------------------------------

    def heartbeat_frame(self) -> dict:
        """The ``lease`` stamp carried by every outbound frame: the
        primary's term, all :meth:`FailureDetector.observe` reads."""
        return {"term": self.group.term}

    def renew_once(self) -> int:
        """One dedicated heartbeat round: a status poll to every link,
        through the shipper's own exchange (which stamps the lease and
        counts the vote). Returns how many replicas answered.
        Piggybacked renewals from live write traffic make most of
        these rounds redundant — they matter on an idle or
        entirely-partitioned primary."""
        shipper = self.group.shipper
        if shipper is None or self._granted is None:
            return 0
        acked = 0
        for link in shipper.links():
            try:
                FAULTS.fire("repl.lease.heartbeat", replica=link.name)
            except ConnectionError:
                continue  # this beat was dropped
            if shipper.poll_status(link) is not None:
                acked += 1
        now = self.clock()
        with self._lock:
            term = self._term
            log_renewal = (acked and term != self._renew_logged_term
                           and self._held_locked(now))
            if log_renewal:
                self._renew_logged_term = term
        if OBS.enabled:
            if acked:
                OBS.inc("replication.lease.renewals")
            if log_renewal:
                OBS.action("replication.lease_renewed", term=term,
                           acks=acked,
                           remaining=round(self.remaining(now), 6))
        self._refresh_gauges(now)
        return acked

    def start(self) -> None:
        """Run the background renewer at ``renew_interval``."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._renew_loop, name="lease-renewer", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=2.0)
        self._thread = None

    def _renew_loop(self) -> None:
        while not self._stop.is_set():
            try:
                self.renew_once()
            except Exception:  # pragma: no cover - renewer never dies
                pass
            self._stop.wait(self.config.renew_interval)

    # -- surfacing ----------------------------------------------------------

    def status(self) -> dict:
        """JSON-ready lease view for ``health()`` / ``stats()``."""
        now = self.clock()
        with self._lock:
            granted = self._granted is not None
            term = self._term
            acks = len(self._acks)
        held = self.held(now)
        return {
            "enabled": True,
            "granted": granted,
            "held": held,
            "term": term,
            "remaining_seconds": round(self.remaining(now), 6)
            if granted else None,
            "needed_acks": self.needed_acks(),
            "acks": acks,
            "duration": self.config.duration,
            "margin": self.config.margin,
        }

    def _refresh_gauges(self, now: float) -> None:
        if OBS.enabled:
            OBS.gauge("replication.lease.held", 1 if self.held(now) else 0)


class FailureDetector:
    """One replica's view of the primary's liveness, on its own clock.

    Construction counts as a hear (a replica that never receives a
    single beat still converges on expiry), and only beats stamped
    with the current-or-newer term reset the timer — a deposed
    primary's stale heartbeats cannot postpone an election.
    """

    def __init__(self, name: str, config: LeaseConfig | None = None, *,
                 clock=None) -> None:
        self.name = name
        self.config = config or LeaseConfig()
        self.clock = clock or LeaseClock(name)
        self._lock = threading.Lock()
        self._last_heard = self.clock()
        self._term = 0

    def observe(self, lease: dict) -> None:
        """Feed one observed ``lease`` frame stamp."""
        try:
            term = int(lease.get("term", 0))
        except (TypeError, ValueError):
            return
        with self._lock:
            if term >= self._term:
                self._term = term
                self._last_heard = self.clock()

    def reset(self) -> None:
        """Restart the silence timer (a just-completed election is
        itself evidence of live leadership)."""
        with self._lock:
            self._last_heard = self.clock()

    def age(self, now: float | None = None) -> float:
        if now is None:
            now = self.clock()
        with self._lock:
            return now - self._last_heard

    def expired(self, now: float | None = None) -> bool:
        return self.age(now) > self.config.detector_horizon


class FailoverCoordinator:
    """Watches the replicas' failure detectors and, on quorum expiry,
    runs the deterministic election and drives
    :meth:`ReplicationGroup.promote`.

    In a multi-process deployment this logic runs on the replica
    nodes; in-process it is one object polling the local
    :class:`Replica <repro.replication.replica.Replica>` instances
    directly — the replica-side network view, deliberately *not* the
    primary's (possibly partitioned) shipping links.

    Election rules, in order:

    1. **Vote quota.** At least a majority of the full group
       (``n`` watched replicas + the primary) must report lease
       expiry; the presumed-dead primary cannot vote.
    2. **Candidate quota.** Enough non-crashed, non-diverged replicas
       must be reachable that the candidate set provably intersects
       the commit mode's ack quota (``n - required_acks + 1``): the
       longest *acked* prefix is then always among the candidates, so
       an automatic election can never fence below an acked commit —
       the PR 6 partition caveat, closed. Fewer candidates block the
       election (an operator may still force ``promote`` manually and
       accept the documented loss).
    3. **Winner.** Highest ``applied_seq``; lexicographically smallest
       name on ties. ``group.promote(winner)`` applies the existing
       fence/ack-capping/re-bootstrap rules, and every detector resets
       so the new leader gets a full window to start heartbeating.
       Whoever holds the coordinator reads :attr:`elections` and
       attaches the new primary.

    The vote quota has no override: a two-node group (one replica and
    the primary) never elects automatically.
    """

    def __init__(self, group, config: LeaseConfig | None = None, *,
                 clock=None) -> None:
        self.group = group
        self.config = config or LeaseConfig()
        self.clock = clock or LeaseClock("coordinator")
        self._lock = threading.RLock()
        self._replicas: dict[str, object] = {}
        self._detectors: dict[str, FailureDetector] = {}
        self.elections: list = []
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- membership ---------------------------------------------------------

    def watch(self, replica, *, clock=None) -> FailureDetector:
        """Attach a failure detector to ``replica`` and include it in
        the electorate."""
        detector = FailureDetector(replica.name, self.config,
                                   clock=clock)
        replica.failure_detector = detector
        with self._lock:
            self._replicas[replica.name] = replica
            self._detectors[replica.name] = detector
        return detector

    def unwatch(self, name: str) -> None:
        with self._lock:
            replica = self._replicas.pop(name, None)
            self._detectors.pop(name, None)
        if replica is not None \
                and getattr(replica, "failure_detector", None) is not None:
            replica.failure_detector = None

    def votes_needed(self) -> int:
        with self._lock:
            n = len(self._detectors)
        return (n + 1) // 2 + 1

    def candidates_needed(self) -> int:
        with self._lock:
            n = len(self._detectors)
        required = self.group.mode.required_acks(n)
        if required == 0:
            # async mode acknowledges nothing, so there is no acked
            # prefix the candidate set must provably contain — any
            # reachable replica is a safe winner.
            return 1
        return max(1, n - required + 1)

    # -- the election -------------------------------------------------------

    def tick(self):
        """One detection/election pass; returns the
        :class:`PromotionReport` when an election ran, else ``None``."""
        with self._lock:
            if self.group._pending_term is not None:
                # A promotion is already claimed but its primary has
                # not attached yet — never stack elections.
                return None
            expired = [name for name, det in self._detectors.items()
                       if det.expired()]
            if len(expired) < self.votes_needed():
                return None
            statuses: dict[str, dict] = {}
            for name, replica in self._replicas.items():
                try:
                    status = replica.status()
                except Exception:
                    continue
                if status.get("crashed") or status.get("diverged"):
                    continue
                statuses[name] = status
            if len(statuses) < self.candidates_needed():
                if OBS.enabled:
                    OBS.inc("replication.elections_blocked")
                return None
            best = max(status["applied_seq"]
                       for status in statuses.values())
            winner = min(name for name, status in statuses.items()
                         if status["applied_seq"] == best)
            old_term = self.group.term
            if OBS.enabled:
                OBS.inc("replication.elections")
                OBS.action("replication.elected", chosen=winner,
                           applied_seq=best, term=old_term,
                           votes=len(expired),
                           candidates=len(statuses))
            # The partition isolated the *old* primary; leadership —
            # and these carriers — now belong to the replica side,
            # whose connectivity the coordinator just verified by
            # polling. Clear the isolation flags so the reused
            # promote/catch-up machinery can reach its electorate
            # (the deposed primary stays fenced by its lapsed lease
            # and stale term, not by the partition).
            shipper = self.group.shipper
            if shipper is not None:
                for link in shipper.links():
                    transport = link.transport
                    if link.name in statuses \
                            and getattr(transport, "partitioned", False):
                        transport.partitioned = False
            report = self.group.promote(winner)
            for detector in self._detectors.values():
                detector.reset()
            self.unwatch(winner)
            self.elections.append(report)
            return report

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._watch_loop, name="failover-coordinator",
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=2.0)
        self._thread = None

    def _watch_loop(self) -> None:
        while not self._stop.is_set():
            try:
                self.tick()
            except ReplicationError:
                pass  # e.g. no reachable replica yet; keep watching
            except Exception:  # pragma: no cover - loop never dies
                pass
            self._stop.wait(self.config.check_interval)
