"""The thread-safe execution layer over :class:`FunctionalDatabase`.

The engine beneath is strictly single-caller: one ``DEL`` on a derived
function fans out NC/NVC side-effects, and :class:`Transaction`'s
snapshot/restore covers the *whole* instance (all tables plus the
global NC and null counters). :class:`DatabaseService` makes that
engine safe to share:

**Locking.** Functions partition into *derivation clusters* — the
connected components of the graph joining every derived function to
the bases of its derivations. All of an update's side-effects stay
inside its cluster: a base update touches its own table and NCs whose
conjuncts are facts of sibling bases in some derivation (same
component by construction); a derived update walks chains of exactly
those bases. Reads take their clusters shared; writes take theirs
exclusive, so readers of disjoint clusters never contend and a reader
never observes a half-propagated NC set.

**Write serialisation.** Writers additionally hold the global
``__write__`` resource. This is not timidity but the rollback model:
a database has one undo log, so a transaction abort undoes whatever
was recorded while it was open and rewinds the *global* counters,
which would clobber a concurrent writer's committed work; and the
null/NC indices a replay allocates must match the live run's, which
only a total commit order guarantees. Writes to different clusters
therefore serialise, while reads run concurrently with each other and
with writes to other clusters. The payoff is the soak harness's
oracle: final state ≡ *exact* sequential replay of the committed-op
log, byte for byte, indexed nulls included.

**One write path.** A cluster is both the lock unit and the placement
unit (:mod:`repro.shard`), so committing is one act whether one lane
is involved or several: every appender (``execute``,
``read_modify_write``, ``checkpoint``, a multi-shard write) enters
through :class:`Appender`, and :func:`write` is the one commit loop,
``execute`` its one-slice case.

**Degradation.** Admission (bounded queue, shedding) in front;
deadlines (cooperative cancellation through chain enumeration,
propagation and WAL appends) within; retry with capped backoff around
lock timeouts (the log alone retries a transient write error); a
circuit breaker that converts a dead log device into fast
:class:`ServiceReadOnly` rejections instead of a convoy; and a drain
that stops admissions, waits the executing tail out, and leaves the
database consistent.

**Telemetry.** Every public operation runs as one *request*, one flat
scope (``_Request``) that enters a span or a deadline scope only while
OBS is on or a deadline is set: a fresh request id, a
``service.request`` span under which admission wait
(``service.admission``), lock acquisition (``service.locks`` —
acquisition only, not the hold), retry attempts (``service.attempt``),
engine execution (``service.engine``) and the WAL commit
(``wal.commit``) nest, emitted as typed event records that a
:class:`repro.obs.tracing.Tracer` folds into one span tree with the
update's propagation. On completion the request feeds the per-family RED
instruments (``service.red.<family>.{requests,errors,duration_seconds}``)
and the :class:`repro.obs.slo.SLOMonitor` of every lane it involved;
the span's end record is stamped ``committed=True`` exactly when the
operation's record is in the lane's WAL (applied, without a log) — the
chaos soak holds the stamps to the records on disk.
:meth:`FrontDoor.serve_metrics` exposes all of it live over HTTP.
"""

from __future__ import annotations

import functools
import itertools
import random
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.cancel import Deadline, deadline_scope
from repro.errors import (CrossShardError, LockTimeout, PersistenceError,
                          ReplicationError, ServiceOverloaded)
from repro.fdb import wal as wal_module
from repro.fdb.database import FunctionalDatabase
from repro.fdb.logic import Truth
from repro.fdb.updates import Update, UpdateSequence, apply_entry
from repro.fdb.values import Value
from repro.obs.hooks import OBS
from repro.obs.slo import (REPLICATION_LAG, Objective, SLOMonitor,
                           default_objectives, replication_lag_objective)
from repro.service.admission import AdmissionGate
from repro.service.breaker import OPEN, CircuitBreaker
from repro.service.locks import EXCLUSIVE, SHARED, LockManager
from repro.service.retry import RetryPolicy

if TYPE_CHECKING:
    from repro.obs.endpoint import MetricsEndpoint

__all__ = ["Appender", "DatabaseService", "FrontDoor", "WRITE_RESOURCE",
           "clusters_of", "touched", "write"]

# Sorts before every "fn:..." cluster resource, so the lock manager's
# sorted acquisition order is: write token first, then clusters.
WRITE_RESOURCE = "__write__"


def _write_token(locks: LockManager, clusters: Iterable[str] = (),
                 limit: Deadline | None = None):
    """A lane's write token (and ``clusters``), exclusively, on its
    ``locks``: the one place ``__write__`` is taken — by
    :class:`Appender`, and bare by ``close_log`` and the replication
    group's snapshot dump. A function of the lock manager, not a
    method of the lane, so the guard handed to the group holds no
    reference to the service."""
    return locks.held({WRITE_RESOURCE, *clusters}, EXCLUSIVE,
                      deadline=limit)


# What one request of each family counts as: the lane's stats() key
# and the OBS counter.
_COUNTS = {
    "read": ("reads", "service.reads"),
    "replica_read": ("reads", "service.replica_reads"),
    "execute": ("writes", "service.writes"),
    "multi_write": ("writes", "service.writes"),
    "rmw": ("writes", "service.rmw"),
    "checkpoint": ("checkpoints", None),
}


def clusters_of(db: FunctionalDatabase) -> dict[str, str]:
    """function name -> cluster resource, by union-find over each
    derived function joined with the bases of its derivations."""
    parent: dict[str, str] = {}

    def find(name: str) -> str:
        root = name
        while parent.setdefault(root, root) != root:
            root = parent[root]
        while parent[name] != root:  # path compression
            parent[name], name = root, parent[name]
        return root

    def union(a: str, b: str) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for name in db.base_names:
        find(name)
    for derived in db.derived_functions():
        find(derived.name)
        for derivation in derived.derivations:
            for step in derivation.steps:
                union(derived.name, step.function.name)
    return {name: f"fn:{find(name)}" for name in parent}


def touched(update: Update | UpdateSequence) -> set[str]:
    """The functions an update (or atomic sequence) names."""
    if isinstance(update, UpdateSequence):
        return {simple.function for simple in update}
    return {update.function}


class FrontDoor:
    """The verb surface of a front door, defined once over
    ``execute`` / ``read`` / ``health``: a :class:`DatabaseService`
    (one lane) and the sharded facade (N lanes) differ in how they
    route, not in what a caller can say."""

    endpoint: MetricsEndpoint | None = None
    slo: SLOMonitor | None = None  # a lane has one; the facade folds

    def insert(self, name: str, x: Value, y: Value, *,
               deadline: Deadline | float | None = None) -> None:
        self.execute(Update.ins(name, x, y), deadline=deadline)

    def delete(self, name: str, x: Value, y: Value, *,
               deadline: Deadline | float | None = None) -> None:
        self.execute(Update.delete(name, x, y), deadline=deadline)

    def truth_of(self, name: str, x: Value, y: Value, *,
                 deadline: Deadline | float | None = None) -> Truth:
        return self.read(
            (name,), lambda db: db.truth_of(name, x, y),
            deadline=deadline, point=(name, x, y),
        )

    def extension(self, name: str, *,
                  deadline: Deadline | float | None = None):
        return self.read(
            (name,), lambda db: db.extension(name), deadline=deadline,
        )

    def serve_metrics(self, *, host: str = "127.0.0.1",
                      port: int = 0) -> MetricsEndpoint:
        """Start (or return, if already serving) the live exposition
        endpoint: ``/metrics`` (Prometheus text; OBS metrics are
        process-global, so every lane's series is in it), ``/health``
        (:meth:`health` + SLO verdict, 200/503) and ``/slo`` (JSON) —
        see :mod:`repro.obs.endpoint`. Port 0 picks a free port; the
        bound address is ``self.endpoint.url``. Stopped by ``close``
        or :meth:`stop_metrics`."""
        if self.endpoint is None or not self.endpoint.running:
            from repro.obs.endpoint import MetricsEndpoint

            self.endpoint = MetricsEndpoint(
                OBS.metrics, slo=self.slo, health=self.health,
                host=host, port=port,
            ).start()
        return self.endpoint

    def stop_metrics(self) -> None:
        """Stop the exposition endpoint if one is serving. Idempotent."""
        if self.endpoint is not None:
            self.endpoint.stop()
            self.endpoint = None


class DatabaseService(FrontDoor):
    """Concurrent front door for one :class:`FunctionalDatabase`.

    With ``log`` attached, writes go through the write-ahead wrapper
    (:class:`repro.fdb.wal.LoggedDatabase`) and the circuit breaker
    guards the storage path; without one, writes still serialise and
    roll back on failure, but nothing is durable.
    """

    def __init__(
        self,
        db: FunctionalDatabase,
        *,
        log: wal_module.UpdateLog | str | Path | None = None,
        lock_timeout: float = 1.0,
        shard: int | None = None,
        retry: RetryPolicy | None = None,
        max_concurrent: int = 8,
        max_queue: int = 16,
        queue_timeout: float = 1.0,
        breaker: CircuitBreaker | None = None,
        objectives: Iterable[Objective] | None = None,
        replication=None,
        node: str = "primary",
        seed: int = 0,
    ) -> None:
        self.db = db
        self.logged: wal_module.LoggedDatabase | None = None
        if log is not None:
            self.logged = wal_module.LoggedDatabase(db, log)
        self.locks = LockManager(default_timeout=lock_timeout)
        self.retry = retry or RetryPolicy()
        self.gate = AdmissionGate(max_concurrent=max_concurrent,
                                  max_queue=max_queue,
                                  queue_timeout=queue_timeout)
        self.breaker = breaker or CircuitBreaker()
        # Explicit objective lists stay as given; a replicated
        # service's defaults gain the lag objective, probed below.
        if objectives is None:
            objectives = default_objectives() + (
                (replication_lag_objective(),) if replication is not None
                else ())
        self.slo = SLOMonitor(tuple(objectives))
        self._jitter = _LockedRandom(random.Random(seed))
        # The cluster map is derived purely from the schema, so it is
        # cached against the database's schema_version and rebuilt only
        # when a declaration actually changed the schema — never on an
        # unknown-name probe (which used to re-run the union-find).
        self._cluster_of = clusters_of(db)
        self._cluster_version = db.schema_version
        # When this service is one lane of a ShardedDatabaseService
        # (see repro.shard), ``shard`` labels its telemetry
        # (service.shard.<i>.*).
        self.shard = shard
        # Commit-ordered log of every update this service applied;
        # appended while the writer still holds __write__, so replaying
        # it sequentially reproduces the live state exactly.
        self.committed: list[Update | UpdateSequence] = []
        self._committed_lock = threading.Lock()
        # Replication: attach this service as the group's primary and
        # hold the term token its write path must present on every
        # commit.
        self.replication = replication
        self.node = node
        self._repl_term: int | None = None
        if replication is not None:
            if self.logged is None:
                raise ReplicationError(
                    "replication requires a write-ahead log"
                )
            self._repl_term = replication.attach_primary(
                self.logged, node=node
            )
            # Snapshot catch-up dumps run while the write token is
            # held exclusively, so no commit lands mid-dump. The guard
            # holds the lock manager, not this service, so the group
            # closes no reference cycle through the service.
            replication.exclusive = functools.partial(_write_token,
                                                      self.locks)
            # Lag SLO: probe the group's worst applied-seq lag at
            # every evaluation; a sustained breach turns ``/health``
            # into a 503 like any other alerting objective.
            for objective in self.slo.objectives:
                if objective.kind == REPLICATION_LAG:
                    self.slo.set_probe(objective.name,
                                       replication.worst_lag_seq)

    # -- plumbing -----------------------------------------------------------

    def cluster_of(self, name: str) -> str:
        """The lock resource guarding ``name`` (exposed for tests)."""
        (cluster,) = self._clusters_for((name,))
        return cluster

    def _clusters_for(self, names: Iterable[str]) -> set[str]:
        if self.db.schema_version != self._cluster_version:
            # A function was declared after the map was built. Schema
            # changes are rare and single-threaded by convention, so
            # rebuilding the whole map is fine; unknown names no
            # longer trigger a rebuild (they raise KeyError directly).
            self._cluster_of = clusters_of(self.db)
            self._cluster_version = self.db.schema_version
        return set(map(self._cluster_of.__getitem__, names))

    def _fail_fast_if_leaderless(self) -> None:
        # With a lapsed leadership lease there is no point queueing
        # behind the write lock — surface the self-demotion
        # (LeaseExpired: a StalePrimary *and* a ServiceReadOnly) before
        # taking anything. The fence under the token (Appender) still
        # guards the logged path itself.
        if self.replication.leaderless():
            self.replication.check_primary(self._repl_term)

    def _retrying(self, limit: Deadline | None, attempt, *args):
        """Run ``attempt(*args)`` under the lane's :class:`RetryPolicy`;
        with OBS on, each try in its own ``service.attempt`` span."""
        if OBS.enabled:
            args = (attempt, itertools.count(1), *args)
            attempt = _attempt_span
        return self.retry.run(attempt, *args, rng=self._jitter,
                              deadline=limit, on_retry=self._on_retry)

    def _on_retry(self, attempt: int, exc: BaseException) -> None:
        # A lock timeout is the one failure a request retries.
        self.gate.tally("retries", "lock_timeouts")
        if OBS.enabled:
            OBS.inc("service.retries")
            OBS.event("service.retry", attempt=attempt,
                      error=type(exc).__name__)

    # -- reads --------------------------------------------------------------

    def read(self, names: Iterable[str],
             fn: Callable[[FunctionalDatabase], object], *,
             deadline: Deadline | float | None = None,
             point: tuple[str, Value, Value] | None = None) -> object:
        """Run ``fn(db)`` while the clusters of ``names`` are held
        shared. ``fn`` must not mutate. With ``point``, the ``(name, x,
        y)`` whose truth ``fn`` reads, a verdict its memo keeps with no
        change waiting answers instead, under the memo's lock alone
        (:meth:`repro.fdb.memo.ExtensionMemo.truth`, no join)."""
        request = _Request((self,), "read", deadline, names, point)
        with request:
            return fn(self.db) if request.kept is None else request.kept

    def read_replica(self, fn: Callable[[FunctionalDatabase], object],
                     *, max_lag_seq: int | None = None,
                     max_lag_seconds: float | None = None) -> object:
        """Serve ``fn(db)`` from a replica within the bounded-staleness
        window instead of the primary (offloads derived-function
        queries). No bound: any linked replica serves. Raises
        :class:`repro.errors.StalenessUnserved` when no replica
        qualifies and :class:`ReplicationError` when the service is
        unreplicated."""
        if self.replication is None:
            raise ReplicationError("service has no replication group")
        # Nothing here runs on the primary, so its gate is not entered.
        with _Request((self,), "replica_read", admit=False):
            return self.replication.read(
                fn, max_lag_seq=max_lag_seq,
                max_lag_seconds=max_lag_seconds,
            )

    # -- writes -------------------------------------------------------------

    def execute(self, update: Update | UpdateSequence, *,
                deadline: Deadline | float | None = None) -> None:
        """Apply one update (or atomic sequence), durably when a log
        is attached. Retries lock timeouts under the service's
        :class:`RetryPolicy` (a storage error was already retried by
        the log); raises the final error when the policy gives up."""
        write((self,), (update,), deadline)

    def _replication_ack(self, seq: int | None) -> None:
        """Ship the commit and wait out the group's commit mode."""
        if self.replication is None or seq is None:
            return
        ack = self.replication.on_commit(seq)
        if OBS.enabled:
            # The audit timeline's commit entry: emitted inside the
            # request span, so the commit hangs off its pipeline in
            # the folded span tree and carries the term it was acked under.
            OBS.action("replication.commit_acked", seq=seq,
                       term=self._repl_term, acks=ack.get("acks"),
                       mode=ack.get("mode"), node=self.node)

    # -- read-modify-write --------------------------------------------------

    def read_modify_write(
        self,
        names: Iterable[str],
        build: Callable[[FunctionalDatabase], Update | UpdateSequence | None],
        *,
        deadline: Deadline | float | None = None,
    ) -> Update | UpdateSequence | None:
        """Build an update from what is read and apply it, both under
        one exclusive hold of the write token plus the clusters of
        ``names``, so the update is always built from state the caller
        still holds the locks for. Returns the update applied, or None
        when ``build`` declined."""
        request = _Request((self,), "rmw", deadline)
        with request as span:
            result = self._retrying(request.limit, self._rmw_once,
                                    tuple(names), build, request.limit)
            if result is None:
                return None
            applied, seq = result
            if span is not None:
                span.attrs["committed"] = True
            self._replication_ack(seq)
            return applied

    def _rmw_once(self, names: tuple[str, ...], build,
                  limit: Deadline | None):
        # The appender is entered before the read, so no lock is ever
        # asked for while one sorting after it is held. A build that
        # touches a cluster outside the held set leaves without
        # applying and is redone over the widened set; the set only
        # grows, so this ends.
        clusters = self._clusters_for(names)
        while True:
            with Appender(self, clusters, limit) as appender:
                with deadline_scope(limit):
                    update = build(self.db)
                if update is None:
                    return None
                wanted = self._clusters_for(touched(update))
                if wanted <= clusters:
                    return update, appender.apply(update)
            clusters |= wanted

    # -- checkpoint ---------------------------------------------------------

    def checkpoint(self, snapshot_path: str | Path) -> None:
        """Fold the WAL into a snapshot while holding the write token
        (no writer can be mid-append), leaving readers undisturbed."""
        if self.logged is None:
            raise PersistenceError("no update log attached")
        with _Request((self,), "checkpoint"):
            with Appender(self) as appender:
                appender.storage(wal_module.checkpoint, self.logged,
                                 snapshot_path)

    # -- shutdown -----------------------------------------------------------

    def drain(self, timeout: float = 10.0) -> bool:
        """Stop admitting, wait for the executing tail. Idempotent."""
        self.gate.close()
        if OBS.enabled:
            OBS.action("service.drain", timeout=timeout)
        return self.gate.wait_idle(timeout)

    def close(self, *, drain: bool = True, timeout: float = 10.0) -> bool:
        """Drain (optionally), stop the metrics endpoint if one is
        serving, release the WAL's descriptor, and mark the service
        closed."""
        drained = self.drain(timeout) if drain else True
        if not drain:
            self.gate.close()
        self.stop_metrics()
        self.close_log()
        if OBS.enabled:
            OBS.action("service.closed", drained=drained)
        return drained

    def close_log(self) -> None:
        """Release the WAL's held append descriptor, under the write
        token. The token is what every appender holds from before its
        frame's write until after its fsync, so the close cannot land
        between the two (the failed fsync would be retried and the
        frame logged twice) — whatever the gate says: ``swap_lane``
        closes the log of a lane that was never drained. A writer that
        keeps the token past the lock timeout keeps the descriptor."""
        if self.logged is None:
            return
        try:
            with _write_token(self.locks):
                self.logged.close()
        except LockTimeout:
            pass

    @property
    def closed(self) -> bool:
        return self.gate.closed

    # -- reporting ----------------------------------------------------------

    def health(self) -> dict:
        """The ``/health`` verdict body (the endpoint folds in SLO
        alerts): healthy means writes are being accepted — breaker not
        OPEN and the gate not draining."""
        breaker = self.breaker.state
        verdict = {
            "healthy": breaker != OPEN and not self.closed,
            "breaker": breaker,
            "draining": self.closed,
            "committed": len(self.committed),
        }
        if self.replication is not None:
            verdict["replication"] = repl = self.replication.health()
            lease = repl.get("lease")
            if lease is not None:
                verdict["leaderless"] = not lease["held"]
                if not lease["held"]:
                    # The lease lapsed: writes are being refused
                    # (LeaseExpired) until a quorum renews or a new
                    # primary is elected — that is an outage.
                    verdict["healthy"] = False
        return verdict

    def stats(self) -> dict:
        # "deadlocks" stays 0 (one lock order); the E20 harness sums it.
        snapshot = dict.fromkeys(("reads", "writes", "retries", "deadlocks",
                                  "lock_timeouts", "checkpoints"), 0)
        snapshot.update(self.gate.tallies())
        snapshot["shed"] = self.gate.shed
        snapshot["breaker_state"] = self.breaker.state
        snapshot["breaker_trips"] = self.breaker.trips
        snapshot["breaker_resets"] = self.breaker.resets
        snapshot["committed"] = len(self.committed)
        snapshot["slo_healthy"] = self.slo.healthy
        snapshot["slo_alerts"] = list(self.slo.alerts)
        snapshot["slo_alerts_raised"] = self.slo.raised
        snapshot["slo_alerts_cleared"] = self.slo.cleared
        if self.logged is not None:
            snapshot["wal"] = self.logged.log.health()
        if self.replication is not None:
            snapshot["replication"] = self.replication.health()
        return snapshot

    def committed_ops(self) -> tuple[Update | UpdateSequence, ...]:
        """A stable copy of the commit-ordered operation log; replay
        it with :func:`repro.fdb.updates.apply_entry` over an
        identically seeded instance to reproduce the live state
        exactly."""
        with self._committed_lock:
            return tuple(self.committed)


class _Request:
    """One caller-visible operation over ``lanes`` (several only for a
    multi-shard write) as one flat scope: a slot at every lane's gate
    (which counts the family's ``stats()`` key); for a read of ``names``
    their clusters held shared, then the deadline's scope if there is
    one; spans only while OBS is on. A ``point`` read its memo answers
    (``kept``) holds no cluster: the memo holds exactly the committed
    writes, handed to it under its lock, so the lookup falls before or
    after each commit. Leaving undoes it in reverse, then
    feeds the RED instruments once and each lane's SLO monitor: shed
    (:class:`ServiceOverloaded`), error (any other raise) or success.
    Entering returns the request span while OBS is on (else None);
    callers stamp its live ``attrs`` ``committed=True`` once the write
    landed (the chaos soak matches those records to the lanes' WALs)."""

    __slots__ = ("lanes", "family", "limit", "names", "point", "kept",
                 "admit", "admitted", "held", "scope", "started")

    def __init__(self, lanes: Sequence[DatabaseService], family: str,
                 deadline: Deadline | float | None = None,
                 names: Iterable[str] | None = None,
                 point: tuple | None = None, *, admit: bool = True) -> None:
        self.lanes, self.family, self.names = lanes, family, names
        self.point, self.kept, self.admit = point, None, admit
        self.limit = (deadline if deadline is None or isinstance(
            deadline, Deadline) else Deadline(deadline))
        self.admitted = 0  # lanes[:admitted] gave this request a slot
        self.held = ()  # what was entered after admission, in order
        self.scope = None

    def __enter__(self):
        lanes, limit = self.lanes, self.limit
        self.started = time.perf_counter()
        if OBS.enabled:
            attrs = ({"shards": tuple(lane.shard for lane in lanes)}
                     if len(lanes) > 1 else {})
            self.scope = OBS.span(
                "service.request", request=OBS.new_request_id(),
                family=self.family, committed=False, **attrs,
            )
            self.scope.__enter__()
        try:
            stat, counter = _COUNTS[self.family]
            if not self.admit:
                for lane in lanes:
                    lane.gate.tally(stat)
            elif OBS.enabled:
                with OBS.span("service.admission"):
                    self._admit(stat)
            else:
                self._admit(stat)
            if counter is not None and OBS.enabled:
                OBS.inc(counter)
            if self.names is not None:
                lane, point = lanes[0], self.point
                memo = point and lane.db._memos.get(point[0])
                if memo is not None:  # a derived function's: look up
                    self.kept = memo.truth(lane.db, point[1], point[2])
                if self.kept is None:
                    self._hold(lane.locks.held(
                        lane._clusters_for(self.names), SHARED,
                        deadline=limit))
                    if OBS.enabled:
                        self._hold(OBS.span("service.engine"))
                    if limit is not None:
                        self._hold(deadline_scope(limit))
        except BaseException as exc:
            self.__exit__(type(exc), exc, exc.__traceback__)
            raise
        return self.scope

    def _admit(self, stat: str) -> None:
        for lane in self.lanes:
            lane.gate.enter(deadline=self.limit, count=stat)
            self.admitted += 1

    def _hold(self, scope) -> None:
        scope.__enter__()
        self.held += (scope,)

    def __exit__(self, exc_type, exc, tb) -> None:
        lanes, family = self.lanes, self.family
        for scope in reversed(self.held):
            scope.__exit__(exc_type, exc, tb)
        for lane in lanes[:self.admitted]:
            lane.gate.leave()
        if self.scope is not None:
            self.scope.__exit__(exc_type, exc, tb)
        elapsed = time.perf_counter() - self.started
        error = exc_type is not None
        shed = error and issubclass(exc_type, ServiceOverloaded)
        if OBS.enabled:
            _red(f"service.red.{family}", elapsed, error)
        for lane in lanes:
            if lane.slo.record(family, elapsed, error=error, shed=shed):
                lane.slo.maybe_evaluate()
            if lane.shard is not None and OBS.enabled:
                _red(f"service.shard.{lane.shard}", elapsed, error)


def _red(prefix: str, elapsed: float, error: bool) -> None:
    OBS.inc(f"{prefix}.requests")
    if error:
        OBS.inc(f"{prefix}.errors")
    OBS.observe(f"{prefix}.duration_seconds", elapsed)


class Appender:
    """The one way to become an appender on a lane: entering passes
    the leaderless fast-fail and the circuit breaker, takes the lane's
    ``__write__`` token plus ``clusters`` exclusively, and passes the
    epoch fence under the token; leaving releases the locks and
    settles the breaker's probe slot. In between the holder may
    :meth:`apply` updates and run :meth:`storage` calls. Admission is
    the request's business: once per request, not per attempt."""

    __slots__ = ("lane", "limit", "settled", "_held")

    def __init__(self, lane: DatabaseService,
                 clusters: Iterable[str] = (),
                 limit: Deadline | None = None) -> None:
        self.lane, self.limit = lane, limit
        self._held = _write_token(lane.locks, clusters, limit)
        # Whether the breaker is owed nothing by this appender: true
        # without a log (no storage path to guard), and once a
        # storage call has delivered its verdict.
        self.settled = lane.logged is None

    def __enter__(self) -> "Appender":
        lane = self.lane
        if lane.replication is not None:
            lane._fail_fast_if_leaderless()
        if not self.settled:
            lane.breaker.allow()
        try:
            self._held.__enter__()
        except BaseException:
            if not self.settled:
                lane.breaker.release_probe()
            raise
        # The epoch fence, checked while holding __write__ and before
        # the WAL append: a deposed primary's write is rejected here
        # (StalePrimary), never logged.
        if lane.replication is not None:
            try:
                lane.replication.check_primary(lane._repl_term)
            except BaseException as exc:
                self.__exit__(type(exc), exc, exc.__traceback__)
                raise
        return self

    def __exit__(self, *exc_info) -> bool | None:
        try:
            return self._held.__exit__(*exc_info)
        finally:
            if not self.settled:
                # The attempt ended without reaching the storage path
                # (lock timeout, fence, validation, cancelled, a
                # declined or widened rmw build): return the probe slot.
                self.lane.breaker.release_probe()

    def storage(self, call, *args):
        """Run a storage-path call; its outcome is the breaker's
        verdict for this appender."""
        breaker = self.lane.breaker
        try:
            result = call(*args)
        except (OSError, PersistenceError) as exc:
            self.settled = True
            breaker.record_failure(exc)
            raise
        self.settled = True
        breaker.record_success()
        return result

    def apply(self, update: Update | UpdateSequence) -> int | None:
        """The commit tail: engine apply (WAL-logged or in-memory
        transactional) and committed-log append. Returns the WAL
        sequence of the commit (None without a log)."""
        lane = self.lane
        if self.limit is None and not OBS.enabled:  # no scope to enter
            seq = self._engine(update)
        else:
            with deadline_scope(self.limit), OBS.span("service.engine"):
                seq = self._engine(update)
        # Still holding __write__: commit order == list order.
        with lane._committed_lock:
            lane.committed.append(update)
        if OBS.enabled and lane.shard is not None:
            OBS.gauge(f"service.shard.{lane.shard}.committed",
                      len(lane.committed))
        return seq

    def _engine(self, update: Update | UpdateSequence) -> int | None:
        lane = self.lane
        if lane.logged is not None:
            return self.storage(lane.logged.execute, update)
        apply_entry(lane.db, update)
        return None


def write(lanes: Sequence[DatabaseService],
          updates: Sequence[Update | UpdateSequence],
          deadline: Deadline | float | None = None) -> None:
    """The one write path: commit ``updates[i]`` on ``lanes[i]`` — one
    pair for a lane's ``execute``, several in sorted shard-id order for
    a multi-shard write.

    One request over all the lanes; each attempt (the first lane's
    :class:`RetryPolicy`) becomes an :class:`Appender` on every lane
    in order — holds grow monotonically in shard id while single-lane
    writers never wait across lanes, so no cross-lane wait-for cycle
    can form — hence every lane's gate, fences and breaker pass before
    the first slice applies. Every token is held while the slices
    apply, so multi-shard writes sharing a lane commit on it in one
    global order. No cross-shard *atomicity*: a failure after a slice landed
    raises :class:`CrossShardError` naming the shards that committed."""
    request = _Request(lanes, "multi_write" if len(lanes) > 1
                       else "execute", deadline)
    with request as span:
        limit = request.limit
        seqs = lanes[0]._retrying(limit, _commit, lanes, updates, limit)
        if span is not None:
            span.attrs["committed"] = True
        # Replication ack wait runs after the span is stamped and
        # outside any locks: the op is committed locally either way; a
        # missed quota surfaces as ReplicationTimeout without
        # un-committing anything.
        for lane, seq in zip(lanes, seqs):
            if seq is not None:
                lane._replication_ack(seq)


def _attempt_span(attempt, tries, *args):
    """One try of :meth:`DatabaseService._retrying` while OBS is on."""
    with OBS.span("service.attempt", attempt=next(tries)):
        return attempt(*args)


def _commit(lanes, updates, limit: Deadline | None,
            held: tuple[Appender, ...] = ()) -> list[int | None]:
    """One attempt of :func:`write`: a nested ``with Appender`` per
    lane, in order; innermost, the slices."""
    if len(held) < len(lanes):
        lane, update = lanes[len(held)], updates[len(held)]
        with Appender(lane, lane._clusters_for(touched(update)),
                      limit) as appender:
            return _commit(lanes, updates, limit, held + (appender,))
    seqs: list[int | None] = []
    try:
        for appender, update in zip(held, updates):
            seqs.append(appender.apply(update))
    except Exception as exc:
        if not seqs:
            raise  # nothing landed anywhere: the lane's own error
        raise CrossShardError(
            f"multi-shard write failed after committing on shards "
            f"{[lane.shard for lane in lanes[:len(seqs)]]} "
            f"({type(exc).__name__}: {exc}); cross-shard atomicity is "
            f"not guaranteed"
        ) from exc
    return seqs


class _LockedRandom:
    """Serialises jitter draws from the service's seeded RNG:
    random.Random is internally consistent enough for jitter, but
    seed-reproducibility wants serialized draws."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._lock = threading.Lock()

    def uniform(self, a: float, b: float) -> float:
        with self._lock:
            return self._rng.uniform(a, b)
