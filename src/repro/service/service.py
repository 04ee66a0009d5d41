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
``read_modify_write``, ``checkpoint``, a multi-shard :func:`write`)
runs one flat appender step (``_append``). It enters the request
once, works out each lane's clusters once, and runs the retry loop
itself; one attempt takes every lane in shard order (fast-fail,
breaker, write token plus clusters, fence), applies, appends to
``committed`` and releases in reverse. No object or frame is made
per attempt, so an uncontended in-memory write costs the service
about what its engine call costs.

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
from repro.service.retry import RETRYABLE, RetryPolicy

if TYPE_CHECKING:
    from repro.obs.endpoint import MetricsEndpoint

__all__ = ["DatabaseService", "FrontDoor", "WRITE_RESOURCE", "clusters_of",
           "touched", "write"]

# Sorts before every "fn:..." cluster resource, so the lock manager's
# sorted acquisition order is: write token first, then clusters.
WRITE_RESOURCE = "__write__"


def _write_set(clusters: Iterable[str] = ()) -> frozenset[str]:
    """What a writer holds exclusively on its lane: the write token and
    ``clusters`` — the one place ``__write__`` is named. The appender
    step holds it over an update's clusters; ``close_log`` and the
    replication group's snapshot dump hold it bare."""
    return frozenset((WRITE_RESOURCE, *clusters))


# The request clock, bound once: a module attribute lookup per read
# shows on an uncontended request.
_clock = time.perf_counter

# What one request of each family counts as: the lane's stats() key.
_COUNTS = {
    "read": "reads",
    "replica_read": "reads",
    "execute": "writes",
    "multi_write": "writes",
    "rmw": "writes",
    "checkpoint": "checkpoints",
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
        self._recluster()
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
            replication.exclusive = functools.partial(
                self.locks.held, _write_set(), EXCLUSIVE)
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

    def _recluster(self) -> None:
        # (Re)build the schema's maps: at start, and after a function
        # was declared. Schema changes are rare and single-threaded by
        # convention, so rebuilding the whole map is fine; unknown
        # names never trigger a rebuild (they raise KeyError directly).
        self._cluster_of = clusters_of(self.db)
        self._writes_of = {name: _write_set((cluster,))
                           for name, cluster in self._cluster_of.items()}
        self._cluster_version = self.db.schema_version

    def _clusters_for(self, names: Iterable[str]) -> set[str]:
        if self.db.schema_version != self._cluster_version:
            self._recluster()
        return set(map(self._cluster_of.__getitem__, names))

    def _write_set_of(self, update: Update | UpdateSequence
                      ) -> frozenset[str]:
        """What a writer of ``update`` holds: the write token and the
        clusters of the functions it names (one lookup for a simple
        update)."""
        if self.db.schema_version != self._cluster_version:
            self._recluster()
        if isinstance(update, UpdateSequence):
            return frozenset().union(
                *map(self._writes_of.__getitem__, touched(update)))
        return self._writes_of[update.function]

    def _fail_fast_if_leaderless(self) -> None:
        # With a lapsed leadership lease there is no point queueing
        # behind the write lock — surface the self-demotion
        # (LeaseExpired: a StalePrimary *and* a ServiceReadOnly) before
        # taking anything. The fence under the token (the appender
        # step) still guards the logged path itself.
        if self.replication.leaderless():
            self.replication.check_primary(self._repl_term)

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
        _append((self,), "execute", deadline, (update,))

    def _replication_ack(self, seq: int) -> None:
        """Ship the commit and wait out the group's commit mode."""
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
        when ``build`` declined. The locks are taken before the read,
        so no lock is ever asked for while one sorting after it is
        held."""
        return _append((self,), "rmw", deadline, None, names, build)

    # -- checkpoint ---------------------------------------------------------

    def checkpoint(self, snapshot_path: str | Path) -> None:
        """Fold the WAL into a snapshot while holding the write token
        (no writer can be mid-append), leaving readers undisturbed."""
        if self.logged is None:
            raise PersistenceError("no update log attached")
        _append((self,), "checkpoint", None, None, fold=snapshot_path)

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
            with self.locks.held(_write_set(), EXCLUSIVE):
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
        self.started = _clock()
        if OBS.enabled:
            attrs = ({"shards": tuple(lane.shard for lane in lanes)}
                     if len(lanes) > 1 else {})
            self.scope = OBS.span(
                "service.request", request=OBS.new_request_id(),
                family=self.family, committed=False, **attrs,
            )
            self.scope.__enter__()
        try:
            stat, admission = _COUNTS[self.family], None
            if not self.admit:
                for lane in lanes:
                    lane.gate.tally(stat)
            else:
                if OBS.enabled:
                    admission = OBS.span("service.admission")
                    admission.__enter__()
                try:
                    for lane in lanes:
                        lane.gate.enter(deadline=limit, count=stat)
                        self.admitted += 1
                finally:
                    if admission is not None:
                        admission.__exit__(None, None, None)
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

    def _hold(self, scope) -> None:
        scope.__enter__()
        self.held += (scope,)

    def __exit__(self, exc_type, exc, tb) -> None:
        lanes, family = self.lanes, self.family
        if self.held:  # a write holds nothing here: its step does
            for scope in reversed(self.held):
                scope.__exit__(exc_type, exc, tb)
        for lane in lanes[:self.admitted]:
            lane.gate.leave()
        if self.scope is not None:
            self.scope.__exit__(exc_type, exc, tb)
        elapsed = _clock() - self.started
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


def write(lanes: Sequence[DatabaseService],
          updates: Sequence[Update | UpdateSequence],
          deadline: Deadline | float | None = None) -> None:
    """Commit ``updates[i]`` on ``lanes[i]``, several lanes in sorted
    shard-id order: the sharded facade's multi-shard write, through
    the lanes' one appender step (a lane's ``execute`` is its
    one-lane case)."""
    _append(lanes, "multi_write" if len(lanes) > 1 else "execute",
            deadline, updates)


def _append(lanes: Sequence[DatabaseService], family: str,
            deadline: Deadline | float | None,
            updates: Sequence[Update | UpdateSequence] | None,
            names: Iterable[str] = (), build=None,
            fold: str | Path | None = None):
    """The one appender step: one request over ``lanes``, retried as a
    whole under the first lane's :class:`RetryPolicy`.

    Each attempt takes every lane in order — the leaderless fast-fail,
    ``breaker.allow()`` (logged lanes), ``__write__`` plus the lane's
    clusters exclusively, the epoch fence under the token — so holds
    grow monotonically in shard id while single-lane writers never
    wait across lanes (no cross-lane wait-for cycle), and every lane's
    gate, fences and breaker pass before the first slice applies. Then
    the work: ``updates[i]`` applied on ``lanes[i]`` (in memory, or
    through the WAL with the breaker told the outcome) and appended to
    the lane's ``committed`` while every token is held, so writes
    sharing a lane commit on it in one global order. No cross-shard
    *atomicity*: a failure after a slice landed raises
    :class:`CrossShardError` naming the shards that committed.

    ``updates`` None is one lane's rmw or checkpoint, over the
    clusters of ``names``: ``build(db)`` makes the update under the
    hold (None declines; one escaping the held clusters is redone over
    the widened set — the set only grows, so this ends), or ``fold``
    is the snapshot path a checkpoint folds the WAL into. Returns the
    update an rmw applied."""
    request = _Request(lanes, family, deadline)
    with request as span:
        lead, limit = lanes[0], request.limit
        # Per lane, the lock ask (write token plus clusters), built once.
        # The loops below walk ``lanes`` and index the per-lane lists by
        # their counters: a zip costs more than the rest of a lane's
        # bookkeeping.
        asks = []
        for lane in lanes:
            holds = (_write_set(lane._clusters_for(names)) if updates is None
                     else lane._write_set_of(updates[len(asks)]))
            asks.append(lane.locks.held(holds, EXCLUSIVE, deadline=limit))
        slices = updates or (None,)  # a checkpoint's lane has no update
        tries = 0
        while True:
            scopes = []  # entered in order, left in reverse
            # lanes[:passed] passed their breaker, lanes[:settled] gave
            # it its verdict (the rest return the probe slot), and
            # lanes[:landed] committed their slice.
            passed = settled = landed = 0
            try:
                try:
                    if OBS.enabled:
                        scope = OBS.span("service.attempt",
                                         attempt=tries + 1)
                        scope.__enter__()
                        scopes.append(scope)
                    for lane in lanes:
                        if lane.replication is not None:
                            lane._fail_fast_if_leaderless()
                        if lane.logged is not None:
                            lane.breaker.allow()
                        ask = asks[passed]
                        passed += 1
                        ask.__enter__()
                        scopes.append(ask)
                        # The epoch fence, checked while holding
                        # __write__ and before the WAL append: a deposed
                        # primary's write is rejected here
                        # (StalePrimary), never logged.
                        if lane.replication is not None:
                            lane.replication.check_primary(lane._repl_term)
                    if limit is not None:
                        scope = deadline_scope(limit)
                        scope.__enter__()
                        scopes.append(scope)
                    if build is not None:
                        update = build(lead.db)
                        if update is None:
                            return None
                        wanted = lead._write_set_of(update)
                        if not wanted <= holds:  # the lead's, for rmw
                            holds |= wanted
                            asks[0] = lead.locks.held(holds, EXCLUSIVE,
                                                      deadline=limit)
                            continue  # redo over the widened set
                        slices = (update,)
                    if OBS.enabled:
                        scope = OBS.span("service.engine")
                        scope.__enter__()
                        scopes.append(scope)
                    acks = []  # (lane, WAL seq) to ship once unlocked
                    for lane in lanes:
                        update = slices[landed]
                        try:
                            if lane.logged is None:
                                apply_entry(lane.db, update)
                            else:
                                try:
                                    seq = (lane.logged.execute(update)
                                           if fold is None else
                                           wal_module.checkpoint(lane.logged,
                                                                 fold))
                                except (OSError, PersistenceError) as exc:
                                    settled += 1
                                    lane.breaker.record_failure(exc)
                                    raise
                                lane.breaker.record_success()
                                if lane.replication is not None:
                                    acks.append((lane, seq))
                        except Exception as exc:
                            if not landed:
                                raise  # nothing landed anywhere
                            shards = [lane.shard for lane in lanes[:landed]]
                            raise CrossShardError(
                                f"multi-shard write failed after committing "
                                f"on shards {shards} ({type(exc).__name__}: "
                                f"{exc}); cross-shard atomicity is not "
                                f"guaranteed"
                            ) from exc
                        settled += 1
                        if fold is not None:
                            return None
                        # Still holding __write__: commit order == list
                        # order.
                        with lane._committed_lock:
                            lane.committed.append(update)
                        landed += 1
                        if OBS.enabled and lane.shard is not None:
                            OBS.gauge(f"service.shard.{lane.shard}.committed",
                                      len(lane.committed))
                    break
                finally:
                    while scopes:
                        scopes.pop().__exit__(None, None, None)
                    if settled < passed:
                        for lane in lanes[settled:passed]:
                            if lane.logged is not None:
                                lane.breaker.release_probe()
            except RETRYABLE as exc:
                if not lead.retry.backoff(tries, exc, rng=lead._jitter,
                                          deadline=limit,
                                          on_retry=lead._on_retry):
                    raise
                tries += 1
        if span is not None:
            span.attrs["committed"] = True
        # Replication ack wait runs after the span is stamped and
        # outside any locks: the op is committed locally either way; a
        # missed quota surfaces as ReplicationTimeout without
        # un-committing anything.
        for lane, seq in acks:
            lane._replication_ack(seq)
        return slices[0]


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
