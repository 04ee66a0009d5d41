"""``ShardedDatabaseService``: N independent write lanes behind one
front door.

Every :class:`repro.service.DatabaseService` serialises its writes on
one ``__write__`` token because the engine's rollback model and
null/NC index allocation are whole-instance. Sharding sidesteps that
limit without touching the engine: each shard lane is a *complete*
service stack — its own :class:`FunctionalDatabase` (full schema,
only its clusters' data), its own WAL, lock manager, admission gate,
circuit breaker, and optionally its own replication group and lease —
so the per-instance serialisation arguments hold per lane, and writes
to clusters on different shards commit truly in parallel.

Routing is the :class:`repro.shard.map.ShardMap`: derivation clusters
are the placement unit, so a single-cluster operation (every simple
update, by construction) goes straight to its owning lane's normal
``execute``/``read`` path, with all of that lane's degradation
machinery intact.

The two cross-shard paths are deliberately narrower:

* **Scatter-gather reads** fan a read over every involved lane and
  stamp the gather with a per-shard commit-sequence vector (each
  entry captured under that lane's shared cluster locks). There is no
  cross-shard snapshot: two lanes' results may straddle a concurrent
  multi-shard write. The vector makes that staleness *observable*,
  not absent.
* **Multi-shard writes** run on the facade's "global lane": split the
  sequence by owning shard, take every involved lane's write token in
  sorted shard-id order — holds grow monotonically in shard id while
  single-lane writers never wait across lanes, so no cross-lane
  wait-for cycle can form — then apply each lane's slice via
  :meth:`DatabaseService.apply_prelocked` under one globally unique
  *marker*. Each lane journals ``(marker, committed-index)`` so its
  replay oracle stays strictly sequential, and markers shared between
  lanes are mutually ordered (allocation happens while holding every
  involved token). Cross-shard *atomicity* is not promised: a storage
  failure on the k-th lane leaves earlier lanes committed (the error
  says so). See ``docs/SHARDING.md`` for the full contract.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import ExitStack
from pathlib import Path
from typing import Callable, Iterable

from repro.cancel import Deadline
from repro.errors import CrossShardError, DeadlockDetected, LockTimeout
from repro.fdb.database import FunctionalDatabase
from repro.fdb.logic import Truth
from repro.fdb.updates import Update, UpdateSequence
from repro.fdb.values import Value
from repro.obs.endpoint import MetricsEndpoint
from repro.obs.hooks import OBS
from repro.service.locks import EXCLUSIVE
from repro.service.service import (DatabaseService, WRITE_RESOURCE,
                                   _touched)
from repro.shard.map import ShardMap

__all__ = ["ShardedDatabaseService"]


class ShardedDatabaseService:
    """Shard router over ``shards`` independent service lanes.

    Parameters
    ----------
    factory:
        Zero-argument callable returning a fresh
        :class:`FunctionalDatabase` carrying the *full* schema. Called
        once per lane: every lane knows every function (so routing and
        cluster analysis work anywhere) but only ever stores facts for
        the clusters its shard owns.
    shards:
        Number of lanes.
    pins:
        Optional explicit cluster -> shard overrides (see
        :class:`ShardMap`).
    log_dir:
        When given, lane ``i`` writes through its own WAL at
        ``<log_dir>/shard-<i>.wal``.
    replication_factory:
        Optional ``shard -> ReplicationGroup | None``; a returned
        group becomes that lane's replication (requires ``log_dir``).
    service_kwargs:
        Extra keyword arguments forwarded to every lane's
        :class:`DatabaseService` (timeouts, retry policy, breaker
        thresholds, ...).
    """

    def __init__(
        self,
        factory: Callable[[], FunctionalDatabase],
        shards: int = 2,
        *,
        pins: dict[str, int] | None = None,
        log_dir: str | Path | None = None,
        replication_factory=None,
        service_kwargs: dict | None = None,
    ) -> None:
        self.factory = factory
        kwargs = dict(service_kwargs or {})
        if log_dir is not None:
            Path(log_dir).mkdir(parents=True, exist_ok=True)
        self.lanes: list[DatabaseService] = []
        for shard in range(shards):
            db = factory()
            log = None
            if log_dir is not None:
                log = Path(log_dir) / f"shard-{shard}.wal"
            replication = None
            if replication_factory is not None:
                replication = replication_factory(shard)
            self.lanes.append(DatabaseService(
                db, log=log, shard=shard, replication=replication,
                node=f"shard-{shard}-primary", **kwargs,
            ))
        self.map = ShardMap(self.lanes[0].db, shards, pins=pins)
        # Global-lane bookkeeping: one counter mints every cross-shard
        # marker; allocation happens while holding all involved write
        # tokens, so markers sharing a lane are ordered like their
        # commits on that lane.
        self._marker = itertools.count(1)
        self._marker_lock = threading.Lock()
        self._multi_lock_timeout = kwargs.get("lock_timeout", 1.0)
        self._multi_retries = 3
        self._stats_lock = threading.Lock()
        self._multi_writes = 0
        self._scatter_reads = 0
        self.endpoint: MetricsEndpoint | None = None

    # -- routing ------------------------------------------------------------

    @property
    def shards(self) -> int:
        return self.map.shards

    def lane(self, shard: int) -> DatabaseService:
        return self.lanes[shard]

    def _map(self) -> ShardMap:
        # Schema declarations land on every lane through declare(); a
        # stale map (version skew) rebuilds from lane 0's schema.
        if self.map.stale_for(self.lanes[0].db):
            self.map = self.map.rebuilt(self.lanes[0].db)
        return self.map

    def shard_of(self, name: str) -> int:
        return self._map().shard_of(name)

    def declare(self, declare_fn) -> None:
        """Apply a schema declaration (``declare_fn(db)``) to *every*
        lane, keeping the shared schema identical, then rebuild the
        shard map. Schema changes are rare and single-threaded by
        convention, exactly as on the unsharded service."""
        for lane in self.lanes:
            declare_fn(lane.db)
        self.map = self.map.rebuilt(self.lanes[0].db)

    # -- writes -------------------------------------------------------------

    def execute(self, update: Update | UpdateSequence, *,
                deadline: Deadline | float | None = None) -> None:
        """Apply one update or atomic sequence, routed to its owning
        lane — or through the multi-shard global lane when the
        sequence's clusters land on several shards."""
        shard_ids = sorted(self._map().shards_of(_touched(update)))
        if len(shard_ids) == 1:
            self.lanes[shard_ids[0]].execute(update, deadline=deadline)
            return
        self._execute_multi(update, shard_ids, deadline)

    def insert(self, name: str, x: Value, y: Value, *,
               deadline: Deadline | float | None = None) -> None:
        self.execute(Update.ins(name, x, y), deadline=deadline)

    def delete(self, name: str, x: Value, y: Value, *,
               deadline: Deadline | float | None = None) -> None:
        self.execute(Update.delete(name, x, y), deadline=deadline)

    def replace(self, name: str, old: tuple[Value, Value],
                new: tuple[Value, Value], *,
                deadline: Deadline | float | None = None) -> None:
        self.execute(Update.rep(name, old, new), deadline=deadline)

    def _split(self, update: UpdateSequence) -> dict[int, object]:
        """Partition a sequence into per-shard slices, preserving each
        shard's internal order (cross-shard relative order is what the
        marker journals)."""
        parts: dict[int, list[Update]] = {}
        for simple in update:
            shard = self._map().shard_of(simple.function)
            parts.setdefault(shard, []).append(simple)
        return {
            shard: (slice_[0] if len(slice_) == 1
                    else UpdateSequence(tuple(slice_), label=update.label))
            for shard, slice_ in parts.items()
        }

    def _execute_multi(self, update: UpdateSequence,
                       shard_ids: list[int],
                       deadline: Deadline | float | None) -> None:
        """The global lane: all involved write tokens in sorted
        shard-id order, one marker, per-lane slices."""
        limit = self.lanes[0]._deadline(deadline)
        parts = self._split(update)
        started = time.perf_counter()
        scope = OBS.span(
            "service.request", key="multi_write",
            request=OBS.new_request_id() if OBS.enabled else None,
            family="multi_write", committed=False,
            shards=tuple(shard_ids),
        )
        error = False
        try:
            with scope:
                self._multi_once_with_retry(parts, shard_ids, limit,
                                            update, scope)
        except BaseException:
            error = True
            raise
        finally:
            with self._stats_lock:
                self._multi_writes += 1
            if OBS.enabled:
                elapsed = time.perf_counter() - started
                OBS.inc("service.red.multi_write.requests")
                if error:
                    OBS.inc("service.red.multi_write.errors")
                OBS.observe_log(
                    "service.red.multi_write.duration_seconds", elapsed
                )

    def _multi_once_with_retry(self, parts, shard_ids, limit,
                               update, scope) -> None:
        # Lock-phase failures (timeout on a busy lane) happen before
        # anything applied and are safe to retry; once the first lane
        # has applied, a failure is surfaced as CrossShardError —
        # partial cross-shard state is the documented non-guarantee.
        for attempt in itertools.count(1):
            try:
                self._multi_once(parts, shard_ids, limit, update)
                scope.attrs["committed"] = True
                return
            except (LockTimeout, DeadlockDetected):
                if attempt >= self._multi_retries:
                    raise
                if OBS.enabled:
                    OBS.inc("service.shard.multi_retries")

    def _multi_once(self, parts, shard_ids, limit, update) -> None:
        acks: list[tuple[DatabaseService, int | None, object]] = []
        applied: list[int] = []
        try:
            with ExitStack() as stack:
                for shard in shard_ids:  # sorted: the global order
                    lane = self.lanes[shard]
                    clusters = {
                        lane.cluster_of(name)
                        for name in _touched(parts[shard])
                    }
                    with OBS.span("service.locks", mode=EXCLUSIVE,
                                  shard=shard):
                        stack.enter_context(lane.locks.held(
                            {WRITE_RESOURCE} | clusters, EXCLUSIVE,
                            timeout=lane.lock_timeout, deadline=limit,
                        ))
                with self._marker_lock:
                    marker = next(self._marker)
                for shard in shard_ids:
                    lane = self.lanes[shard]
                    seq = lane.apply_prelocked(parts[shard],
                                               limit=limit,
                                               marker=marker)
                    applied.append(shard)
                    acks.append((lane, seq, parts[shard]))
        except (LockTimeout, DeadlockDetected):
            if applied:
                raise CrossShardError(
                    f"multi-shard write {update!s} failed after "
                    f"committing on shards {applied}; cross-shard "
                    f"atomicity is not guaranteed"
                )
            raise
        except Exception as exc:
            if applied:
                raise CrossShardError(
                    f"multi-shard write {update!s} failed after "
                    f"committing on shards {applied} "
                    f"({type(exc).__name__}: {exc}); cross-shard "
                    f"atomicity is not guaranteed"
                ) from exc
            raise
        # Tokens released: wait out each lane's replication quota.
        for lane, seq, part in acks:
            lane._replication_ack(seq, part)

    # -- reads --------------------------------------------------------------

    def read(self, names: Iterable[str],
             fn: Callable[[FunctionalDatabase], object], *,
             deadline: Deadline | float | None = None) -> object:
        """A single-lane read; raises :class:`CrossShardError` when
        ``names`` span shards (use :meth:`scatter_read`)."""
        name_list = tuple(names)
        shard_ids = self._map().shards_of(name_list)
        if len(shard_ids) != 1:
            raise CrossShardError(
                f"read of {name_list} spans shards "
                f"{sorted(shard_ids)}; use scatter_read"
            )
        return self.lanes[shard_ids.pop()].read(name_list, fn,
                                                deadline=deadline)

    def truth_of(self, name: str, x: Value, y: Value, *,
                 deadline: Deadline | float | None = None) -> Truth:
        return self.read(
            (name,), lambda db: db.truth_of(name, x, y),
            deadline=deadline,
        )

    def extension(self, name: str, *,
                  deadline: Deadline | float | None = None):
        return self.read(
            (name,), lambda db: db.extension(name), deadline=deadline,
        )

    def scatter_read(
        self,
        names: Iterable[str],
        fn: Callable[[FunctionalDatabase, tuple[str, ...]], object],
        *,
        deadline: Deadline | float | None = None,
    ) -> tuple[dict[int, object], dict[int, int]]:
        """Fan ``fn(db, lane_names)`` over every involved lane, under
        each lane's shared cluster locks; returns ``(results,
        vector)`` where ``vector[shard]`` is that lane's committed-op
        count observed *while its locks were held* — the per-shard
        commit-sequence stamp. No cross-shard snapshot is implied: the
        vector is how a caller detects that a concurrent multi-shard
        write straddled the gather."""
        by_shard: dict[int, list[str]] = {}
        for name in names:
            by_shard.setdefault(self._map().shard_of(name),
                                []).append(name)
        results: dict[int, object] = {}
        vector: dict[int, int] = {}
        for shard in sorted(by_shard):
            lane = self.lanes[shard]
            lane_names = tuple(by_shard[shard])

            def gather(db, lane=lane, lane_names=lane_names):
                value = fn(db, lane_names)
                return value, len(lane.committed)

            results[shard], vector[shard] = lane.read(
                lane_names, gather, deadline=deadline,
            )
        with self._stats_lock:
            self._scatter_reads += 1
        if OBS.enabled:
            OBS.inc("service.shard.scatter_reads")
        return results, vector

    def sequence_vector(self) -> dict[int, int]:
        """Each lane's committed-op count right now (unlocked: a
        monitoring stamp, not a consistency token — the locked variant
        is what :meth:`scatter_read` returns)."""
        return {shard: len(lane.committed)
                for shard, lane in enumerate(self.lanes)}

    # -- read-modify-write --------------------------------------------------

    def read_modify_write(
        self,
        names: Iterable[str],
        build: Callable[[FunctionalDatabase],
                        Update | UpdateSequence | None],
        *,
        deadline: Deadline | float | None = None,
    ) -> Update | UpdateSequence | None:
        """Single-shard only: the read and the write must land on one
        lane (a cross-shard rmw would need a cross-shard snapshot the
        facade does not provide). The built update is re-checked
        before apply; an update escaping the lane raises
        :class:`CrossShardError` without applying anything."""
        name_list = tuple(names)
        shard_ids = self._map().shards_of(name_list)
        if len(shard_ids) != 1:
            raise CrossShardError(
                f"read_modify_write of {name_list} spans shards "
                f"{sorted(shard_ids)}"
            )
        shard = shard_ids.pop()

        def checked(db):
            update = build(db)
            if update is not None:
                built_shards = self._map().shards_of(_touched(update))
                if built_shards != {shard}:
                    raise CrossShardError(
                        f"read_modify_write on shard {shard} built an "
                        f"update touching shards {sorted(built_shards)}"
                    )
            return update

        return self.lanes[shard].read_modify_write(
            name_list, checked, deadline=deadline,
        )

    # -- maintenance --------------------------------------------------------

    def checkpoint(self, snapshot_dir: str | Path) -> None:
        """Checkpoint every lane's WAL into
        ``<snapshot_dir>/shard-<i>.snap`` (each under its own write
        token; lanes checkpoint independently)."""
        directory = Path(snapshot_dir)
        for shard, lane in enumerate(self.lanes):
            lane.checkpoint(directory / f"shard-{shard}.snap")

    def swap_lane(self, shard: int, service: DatabaseService) -> None:
        """Replace a lane after failover: the shard soak promotes a
        replica of one lane's group and installs the new primary's
        service here. The incoming service must carry the same shard
        label so its telemetry stays on the same series. The outgoing
        lane's WAL descriptor is released: its log now belongs to
        whoever repairs the deposed primary's directory."""
        if service.shard != shard:
            raise ValueError(
                f"replacement service is labelled shard "
                f"{service.shard!r}, expected {shard}"
            )
        outgoing, self.lanes[shard] = self.lanes[shard], service
        outgoing.close_log()

    # -- lifecycle ----------------------------------------------------------

    def drain(self, timeout: float = 10.0) -> bool:
        ok = True
        for lane in self.lanes:
            ok = lane.drain(timeout) and ok
        return ok

    def close(self, *, drain: bool = True, timeout: float = 10.0) -> bool:
        ok = True
        for lane in self.lanes:
            ok = lane.close(drain=drain, timeout=timeout) and ok
        self.stop_metrics()
        return ok

    # -- exposition ---------------------------------------------------------

    def serve_metrics(self, *, host: str = "127.0.0.1",
                      port: int = 0) -> MetricsEndpoint:
        """One endpoint for the whole keyspace: OBS metrics are
        process-global (every lane's series, ``service_shard_*``
        included, is already in the registry), and ``/health`` folds
        all lanes."""
        if self.endpoint is None or not self.endpoint.running:
            self.endpoint = MetricsEndpoint(
                OBS.metrics, health=self._health, host=host, port=port,
            ).start()
        return self.endpoint

    def stop_metrics(self) -> None:
        if self.endpoint is not None:
            self.endpoint.stop()
            self.endpoint = None

    def _health(self) -> dict:
        lanes = {shard: lane._health()
                 for shard, lane in enumerate(self.lanes)}
        healthy = all(h["healthy"] for h in lanes.values()) and all(
            lane.slo.healthy for lane in self.lanes
        )
        return {
            "healthy": healthy,
            "shards": self.shards,
            "lanes": {str(shard): verdict
                      for shard, verdict in lanes.items()},
        }

    # -- reporting ----------------------------------------------------------

    def stats(self) -> dict:
        with self._stats_lock:
            multi = self._multi_writes
            scatter = self._scatter_reads
        return {
            "shards": self.shards,
            "assignments": self.map.assignments(),
            "multi_writes": multi,
            "scatter_reads": scatter,
            "sequence_vector": self.sequence_vector(),
            "lanes": {str(shard): lane.stats()
                      for shard, lane in enumerate(self.lanes)},
        }

    def committed_ops(self, shard: int):
        return self.lanes[shard].committed_ops()

    def acked_ops(self, shard: int):
        return self.lanes[shard].acked_ops()

    def cross_markers(self, shard: int) -> tuple[tuple[int, int], ...]:
        """Lane ``shard``'s (marker, committed-index) journal, a
        stable copy."""
        lane = self.lanes[shard]
        with lane._committed_lock:
            return tuple(lane.cross_markers)
