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
* **Multi-shard writes** go through the same
  :func:`repro.service.service.write` a lane's own ``execute`` runs,
  with one slice per owning shard instead of one (lock order and the
  atomicity it does not promise are in its docstring; the full
  contract is ``docs/SHARDING.md``). Every slice is an
  :class:`UpdateSequence` carrying the write's label, so each lane's
  WAL names the writes it shares with other lanes, in the one global
  order the sorted token acquisition imposes.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Callable, Iterable

from repro.cancel import Deadline
from repro.errors import CrossShardError
from repro.fdb.database import FunctionalDatabase
from repro.fdb.updates import Update, UpdateSequence
from repro.service.service import (DatabaseService, FrontDoor, touched,
                                   write)
from repro.shard.map import ShardMap

__all__ = ["ShardedDatabaseService"]


class ShardedDatabaseService(FrontDoor):
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
        if log_dir is not None:
            Path(log_dir).mkdir(parents=True, exist_ok=True)
        self.lanes: list[DatabaseService] = []
        for shard in range(shards):
            self.lanes.append(DatabaseService(
                factory(), shard=shard,
                log=(None if log_dir is None
                     else Path(log_dir) / f"shard-{shard}.wal"),
                replication=(None if replication_factory is None
                             else replication_factory(shard)),
                node=f"shard-{shard}-primary", **(service_kwargs or {}),
            ))
        self.map = ShardMap(self.lanes[0].db, shards, pins=pins)
        self._stats_lock = threading.Lock()
        self._multi_writes = 0
        self._scatter_reads = 0

    # -- routing ------------------------------------------------------------

    @property
    def shards(self) -> int:
        return self.map.shards

    def lane(self, shard: int) -> DatabaseService:
        return self.lanes[shard]

    def _map(self) -> ShardMap:
        # A schema declaration lands on every lane's database, one by
        # one; a stale map (version skew) rebuilds from lane 0's schema.
        if self.map.stale_for(self.lanes[0].db):
            self.map = self.map.rebuilt(self.lanes[0].db)
        return self.map

    def shard_of(self, name: str) -> int:
        return self._map().shard_of(name)

    def _only_lane(self, names: tuple[str, ...], what: str,
                   hint: str = "") -> DatabaseService:
        """The one lane owning all of ``names``; an operation without
        a cross-shard path is refused when they span several."""
        shard_ids = self._map().shards_of(names)
        if len(shard_ids) != 1:
            raise CrossShardError(
                f"{what} of {names} spans shards {sorted(shard_ids)}{hint}"
            )
        return self.lanes[min(shard_ids)]

    # -- writes -------------------------------------------------------------

    def execute(self, update: Update | UpdateSequence, *,
                deadline: Deadline | float | None = None) -> None:
        """Apply one update or atomic sequence: on its owning lane, or
        — when the sequence's clusters land on several shards — as one
        multi-shard :func:`repro.service.service.write` over per-lane
        slices in sorted shard-id order (the global lock order)."""
        shard_ids = sorted(self._map().shards_of(touched(update)))
        if len(shard_ids) == 1:
            self.lanes[shard_ids[0]].execute(update, deadline=deadline)
            return
        parts = self._split(update)
        with self._stats_lock:
            self._multi_writes += 1
        write([self.lanes[shard] for shard in shard_ids],
              [parts[shard] for shard in shard_ids], deadline)

    def _split(self, update: UpdateSequence) -> dict[int, UpdateSequence]:
        """Partition a sequence into per-shard slices, each keeping
        its shard's internal order and the write's label."""
        parts: dict[int, list[Update]] = {}
        for simple in update:
            shard = self._map().shard_of(simple.function)
            parts.setdefault(shard, []).append(simple)
        return {shard: UpdateSequence(tuple(slice_), label=update.label)
                for shard, slice_ in parts.items()}

    # -- reads --------------------------------------------------------------

    def read(self, names: Iterable[str],
             fn: Callable[[FunctionalDatabase], object], *,
             deadline: Deadline | float | None = None,
             point: tuple | None = None) -> object:
        """A single-lane read (``point``: as the lane's ``read``); raises
        :class:`CrossShardError` when ``names`` span shards (use
        :meth:`scatter_read`)."""
        name_list = tuple(names)
        lane = self._only_lane(name_list, "read", "; use scatter_read")
        return lane.read(name_list, fn, deadline=deadline, point=point)

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
        lane = self._only_lane(name_list, "read_modify_write")

        def checked(db):
            update = build(db)
            if update is not None:
                built_shards = self._map().shards_of(touched(update))
                if built_shards != {lane.shard}:
                    raise CrossShardError(
                        f"read_modify_write on shard {lane.shard} built "
                        f"an update touching shards {sorted(built_shards)}"
                    )
            return update

        return lane.read_modify_write(name_list, checked,
                                      deadline=deadline)

    # -- maintenance --------------------------------------------------------

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
        return all([lane.drain(timeout) for lane in self.lanes])

    def close(self, *, drain: bool = True, timeout: float = 10.0) -> bool:
        ok = all([lane.close(drain=drain, timeout=timeout)
                  for lane in self.lanes])
        self.stop_metrics()
        return ok

    # -- reporting ----------------------------------------------------------

    def health(self) -> dict:
        """One ``/health`` for the whole keyspace: every lane's
        verdict and SLO state, folded."""
        lanes = {str(shard): lane.health()
                 for shard, lane in enumerate(self.lanes)}
        healthy = all(h["healthy"] for h in lanes.values()) and all(
            lane.slo.healthy for lane in self.lanes
        )
        return {"healthy": healthy, "shards": self.shards, "lanes": lanes}

    def stats(self) -> dict:
        return {
            "shards": self.shards,
            "assignments": self.map.assignments(),
            "multi_writes": self._multi_writes,
            "scatter_reads": self._scatter_reads,
            "sequence_vector": self.sequence_vector(),
            "lanes": {str(shard): lane.stats()
                      for shard, lane in enumerate(self.lanes)},
        }

    def committed_ops(self, shard: int):
        return self.lanes[shard].committed_ops()
