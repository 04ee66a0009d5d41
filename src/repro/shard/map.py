"""The shard map: derivation clusters → shard lanes.

The paper's derivation clusters (see :func:`repro.service.service.
clusters_of`) partition the function space so that every update's
side-effects stay inside one cluster. That makes the cluster the unit
of *placement*: assign each cluster to a shard and every single-cluster
operation touches exactly one shard's database, WAL and replication
group.

Placement is a stable hash of the cluster id (``zlib.crc32``, so the
assignment survives process restarts and is identical on every node
that sees the same schema), overridable per cluster with explicit
*pins* — the operator's tool for isolating a hot cluster on its own
lane or co-locating clusters that a workload frequently writes
together (turning multi-shard writes back into single-shard ones).

The map is pure schema metadata: it is rebuilt from the database's
``schema_version`` whenever a declaration lands, and two maps built
from equal schemas with equal pins are equal.
"""

from __future__ import annotations

import zlib

from repro.fdb.database import FunctionalDatabase
from repro.service.service import clusters_of

__all__ = ["ShardMap"]


class ShardMap:
    """Immutable-by-convention mapping of function names and cluster
    ids onto ``shards`` lanes."""

    def __init__(self, db: FunctionalDatabase, shards: int, *,
                 pins: dict[str, int] | None = None) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.shards = shards
        self.pins = dict(pins or {})
        for cluster, shard in self.pins.items():
            if not 0 <= shard < shards:
                raise ValueError(
                    f"pin {cluster!r} -> {shard} outside 0..{shards - 1}"
                )
        self.version = db.schema_version
        # name -> cluster resource ("fn:<root>"), then cluster -> shard.
        self._cluster_of = clusters_of(db)
        self._shard_of_cluster: dict[str, int] = {}
        for cluster in sorted(set(self._cluster_of.values())):
            self._shard_of_cluster[cluster] = self.pins.get(
                cluster, zlib.crc32(cluster.encode()) % shards
            )

    # -- lookups ------------------------------------------------------------

    def cluster_of(self, name: str) -> str:
        """The cluster resource owning function ``name``."""
        return self._cluster_of[name]

    def shard_of_cluster(self, cluster: str) -> int:
        return self._shard_of_cluster[cluster]

    def shard_of(self, name: str) -> int:
        """The shard lane owning function ``name`` (KeyError when the
        name is not in the schema the map was built from)."""
        return self._shard_of_cluster[self._cluster_of[name]]

    def shards_of(self, names) -> set[int]:
        return {self.shard_of(name) for name in names}

    def clusters_on(self, shard: int) -> tuple[str, ...]:
        """Every cluster placed on ``shard``, sorted."""
        return tuple(sorted(
            cluster for cluster, s in self._shard_of_cluster.items()
            if s == shard
        ))

    def names_on(self, shard: int) -> tuple[str, ...]:
        """Every function name placed on ``shard``, sorted."""
        clusters = set(self.clusters_on(shard))
        return tuple(sorted(
            name for name, cluster in self._cluster_of.items()
            if cluster in clusters
        ))

    def assignments(self) -> dict[str, int]:
        """cluster -> shard, a stable copy (for display and tests)."""
        return dict(self._shard_of_cluster)

    def stale_for(self, db: FunctionalDatabase) -> bool:
        """Did the schema move past the version this map was built
        from? (The sharded service rebuilds on a stale map.)"""
        return db.schema_version != self.version

    def rebuilt(self, db: FunctionalDatabase) -> "ShardMap":
        """A fresh map over ``db``'s current schema with the same shard
        count and pins."""
        return ShardMap(db, self.shards, pins=self.pins)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ShardMap):
            return NotImplemented
        return (self.shards == other.shards
                and self._shard_of_cluster == other._shard_of_cluster
                and self._cluster_of == other._cluster_of)

    def __repr__(self) -> str:
        return (f"ShardMap(shards={self.shards}, "
                f"clusters={len(self._shard_of_cluster)}, "
                f"pins={len(self.pins)}, version={self.version})")
