"""Sharded keyspace: parallel per-shard write lanes.

Derivation clusters partition the function space (every update's
side-effects stay in one cluster), so clusters are the natural unit of
*placement*: :class:`ShardMap` hashes each cluster onto a shard
(with explicit pin overrides), and :class:`ShardedDatabaseService`
routes operations to N fully independent service lanes — each its own
database, WAL, lock manager and optional replication group — so writes
to clusters on different shards commit truly in parallel. See
``docs/SHARDING.md``.
"""

from repro.lazy import export_lazily

__all__ = export_lazily(__name__, {
    ".map": ("ShardMap",),
    ".sharded": ("ShardedDatabaseService",),
})
