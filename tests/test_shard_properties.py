"""Property tests for the sharded keyspace (satellite of the shard
work): a sharded run's per-shard state must equal an unsharded run of
the same workload restricted to that shard's clusters — the whole
fingerprint (tables with flags and NCLs, the NC registry, both index
counters), not just the rows. Includes a mid-run failover on one
shard's replication group: promoting a replica and swapping the lane
must not perturb the restriction property."""

from __future__ import annotations

from random import Random

import pytest

from repro.core.derivation import Derivation
from repro.core.schema import FunctionDef, ObjectType, TypeFunctionality
from repro.faults import FAULTS
from repro.faults.harness import states_diff
from repro.fdb import persistence
from repro.fdb.database import FunctionalDatabase
from repro.fdb.updates import Update, UpdateSequence
from repro.fdb.wal import UpdateLog
from repro.replication import Replica, ReplicationGroup
from repro.service import DatabaseService
from repro.service.service import clusters_of
from repro.shard import ShardedDatabaseService

CLUSTERS = 4
SHARDS = 2
OPS = 120


@pytest.fixture(autouse=True)
def clean_registry():
    FAULTS.disarm_all()
    yield
    FAULTS.disarm_all()


def property_database() -> FunctionalDatabase:
    db = FunctionalDatabase()
    mm = TypeFunctionality.MANY_MANY
    for index in range(CLUSTERS):
        prefix = f"p{index}"
        types = [ObjectType(f"P{index}_{j}") for j in range(3)]
        first = FunctionDef(f"{prefix}a", types[0], types[1], mm)
        second = FunctionDef(f"{prefix}b", types[1], types[2], mm)
        db.declare_base(first)
        db.declare_base(second)
        db.declare_derived(
            FunctionDef(f"{prefix}v", types[0], types[2], mm),
            Derivation.of(first, second),
        )
    return db


def _pins() -> dict[str, int]:
    clusters = sorted(set(clusters_of(property_database()).values()))
    return {cluster: index % SHARDS
            for index, cluster in enumerate(clusters)}


def _generate_ops(seed: int, count: int) -> list:
    """A deterministic mixed workload: inserts, deletes and replaces
    of live facts (touching derived functions too, so NCs and null
    indices get exercised), plus multi-cluster atomic sequences that
    the facade must run through its global lane."""
    rng = Random(seed)
    live: dict[str, list[tuple[str, str]]] = {}
    ops: list = []

    def fresh(name: str) -> tuple[str, str]:
        pair = (f"{name}x{rng.randrange(10_000)}",
                f"{name}y{rng.randrange(10_000)}")
        live.setdefault(name, []).append(pair)
        return pair

    names = [f"p{i}{part}" for i in range(CLUSTERS)
             for part in ("a", "b", "v")]
    for _ in range(count):
        roll = rng.random()
        name = rng.choice(names)
        if roll < 0.55:
            x, y = fresh(name)
            ops.append(Update.ins(name, x, y))
        elif roll < 0.70 and live.get(name):
            x, y = live[name].pop(rng.randrange(len(live[name])))
            ops.append(Update.delete(name, x, y))
        elif roll < 0.80 and live.get(name):
            old = live[name].pop(rng.randrange(len(live[name])))
            new = (old[0], f"{name}y{rng.randrange(10_000)}")
            live[name].append(new)
            ops.append(Update.rep(name, old, new))
        else:
            first, second = rng.sample(range(CLUSTERS), 2)
            ops.append(UpdateSequence((
                Update.ins(f"p{first}a", *fresh(f"p{first}a")),
                Update.ins(f"p{second}a", *fresh(f"p{second}a")),
            ), label="cross"))
    return ops


def _touched_names(op) -> set[str]:
    if isinstance(op, UpdateSequence):
        return {simple.function for simple in op}
    return {op.function}


def _restricted_replay(ops: list, names: set[str]) -> DatabaseService:
    """The oracle: an *unsharded* service fed only the ops that touch
    ``names`` (cluster confinement makes the restriction well-defined:
    every op touches one cluster per shard-slice, and ops on other
    clusters cannot move this slice's state or index counters)."""
    oracle = DatabaseService(property_database())
    for op in ops:
        touched = _touched_names(op)
        if touched <= names:
            oracle.execute(op)
        elif touched & names:
            # A cross-cluster sequence: keep only this slice, exactly
            # as the facade's global lane hands it to the lane.
            kept = tuple(simple for simple in op
                         if simple.function in names)
            oracle.execute(kept[0] if len(kept) == 1
                           else UpdateSequence(kept, label=op.label))
    return oracle


def _assert_restriction_holds(facade: ShardedDatabaseService,
                              ops: list) -> None:
    for shard in range(SHARDS):
        names = set(facade.map.names_on(shard))
        oracle = _restricted_replay(ops, names)
        try:
            diff = states_diff(oracle.db, facade.lane(shard).db)
            assert diff is None, f"shard {shard}: {diff}"
        finally:
            oracle.close()


@pytest.mark.parametrize("seed", (0, 1, 2))
def test_per_shard_state_equals_unsharded_restriction(tmp_path, seed):
    ops = _generate_ops(seed, OPS)
    facade = ShardedDatabaseService(
        property_database, SHARDS,
        pins=_pins(),
        log_dir=tmp_path / "lanes",
    )
    try:
        for op in ops:
            facade.execute(op)
        _assert_restriction_holds(facade, ops)
    finally:
        facade.close()


def test_restriction_survives_midrun_failover(tmp_path, closing):
    """Shard 0 runs replicated; halfway through the workload its
    replica is promoted and swapped in as the lane. The per-shard
    restriction property must hold over the *whole* op list — the
    failover is invisible to the oracle because sync(1) acked every
    committed op before the promotion."""
    ops = _generate_ops(seed=42, count=OPS)
    facade = ShardedDatabaseService(
        property_database, SHARDS,
        pins=_pins(),
        log_dir=tmp_path / "lanes",
    )
    # Rebuild lane 0 as a replicated primary with one synchronous
    # replica (the facade's constructor builds plain lanes; swapping
    # in a replicated one is exactly the operator path).
    workdir = tmp_path / "shard0-primary"
    workdir.mkdir()
    db0 = property_database()
    persistence.save(db0, workdir / "snapshot.json", wal_applied=0)
    group = closing(ReplicationGroup("sync(1)", ack_timeout=5.0,
                                     retry_interval=0.005))
    lane0 = closing(DatabaseService(
        db0, log=workdir / "wal.log", shard=0,
        replication=group, node="shard-0-primary",
    ))
    # Two replicas: the promotion consumes one, and the survivor keeps
    # satisfying the new primary's sync(1) quota.
    group.add_replica("r0", Replica("r0", tmp_path / "r0"))
    group.add_replica("r1", Replica("r1", tmp_path / "r1"))
    plain = facade.lane(0)
    facade.swap_lane(0, lane0)
    plain.close()
    promoted = None
    try:
        half = len(ops) // 2
        for op in ops[:half]:
            facade.execute(op)

        report = group.promote()
        chosen = group.replica(report.chosen)
        group.remove_replica(report.chosen)
        promoted = DatabaseService(
            chosen.db, log=UpdateLog(chosen.wal_path), shard=0,
            replication=group, node=chosen.name,
        )
        facade.swap_lane(0, promoted)
        lane0.close()

        for op in ops[half:]:
            facade.execute(op)
        _assert_restriction_holds(facade, ops)
        assert facade.lane(0) is promoted
        # The surviving replica converges to the promoted lane too.
        assert group.sync_all(timeout=10.0)["lagging"] == []
        survivor = group.replica(group.replica_names()[0])
        assert states_diff(promoted.db, survivor.db) is None
    finally:
        facade.close()
