"""Tests for the sharded keyspace: the cluster -> lane ShardMap and
the ShardedDatabaseService facade (routing, multi-shard writes with
marker journals, scatter-gather reads, cross-shard guard rails)."""

from __future__ import annotations

import pytest

from repro.core.derivation import Derivation
from repro.core.schema import FunctionDef, ObjectType, TypeFunctionality
from repro.errors import (
    CrossShardError,
    LeaseExpired,
    ServiceClosed,
    ServiceReadOnly,
)
from repro.faults import FAULTS
from repro.faults.harness import states_diff
from repro.fdb.database import FunctionalDatabase
from repro.fdb.logic import Truth
from repro.fdb.updates import (
    Update,
    UpdateSequence,
    apply_sequence,
    apply_update,
)
from repro.fdb.wal import UpdateLog
from repro.obs import OBS, RingBufferSink
from repro.replication import LeaseConfig, Replica, ReplicationGroup
from repro.service import OPEN, CircuitBreaker, DatabaseService
from repro.service.service import clusters_of
from repro.shard import ShardMap, ShardedDatabaseService

CLUSTERS = 4


@pytest.fixture(autouse=True)
def clean_registry():
    FAULTS.disarm_all()
    yield
    FAULTS.disarm_all()


def four_cluster_database() -> FunctionalDatabase:
    """``CLUSTERS`` independent derivation clusters
    ``c<i>a . c<i>b -> c<i>v``."""
    db = FunctionalDatabase()
    mm = TypeFunctionality.MANY_MANY
    for index in range(CLUSTERS):
        prefix = f"c{index}"
        types = [ObjectType(f"T{index}_{j}") for j in range(3)]
        first = FunctionDef(f"{prefix}a", types[0], types[1], mm)
        second = FunctionDef(f"{prefix}b", types[1], types[2], mm)
        db.declare_base(first)
        db.declare_base(second)
        db.declare_derived(
            FunctionDef(f"{prefix}v", types[0], types[2], mm),
            Derivation.of(first, second),
        )
    return db


def round_robin_pins(shards: int) -> dict[str, int]:
    clusters = sorted(set(clusters_of(four_cluster_database()).values()))
    return {cluster: index % shards
            for index, cluster in enumerate(clusters)}


@pytest.fixture
def facade(tmp_path):
    """Two lanes over the four clusters, pinned round-robin so both
    lanes own two clusters each."""
    service = ShardedDatabaseService(
        four_cluster_database, 2,
        pins=round_robin_pins(2),
        log_dir=tmp_path / "lanes",
    )
    yield service
    service.close()


class TestShardMap:
    def test_placement_is_stable_and_total(self):
        db = four_cluster_database()
        first = ShardMap(db, 3)
        second = ShardMap(four_cluster_database(), 3)
        # Same schema, same pins -> identical placement (crc32 of the
        # cluster id, not anything process-local).
        assert first == second
        assert first.assignments() == second.assignments()
        placed = set()
        for shard in range(3):
            placed.update(first.names_on(shard))
        assert placed == set(db.base_names) | set(db.derived_names)

    def test_cluster_members_stay_together(self):
        shard_map = ShardMap(four_cluster_database(), 2)
        for index in range(CLUSTERS):
            family = {shard_map.shard_of(f"c{index}{part}")
                      for part in ("a", "b", "v")}
            assert len(family) == 1

    def test_pins_override_the_hash(self):
        db = four_cluster_database()
        clusters = sorted(set(clusters_of(db).values()))
        pins = {clusters[0]: 1, clusters[1]: 1}
        shard_map = ShardMap(db, 2, pins=pins)
        assert shard_map.shard_of_cluster(clusters[0]) == 1
        assert shard_map.shard_of_cluster(clusters[1]) == 1

    def test_invalid_configuration_rejected(self):
        db = four_cluster_database()
        with pytest.raises(ValueError):
            ShardMap(db, 0)
        cluster = next(iter(clusters_of(db).values()))
        with pytest.raises(ValueError):
            ShardMap(db, 2, pins={cluster: 2})

    def test_unknown_name_raises(self):
        shard_map = ShardMap(four_cluster_database(), 2)
        with pytest.raises(KeyError):
            shard_map.shard_of("nope")

    def test_stale_and_rebuild_on_schema_change(self):
        db = four_cluster_database()
        shard_map = ShardMap(db, 2)
        assert not shard_map.stale_for(db)
        extra = FunctionDef(
            "late", ObjectType("L0"), ObjectType("L1"),
            TypeFunctionality.MANY_MANY,
        )
        db.declare_base(extra)
        assert shard_map.stale_for(db)
        rebuilt = shard_map.rebuilt(db)
        assert not rebuilt.stale_for(db)
        assert 0 <= rebuilt.shard_of("late") < 2
        assert rebuilt.pins == shard_map.pins


class TestRouting:
    def test_single_cluster_write_lands_on_owning_lane_only(self, facade):
        facade.insert("c0a", "x", "y")
        owner = facade.shard_of("c0a")
        other = 1 - owner
        assert len(facade.committed_ops(owner)) == 1
        assert len(facade.committed_ops(other)) == 0
        assert facade.lane(owner).db.truth_of(
            "c0a", "x", "y") is Truth.TRUE
        assert facade.lane(other).db.truth_of(
            "c0a", "x", "y") is Truth.FALSE

    def test_single_cluster_sequence_stays_single_lane(self, facade):
        seq = UpdateSequence((
            Update.ins("c1a", "p", "q"),
            Update.ins("c1b", "q", "r"),
        ), label="one-cluster")
        facade.execute(seq)
        owner = facade.shard_of("c1a")
        assert len(facade.committed_ops(owner)) == 1
        # A single-lane sequence takes the lane's normal path: no
        # global-lane marker is journalled anywhere.
        for shard in range(2):
            assert facade.cross_markers(shard) == ()

    def test_delete_and_replace_route_like_insert(self, facade):
        facade.insert("c2a", "x", "y")
        facade.replace("c2a", ("x", "y"), ("x", "z"))
        facade.delete("c2a", "x", "z")
        owner = facade.shard_of("c2a")
        assert len(facade.committed_ops(owner)) == 3

    def test_declare_lands_on_every_lane_and_rebuilds_map(self, facade):
        extra = FunctionDef(
            "late", ObjectType("L0"), ObjectType("L1"),
            TypeFunctionality.MANY_MANY,
        )
        facade.declare(lambda db: db.declare_base(extra))
        for lane in facade.lanes:
            assert lane.db.is_base("late")
        shard = facade.shard_of("late")
        facade.insert("late", "a", "b")
        assert facade.lane(shard).db.truth_of(
            "late", "a", "b") is Truth.TRUE


class TestMultiShardWrites:
    def multi(self, facade, tag: str) -> UpdateSequence:
        return UpdateSequence((
            Update.ins("c0a", f"{tag}x", f"{tag}y"),
            Update.ins("c1a", f"{tag}x", f"{tag}y"),
        ), label=f"multi-{tag}")

    def test_multi_shard_sequence_commits_on_every_lane(self, facade):
        facade.execute(self.multi(facade, "m0"))
        for name in ("c0a", "c1a"):
            lane = facade.lane(facade.shard_of(name))
            assert lane.db.truth_of(name, "m0x", "m0y") is Truth.TRUE
        assert facade.stats()["multi_writes"] == 1

    def test_markers_are_journalled_on_each_involved_lane(self, facade):
        for tag in ("m0", "m1", "m2"):
            facade.execute(self.multi(facade, tag))
        for shard in range(2):
            journal = facade.cross_markers(shard)
            assert len(journal) == 3
            markers = [marker for marker, _ in journal]
            indices = [index for _, index in journal]
            # Strictly increasing in both coordinates: the lane's
            # replay oracle stays sequential.
            assert markers == sorted(markers)
            assert len(set(markers)) == 3
            assert indices == sorted(indices)
            assert len(set(indices)) == 3
            committed = len(facade.committed_ops(shard))
            assert all(index < committed for index in indices)
        # The same marker pairs the two lanes' slices of one write.
        assert ([m for m, _ in facade.cross_markers(0)]
                == [m for m, _ in facade.cross_markers(1)])

    def test_replay_of_one_lane_log_reproduces_its_state(self, facade):
        facade.insert("c0a", "solo", "row")
        facade.execute(self.multi(facade, "mix"))
        facade.insert("c1b", "tail", "row")
        for shard in range(2):
            expected = four_cluster_database()
            for op in facade.committed_ops(shard):
                if isinstance(op, UpdateSequence):
                    apply_sequence(expected, op)
                else:
                    apply_update(expected, op)
            assert states_diff(expected, facade.lane(shard).db) is None


class TestOneWritePath:
    """A multi-shard write is the lanes' own write path entered on
    several lanes: every lane's gate, fence and breaker are passed
    before the first slice applies, and every lane counts it."""

    multi = UpdateSequence((
        Update.ins("c0a", "x", "y"),
        Update.ins("c1a", "x", "y"),
    ), label="multi")

    def untouched(self, facade, tmp_path) -> bool:
        return all(
            facade.committed_ops(shard) == ()
            and len(UpdateLog(tmp_path / "lanes" / f"shard-{shard}.wal")) == 0
            # The refusal returned every slot, lock and probe it took.
            and facade.lane(shard).gate.wait_idle(timeout=0)
            and not facade.lane(shard).locks.holders("__write__")["exclusive"]
            for shard in range(2)
        )

    @pytest.mark.parametrize("shutdown", ["drain", "close"])
    def test_drained_facade_refuses_multi_shard_write(
            self, facade, tmp_path, shutdown):
        getattr(facade, shutdown)()
        with pytest.raises(ServiceClosed):
            facade.execute(self.multi)
        assert self.untouched(facade, tmp_path)

    def test_open_breaker_on_a_later_lane_refuses_before_any_apply(
            self, facade, tmp_path):
        breaker = facade.lane(1).breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout=60.0)
        breaker.record_failure()
        assert breaker.state == OPEN
        with pytest.raises(ServiceReadOnly):
            facade.execute(self.multi)
        assert self.untouched(facade, tmp_path)

    def test_lapsed_lease_on_a_later_lane_refuses_before_any_apply(
            self, tmp_path, closing):
        now = [0.0]
        group = closing(ReplicationGroup("async"))
        group.enable_lease(
            LeaseConfig(duration=0.3, margin=0.05, renew_interval=0.05),
            clock=lambda: now[0])
        facade = closing(ShardedDatabaseService(
            four_cluster_database, 2, pins=round_robin_pins(2),
            log_dir=tmp_path / "lanes",
            replication_factory=lambda shard: group if shard == 1 else None,
        ))
        group.add_replica("r0", Replica("r0", tmp_path / "r0"))
        for link in group.shipper.links():
            link.transport.partitioned = True  # no renewal votes
        now[0] = 10.0
        assert group.leaderless()
        with pytest.raises(LeaseExpired):
            facade.execute(self.multi)
        assert self.untouched(facade, tmp_path)

    def test_storage_failure_after_a_slice_landed_is_cross_shard_error(
            self, facade, monkeypatch):
        # Lane 0's append succeeds, lane 1's fails: the one case left
        # for CrossShardError, naming the shard that committed.
        def dead_disk(update):
            raise OSError("injected: lane 1's log device is gone")

        monkeypatch.setattr(facade.lane(1).logged, "execute", dead_disk)
        with pytest.raises(CrossShardError, match=r"shards \[0\]"):
            facade.execute(self.multi)
        assert len(facade.committed_ops(0)) == 1
        assert facade.committed_ops(1) == ()

    def test_every_involved_lane_counts_the_write(self, facade):
        OBS.enable()
        sink = OBS.events.add_sink(RingBufferSink(capacity=4096))
        try:
            facade.execute(self.multi)
        finally:
            OBS.events.remove_sink(sink)
            metrics = {name: OBS.metrics.counter(name).value for name in (
                "service.red.multi_write.requests",
                "service.shard.0.requests", "service.shard.1.requests")}
            OBS.disable()
            OBS.reset()
            OBS.metrics.clear()
        for lane in facade.lanes:
            assert lane.stats()["writes"] == 1
            assert lane.slo.snapshot()["window_samples"] == 1
        assert set(metrics.values()) == {1}
        # ...while it stays one request: one span, stamped committed.
        (request,) = [r for r in sink.records if r.kind == "span.end"
                      and r.name == "service.request"]
        assert request.attrs["family"] == "multi_write"
        assert request.attrs["shards"] == (0, 1)
        assert request.attrs["committed"] is True


class TestReads:
    def test_single_shard_read(self, facade):
        facade.insert("c0a", "x", "y")
        rows = facade.read(("c0a",), lambda db: db.table("c0a").rows())
        assert len(rows) == 1
        assert facade.truth_of("c0a", "x", "y") is Truth.TRUE
        assert ("x", "y") in facade.extension("c0a")

    def test_cross_shard_read_is_refused(self, facade):
        with pytest.raises(CrossShardError):
            facade.read(("c0a", "c1a"), lambda db: None)

    def test_scatter_read_gathers_with_sequence_vector(self, facade):
        facade.insert("c0a", "x", "y")
        facade.insert("c1a", "p", "q")
        results, vector = facade.scatter_read(
            ("c0a", "c1a"),
            lambda db, names: {n: len(db.table(n).rows())
                               for n in names},
        )
        shard0 = facade.shard_of("c0a")
        shard1 = facade.shard_of("c1a")
        assert results[shard0] == {"c0a": 1}
        assert results[shard1] == {"c1a": 1}
        # Each vector entry is the lane's committed-op count captured
        # under that lane's locks.
        assert vector == {shard0: 1, shard1: 1}
        assert facade.sequence_vector() == vector
        assert facade.stats()["scatter_reads"] == 1


class TestReadModifyWrite:
    def test_single_shard_rmw_applies(self, facade):
        facade.insert("c0a", "x", "y")

        def build(db):
            if db.truth_of("c0a", "x", "y") is Truth.TRUE:
                return Update.ins("c0a", "x2", "y2")
            return None

        applied = facade.read_modify_write(("c0a",), build)
        assert applied is not None
        lane = facade.lane(facade.shard_of("c0a"))
        assert lane.db.truth_of("c0a", "x2", "y2") is Truth.TRUE

    def test_rmw_spanning_shards_is_refused(self, facade):
        with pytest.raises(CrossShardError):
            facade.read_modify_write(
                ("c0a", "c1a"), lambda db: None,
            )

    def test_rmw_escaping_its_lane_is_refused_before_apply(self, facade):
        with pytest.raises(CrossShardError):
            facade.read_modify_write(
                ("c0a",), lambda db: Update.ins("c1a", "x", "y"),
            )
        for shard in range(2):
            assert facade.committed_ops(shard) == ()


class TestSwapLane:
    def test_swap_requires_matching_shard_label(self, facade):
        impostor = DatabaseService(four_cluster_database(), shard=1)
        try:
            with pytest.raises(ValueError):
                facade.swap_lane(0, impostor)
        finally:
            impostor.close()

    def test_swap_installs_the_replacement(self, facade):
        replacement = DatabaseService(four_cluster_database(), shard=0)
        old = facade.lane(0)
        facade.swap_lane(0, replacement)
        assert facade.lane(0) is replacement
        facade.insert(facade.map.names_on(0)[0], "post", "swap")
        assert len(replacement.committed_ops()) == 1
        old.close()


class TestHealthAndStats:
    def test_stats_exposes_assignments_and_lanes(self, facade):
        facade.insert("c0a", "x", "y")
        stats = facade.stats()
        assert stats["shards"] == 2
        assert set(stats["assignments"].values()) == {0, 1}
        assert set(stats["lanes"]) == {"0", "1"}
        assert stats["sequence_vector"][facade.shard_of("c0a")] == 1

    def test_health_folds_every_lane(self, facade):
        verdict = facade.health()
        assert verdict["healthy"] is True
        assert verdict["shards"] == 2
        assert set(verdict["lanes"]) == {"0", "1"}
