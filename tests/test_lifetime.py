"""An instance the engine drops is freed where it is dropped.

No reference cycle runs through a :class:`FunctionalDatabase`, nor
through the logged, replicated and sharded services built on one. Each
test turns the cyclic collector off, so an instance on a cycle would
outlive its last strong reference; the weak references taken here must
be dead as soon as that reference goes. Each case builds and drops its
objects inside a helper and gets back only weak references.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.fdb import persistence
from repro.fdb.evaluate import evaluate_derivations
from repro.fdb.logic import Truth
from repro.fdb.updates import (Update, UpdateSequence, apply_entry,
                               apply_update)
from repro.fdb.wal import LoggedDatabase, recover
from repro.replication import Replica, ReplicationGroup
from repro.service import DatabaseService
from repro.shard import ShardedDatabaseService
from repro.workloads.generator import chain_fdb, random_instance
from repro.workloads.university import pupil_database, section_42_updates


@pytest.fixture(autouse=True)
def no_cyclic_collector():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def assert_dead(refs: list[weakref.ref]) -> None:
    alive = [ref() for ref in refs]
    assert all(thing is None for thing in alive), [
        type(thing).__name__ for thing in alive if thing is not None]


def loaded_chain():
    db = chain_fdb(3)
    db.load_instance({"f1": [("a", "b"), ("a2", "b")],
                      "f2": [("b", "c")],
                      "f3": [("c", "d"), ("c", "d2")]})
    return db


class Abort(Exception):
    pass


def serve_engine() -> list[weakref.ref]:
    db = loaded_chain()
    assert db.truth_of("v", "a", "d") is Truth.TRUE
    assert ("a", "d") in db.extension("v")
    db.delete("v", "a", "d")            # derived DEL: an NC
    db.insert("v", "p", "q")            # derived INS: an NVC with nulls
    apply_entry(db, Update.rep("f1", ("a2", "b"), ("a3", "b")))
    apply_entry(db, UpdateSequence((Update.ins("f2", "b", "c2"),
                                       Update.delete("v", "a3", "d2"))))
    assert db.ncs and db.nulls.next_index > 1
    try:
        with db.transaction():
            db.insert("f1", "rolled", "back")
            raise Abort
    except Abort:
        pass
    assert db.table("f1").get("rolled", "back") is None
    return [weakref.ref(db)]


def test_a_served_engine_instance_is_freed():
    assert_dead(serve_engine())


def round_trip() -> list[weakref.ref]:
    db = pupil_database()
    for update in section_42_updates():
        apply_update(db, update)
    clone = persistence.loads(persistence.dumps(db))
    assert persistence.to_dict(clone) == persistence.to_dict(db)
    return [weakref.ref(db), weakref.ref(clone)]


def test_a_loaded_snapshot_is_freed():
    assert_dead(round_trip())


def serve_logged(tmp_path) -> list[weakref.ref]:
    snapshot = tmp_path / "snapshot.json"
    db = loaded_chain()
    persistence.save(db, snapshot, wal_applied=0)
    service = DatabaseService(db, log=tmp_path / "wal.log")
    service.insert("f1", "x", "b")
    service.delete("v", "a", "d")
    service.execute(UpdateSequence((Update.ins("f2", "b", "c3"),
                                    Update.ins("v", "p", "q"))))
    service.checkpoint(snapshot)
    service.close()
    return [weakref.ref(service), weakref.ref(db)]


def test_a_closed_logged_service_and_its_instance_are_freed(tmp_path):
    assert_dead(serve_logged(tmp_path))


def recovered(tmp_path) -> list[weakref.ref]:
    snapshot, log = tmp_path / "snapshot.json", tmp_path / "wal.log"
    db = pupil_database()
    persistence.save(db, snapshot, wal_applied=0)
    logged = LoggedDatabase(db, log)
    for update in section_42_updates():
        logged.execute(update)
    logged.close()
    report = recover(snapshot, log)
    assert report.entries_applied == len(section_42_updates())
    return [weakref.ref(report.db), weakref.ref(db)]


def test_a_recovered_instance_is_freed(tmp_path):
    assert_dead(recovered(tmp_path))


def serve_replicated(tmp_path) -> list[weakref.ref]:
    db = loaded_chain()
    persistence.save(db, tmp_path / "snapshot.json", wal_applied=0)
    group = ReplicationGroup("quorum", ack_timeout=5.0,
                             retry_interval=0.001)
    service = DatabaseService(db, log=tmp_path / "wal.log",
                              replication=group)
    replicas = [Replica(f"r{r}", tmp_path / f"replica-{r}")
                for r in range(2)]
    for replica in replicas:
        group.add_replica(replica.name, replica)
    service.insert("f1", "x", "b")
    service.delete("v", "a", "d")
    service.execute(UpdateSequence((Update.ins("f2", "b", "c3"),
                                    Update.ins("v", "p", "q"))))
    assert all(replica.applied_seq == 3 for replica in replicas)
    service.close()
    group.close()
    return [weakref.ref(service), weakref.ref(db),
            *(weakref.ref(replica.db) for replica in replicas)]


def test_a_closed_replicated_service_frees_every_instance(tmp_path):
    refs = serve_replicated(tmp_path)
    assert len(refs) == 4
    assert_dead(refs)


def serve_sharded(tmp_path) -> list[weakref.ref]:
    front = ShardedDatabaseService(loaded_chain, 2,
                                   log_dir=tmp_path / "lanes")
    front.insert("f1", "x", "b")
    front.delete("v", "a", "d")
    assert front.truth_of("v", "x", "d") is Truth.AMBIGUOUS  # through g1
    front.close()
    return [weakref.ref(front),
            *(weakref.ref(lane.db) for lane in front.lanes)]


def test_a_closed_sharded_service_frees_every_lane(tmp_path):
    assert_dead(serve_sharded(tmp_path))


# -- the maintained extension (repro.fdb.memo) --------------------------------


def scanned_instance() -> list[weakref.ref]:
    db = chain_fdb(3)
    random_instance(db, 30, seed=3, value_pool=8)
    for _ in range(2):  # a memo starts at the second scan
        db.extension("v")
    db.insert("f2", "T1_1", "T2_2")
    db.delete("v", *next(iter(db.extension("v"))))
    assert db.extension("v") == evaluate_derivations(
        db, db.derived("v").derivations)
    assert db.memo("v").size  # it keeps chains
    return [weakref.ref(db), *(weakref.ref(table) for table in db.tables())]


def test_an_instance_that_served_scans_is_freed_with_its_memo():
    assert_dead(scanned_instance())


def test_writes_without_a_read_keep_at_most_one_change_per_chain():
    """Changes wait for the next scan or point read, in the memo or
    outside it in the undo log's standing list; past one per kept chain
    the memo drops every chain instead of keeping them."""
    db = chain_fdb(3)
    random_instance(db, 30, seed=3, value_pool=8)
    for _ in range(2):
        db.extension("v")
    memo = db.memo("v")
    chains = memo.size
    assert chains >= len(db.table("f1"))
    for i in range(10 * chains):
        db.insert("f3", f"T2_{i % 8}", f"T3_w{i}")
        assert len(memo.pending) + len(db._undo.standing) <= chains
    assert db.extension("v") == evaluate_derivations(
        db, db.derived("v").derivations)
