"""Guard: every lock is taken in one order, once.

No owner asks a lock manager for a resource while it holds one on that
manager that sorts at or after it. That rule is why
:class:`repro.service.LockManager` keeps no wait-for graph: a wait-for
cycle needs some owner waiting for a resource that sorts before one it
holds. The spy wraps ``LockManager.acquire`` / ``release`` and records
every ask that breaks the rule while threads drive each path that
takes locks — ``execute``, ``read``, ``checkpoint``,
``read_modify_write`` (a build escaping into a second cluster
included), ``close_log``, a multi-shard sequence and a scatter read on
a 2-shard facade, and a replication snapshot catch-up through
``ReplicationGroup.exclusive``.
"""

from __future__ import annotations

import threading

import pytest

from repro.fdb import persistence
from repro.fdb.updates import Update, UpdateSequence
from repro.replication import Replica, ReplicationGroup
from repro.service import SHARED, DatabaseService, LockManager
from repro.shard import ShardedDatabaseService
from tests.test_shard import four_cluster_database, round_robin_pins


class OrderSpy:
    """Per manager and owner, what is held; every ask for a resource
    sorting at or before a held one is a violation."""

    def __init__(self, monkeypatch) -> None:
        self.held: dict[tuple[LockManager, int], set[str]] = {}
        self.violations: list[tuple[str, str, list[str]]] = []
        self.asks = 0
        self._lock = threading.Lock()
        real_acquire, real_release = LockManager.acquire, LockManager.release

        def key(manager, owner):
            return manager, threading.get_ident() if owner is None else owner

        def acquire(manager, resource, mode=SHARED, *, owner=None,
                    **kwargs):
            with self._lock:
                self.asks += 1
                later = sorted(held for held in
                               self.held.get(key(manager, owner), ())
                               if held >= resource)
                if later:
                    self.violations.append((resource, mode, later))
            real_acquire(manager, resource, mode, owner=owner, **kwargs)
            with self._lock:
                self.held.setdefault(key(manager, owner),
                                     set()).add(resource)

        def release(manager, resource, mode=SHARED, *, owner=None):
            real_release(manager, resource, mode, owner=owner)
            with self._lock:
                self.held[key(manager, owner)].discard(resource)

        monkeypatch.setattr(LockManager, "acquire", acquire)
        monkeypatch.setattr(LockManager, "release", release)


@pytest.fixture
def spy(monkeypatch):
    return OrderSpy(monkeypatch)


def run_threads(*targets) -> None:
    errors: list[BaseException] = []

    def guarded(target):
        try:
            target()
        except BaseException as exc:  # pragma: no cover - reported below
            errors.append(exc)

    pool = [threading.Thread(target=guarded, args=(target,))
            for target in targets]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join(30.0)
    assert not any(thread.is_alive() for thread in pool)
    assert errors == []


def test_the_spy_sees_an_ask_out_of_order(spy):
    locks = LockManager()
    locks.acquire("b", owner=1)
    locks.acquire("a", owner=2)  # another owner: no order between them
    locks.acquire("a", owner=1)
    assert spy.violations == [("a", SHARED, ["b"])]


def rmw(front, worker: int, round_: int) -> None:
    """An rmw read over c0's cluster; odd rounds build an update on
    c2's (on the 2-shard facade c0 and c2 share lane 0)."""
    target = "c2a" if round_ % 2 else "c0a"
    front.read_modify_write(
        ("c0a",), lambda db: Update.ins(target, f"r{worker}.{round_}", "y"))


@pytest.mark.parametrize("shards", [1, 2])
def test_no_lock_is_asked_for_out_of_order(spy, closing, tmp_path, shards):
    if shards == 1:
        front = closing(DatabaseService(four_cluster_database(),
                                        log=tmp_path / "lane.wal"))
        lanes = [front]
    else:
        front = closing(ShardedDatabaseService(
            four_cluster_database, 2, pins=round_robin_pins(2),
            log_dir=tmp_path / "lanes"))
        lanes = [front.lane(0), front.lane(1)]
        assert front.shard_of("c0a") == front.shard_of("c2a")
        assert front.shard_of("c0a") != front.shard_of("c1a")

    def writer(worker):
        def run():
            for round_ in range(6):
                name = f"c{(worker + round_) % 4}a"
                front.execute(Update.ins(name, f"w{worker}.{round_}", "y"))
                front.read((name,), lambda db, n=name: db.extension(n))
                rmw(front, worker, round_)
                if shards > 1:
                    front.execute(UpdateSequence((
                        Update.ins("c0a", f"m{worker}.{round_}", "y"),
                        Update.ins("c1a", f"m{worker}.{round_}", "y"),
                    )))
                    front.scatter_read(
                        ("c0a", "c1a"),
                        lambda db, names: [len(db.extension(n))
                                           for n in names])
        return run

    def maintainer():
        for round_ in range(4):
            if shards == 1:
                front.checkpoint(tmp_path / "lane.snap")
            else:
                front.checkpoint(tmp_path)
            for lane in lanes:
                lane.close_log()

    run_threads(writer(0), writer(1), writer(2), maintainer)
    assert spy.asks > 0
    assert spy.violations == []


def test_snapshot_catch_up_keeps_the_order(spy, closing, tmp_path):
    workdir = tmp_path / "primary"
    workdir.mkdir()
    db = four_cluster_database()
    persistence.save(db, workdir / "snapshot.json", wal_applied=0)
    group = closing(ReplicationGroup("async", ack_timeout=1.0,
                                     retry_interval=0.005))
    service = closing(DatabaseService(db, log=workdir / "wal.log",
                                      replication=group))

    def writer(worker):
        def run():
            for round_ in range(6):
                service.execute(
                    Update.ins("c0a", f"w{worker}.{round_}", "y"))
                rmw(service, worker, round_)
        return run

    modes = []

    def joiner():
        for index in range(3):
            name = f"r{index}"
            modes.append(group.add_replica(
                name, Replica(name, tmp_path / name)).mode)

    run_threads(writer(0), writer(1), joiner)
    assert modes == ["snapshot"] * 3
    assert spy.violations == []
