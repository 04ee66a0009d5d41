"""Tests for the concurrent service layer: retry policy, circuit
breaker, admission control, deadlines and the service facade.

The verb / lifecycle / stats / degradation cases run through both
front doors — a ``DatabaseService`` and the one-lane
``ShardedDatabaseService`` — because they are one code path: each
``Test…`` class builds its door through ``self.front`` and has a
``TestFacade…`` subclass that only swaps the builder."""

from __future__ import annotations

import threading
import time

import pytest

from repro.cancel import Deadline
from repro.core.schema import FunctionDef, ObjectType, TypeFunctionality
from repro.errors import (
    DeadlineExceeded,
    LockTimeout,
    PersistenceError,
    ServiceClosed,
    ServiceOverloaded,
    ServiceReadOnly,
)
from repro.faults import FAULTS, TransientError
from repro.fdb.logic import Truth
from repro.fdb.updates import Update, UpdateSequence
from repro.fdb.wal import UpdateLog
from repro.service import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    AdmissionGate,
    CircuitBreaker,
    DatabaseService,
    RetryPolicy,
    WRITE_RESOURCE,
)
from repro.shard import ShardedDatabaseService
from repro.workloads.university import pupil_database


@pytest.fixture(autouse=True)
def clean_registry():
    FAULTS.disarm_all()
    yield
    FAULTS.disarm_all()


class TestRetryPolicy:
    def test_non_retryable_propagates_immediately(self):
        calls = []

        def fn():
            calls.append(1)
            raise ValueError("nope")

        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=5).run(fn)
        assert len(calls) == 1

    def test_retryable_retries_until_success(self):
        calls = []

        def fn():
            calls.append(1)
            if len(calls) < 3:
                raise LockTimeout("busy")
            return "done"

        policy = RetryPolicy(max_attempts=5, base_delay=0.0, jitter=0.0)
        assert policy.run(fn) == "done"
        assert len(calls) == 3

    def test_attempts_exhausted_raises_last_error(self):
        calls = []

        def fn():
            calls.append(1)
            raise LockTimeout("busy")

        policy = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)
        with pytest.raises(LockTimeout):
            policy.run(fn)
        assert len(calls) == 3

    def test_on_retry_sees_each_failure(self):
        seen = []

        def fn():
            raise LockTimeout("busy")

        policy = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)
        with pytest.raises(LockTimeout):
            policy.run(fn, on_retry=lambda n, exc: seen.append(n))
        assert seen == [0, 1]

    def test_expired_deadline_stops_retries(self):
        calls = []

        def fn():
            calls.append(1)
            raise LockTimeout("busy")

        policy = RetryPolicy(max_attempts=5, base_delay=0.0, jitter=0.0)
        with pytest.raises(LockTimeout):
            policy.run(fn, deadline=Deadline(expires_at=0.0))
        assert len(calls) == 1

    def test_backoff_caps_and_jitters(self):
        import random

        policy = RetryPolicy(base_delay=0.01, max_delay=0.03,
                             jitter=0.005)
        assert policy.delay(0) == 0.01
        assert policy.delay(5) == 0.03  # capped
        rng = random.Random(7)
        jittered = policy.delay(0, rng)
        assert 0.01 <= jittered <= 0.015


class TestCircuitBreaker:
    def test_trips_after_threshold_and_fails_fast(self):
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout=60.0)
        for _ in range(3):
            breaker.allow()
            breaker.record_failure(OSError("disk gone"))
        assert breaker.state == OPEN
        assert breaker.trips == 1
        with pytest.raises(ServiceReadOnly):
            breaker.allow()

    def test_success_resets_failure_count(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure(OSError())
        breaker.record_success()
        breaker.record_failure(OSError())
        assert breaker.state == CLOSED

    def test_half_open_probe_closes_on_success(self):
        clock = [0.0]
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=1.0,
                                 clock=lambda: clock[0])
        breaker.record_failure(OSError())
        assert breaker.state == OPEN
        clock[0] = 2.0
        breaker.allow()  # probe admitted
        assert breaker.state == HALF_OPEN
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.resets == 1

    def test_half_open_probe_reopens_on_failure(self):
        clock = [0.0]
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=1.0,
                                 clock=lambda: clock[0])
        breaker.record_failure(OSError())
        clock[0] = 2.0
        breaker.allow()
        breaker.record_failure(OSError())
        assert breaker.state == OPEN
        assert breaker.trips == 2
        with pytest.raises(ServiceReadOnly):
            breaker.allow()

    def test_half_open_quota_bounds_probes(self):
        clock = [0.0]
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=1.0,
                                 clock=lambda: clock[0])
        breaker.record_failure(OSError())
        clock[0] = 2.0
        breaker.allow()  # the probe slot
        with pytest.raises(ServiceReadOnly):
            breaker.allow()
        breaker.release_probe()  # probe ended with no storage verdict
        breaker.allow()  # slot available again


class TestAdmissionGate:
    def test_sheds_when_queue_full(self):
        gate = AdmissionGate(max_concurrent=1, max_queue=0)
        gate.enter()
        with pytest.raises(ServiceOverloaded):
            gate.enter()
        assert gate.shed == 1
        gate.leave()
        gate.enter()  # slot free again

    def test_queued_request_sheds_on_timeout(self):
        gate = AdmissionGate(max_concurrent=1, max_queue=1,
                             queue_timeout=0.05)
        gate.enter()
        start = time.monotonic()
        with pytest.raises(ServiceOverloaded):
            gate.enter()
        assert time.monotonic() - start >= 0.05

    def test_queued_request_admitted_when_slot_frees(self):
        gate = AdmissionGate(max_concurrent=1, max_queue=1,
                             queue_timeout=5.0)
        gate.enter()
        admitted = threading.Event()

        def queued():
            gate.enter()
            admitted.set()
            gate.leave()

        worker = threading.Thread(target=queued)
        worker.start()
        try:
            time.sleep(0.05)
            gate.leave()
            assert admitted.wait(5.0)
        finally:
            worker.join(5.0)

    def test_closed_gate_rejects_and_wakes_queued(self):
        gate = AdmissionGate(max_concurrent=1, max_queue=1,
                             queue_timeout=5.0)
        gate.enter()
        failed = threading.Event()

        def queued():
            try:
                gate.enter()
            except ServiceClosed:
                failed.set()

        worker = threading.Thread(target=queued)
        worker.start()
        try:
            time.sleep(0.05)
            gate.close()
            assert failed.wait(5.0)
            with pytest.raises(ServiceClosed):
                gate.enter()
        finally:
            worker.join(5.0)

    def test_wait_idle_is_the_drain_barrier(self):
        gate = AdmissionGate(max_concurrent=2)
        gate.enter()
        assert not gate.wait_idle(timeout=0.05)
        gate.leave()
        assert gate.wait_idle(timeout=0.05)


def lane_of(front) -> DatabaseService:
    """The (one) lane behind either front door."""
    return front if isinstance(front, DatabaseService) else front.lane(0)


def two_cluster_database():
    """The pupil instance plus a lone base in a cluster of its own."""
    db = pupil_database()
    db.declare_base(FunctionDef("office", ObjectType("faculty"),
                                ObjectType("room"),
                                TypeFunctionality.MANY_MANY))
    return db


class LaneDoor:
    """Cases written against ``self.front(...)``: here a bare lane."""

    @staticmethod
    def front(closing, log_dir=None, factory=pupil_database, **kwargs):
        log = None if log_dir is None else log_dir / "shard-0.wal"
        return closing(DatabaseService(factory(), log=log, **kwargs))


class FacadeDoor:
    """The same cases through ``ShardedDatabaseService(..., shards=1)``."""

    @staticmethod
    def front(closing, log_dir=None, factory=pupil_database, **kwargs):
        return closing(ShardedDatabaseService(
            factory, 1, log_dir=log_dir, service_kwargs=kwargs))


class TestServiceBasics(LaneDoor):
    def test_write_then_read(self, closing, tmp_path):
        service = self.front(closing, tmp_path)
        service.insert("teach", "gauss", "cs")
        assert service.truth_of("teach", "gauss", "cs") is Truth.TRUE
        lane = lane_of(service)
        assert len(lane.committed_ops()) == 1
        assert lane.stats()["writes"] == 1
        assert lane.stats()["reads"] == 1

    def test_clusters_join_derived_and_bases(self, closing):
        lane = lane_of(self.front(closing))
        # pupil is derived from teach ∘ ... : same cluster.
        assert lane.cluster_of("pupil") == lane.cluster_of("teach")

    def test_write_resource_sorts_first(self, closing):
        lane = lane_of(self.front(closing))
        assert WRITE_RESOURCE < lane.cluster_of("teach")

    def test_sequence_is_atomic_through_service(self, closing, tmp_path):
        service = self.front(closing, tmp_path)
        service.execute(UpdateSequence((
            Update.ins("teach", "gauss", "cs"),
            Update.delete("teach", "euclid", "math"),
        )))
        assert service.truth_of("teach", "gauss", "cs") is Truth.TRUE
        assert service.truth_of("teach", "euclid", "math") is Truth.FALSE

    def test_undurable_service_rolls_back_failures(self, closing,
                                                   monkeypatch):
        from repro.fdb import updates as updates_module

        service = self.front(closing)
        lane = lane_of(service)
        real_apply = updates_module.apply_update
        calls = []

        def failing_apply(target, update):
            calls.append(update)
            if len(calls) == 2:
                raise RuntimeError("boom mid-sequence")
            return real_apply(target, update)

        monkeypatch.setattr(updates_module, "apply_update",
                            failing_apply)
        with pytest.raises(RuntimeError):
            service.execute(UpdateSequence((
                Update.ins("teach", "gauss", "cs"),
                Update.ins("teach", "noether", "algebra"),
            )))
        # The first insert of the sequence was rolled back.
        assert lane.db.truth_of("teach", "gauss", "cs") is Truth.FALSE
        assert lane.committed_ops() == ()

    def test_read_modify_write_applies_built_update(self, closing,
                                                    tmp_path):
        service = self.front(closing, tmp_path)

        def build(db):
            pairs = sorted(db.table("teach").pairs())
            x, y = pairs[0]
            return Update.rep("teach", (x, y), (x, "revised"))

        applied = service.read_modify_write(("teach",), build)
        assert applied is not None
        x = sorted(lane_of(service).db.table("teach").pairs())[0][0]
        assert service.truth_of("teach", x, "revised") is Truth.TRUE

    def test_read_modify_write_decline(self, closing):
        service = self.front(closing)
        assert service.read_modify_write(("teach",),
                                         lambda db: None) is None
        assert lane_of(service).committed_ops() == ()

    def test_drain_then_closed(self, closing):
        service = self.front(closing)
        assert service.drain() is True
        assert lane_of(service).closed
        with pytest.raises(ServiceClosed):
            service.insert("teach", "gauss", "cs")
        with pytest.raises(ServiceClosed):
            service.truth_of("teach", "euclid", "math")
        assert service.health()["healthy"] is False


class TestFacadeBasics(FacadeDoor, TestServiceBasics):
    pass


class TestServiceDeadlines(LaneDoor):
    def test_expired_deadline_cancels_write_cleanly(self, closing,
                                                    tmp_path):
        service = self.front(closing, tmp_path)
        lane = lane_of(service)
        with pytest.raises(DeadlineExceeded):
            service.insert("teach", "gauss", "cs",
                           deadline=Deadline(expires_at=0.0))
        # Nothing was applied and nothing was logged.
        assert lane.db.truth_of("teach", "gauss", "cs") is Truth.FALSE
        assert len(UpdateLog(tmp_path / "shard-0.wal")) == 0
        assert lane.committed_ops() == ()
        # The service is healthy afterwards.
        service.insert("teach", "gauss", "cs")
        assert lane.db.truth_of("teach", "gauss", "cs") is Truth.TRUE

    def test_expired_deadline_cancels_read(self, closing):
        service = self.front(closing)
        with pytest.raises(DeadlineExceeded):
            # 'pupil' is derived: its extension enumerates chains,
            # which is where the cancellation checkpoints live.
            service.extension("pupil", deadline=Deadline(expires_at=0.0))


class TestFacadeDeadlines(FacadeDoor, TestServiceDeadlines):
    pass


class TestServiceReadOnlyMode(LaneDoor):
    def test_breaker_trips_to_read_only_and_recovers(self, closing,
                                                     tmp_path):
        service = self.front(
            closing, tmp_path,
            breaker=CircuitBreaker(failure_threshold=2,
                                   reset_timeout=0.05),
        )
        breaker = lane_of(service).breaker
        FAULTS.arm("wal.append.before", TransientError(times=10 ** 6))
        for _ in range(2):
            with pytest.raises(PersistenceError):
                service.insert("teach", "gauss", "cs")
        assert breaker.state == OPEN
        assert service.health()["healthy"] is False
        # Writes now fail fast...
        with pytest.raises(ServiceReadOnly):
            service.insert("teach", "gauss", "cs")
        # ...while reads keep flowing.
        assert service.truth_of("teach", "euclid", "math") is Truth.TRUE
        # Storage heals; after the reset timeout a probe closes it.
        FAULTS.disarm_all()
        time.sleep(0.1)
        service.insert("teach", "gauss", "cs")
        assert breaker.state == CLOSED
        assert breaker.resets == 1
        assert service.truth_of("teach", "gauss", "cs") is Truth.TRUE


    def test_storage_error_is_retried_by_the_log_alone(self, closing,
                                                       tmp_path,
                                                       monkeypatch):
        """One failed write is one log retry loop (4 writes) and one
        breaker failure: the request does not retry what the log
        already retried, so no backoff repeats under the token."""
        service = self.front(closing, tmp_path)
        lane = lane_of(service)
        failures = []
        record_failure = lane.breaker.record_failure
        monkeypatch.setattr(lane.breaker, "record_failure",
                            lambda exc=None: (failures.append(exc),
                                              record_failure(exc)))
        fault = TransientError(times=10 ** 6)
        FAULTS.arm("wal.append.before", fault)
        with pytest.raises(PersistenceError):
            service.insert("teach", "gauss", "cs")
        assert fault.times - fault.remaining == 4
        assert lane.stats()["retries"] == 0
        assert len(failures) == 1
        assert lane.breaker.state == CLOSED


class TestFacadeReadOnlyMode(FacadeDoor, TestServiceReadOnlyMode):
    pass


class TestServiceConcurrency(LaneDoor):
    def test_shedding_through_the_facade(self, closing):
        service = self.front(closing, max_concurrent=1, max_queue=0)
        inside = threading.Event()
        release = threading.Event()

        def slow_read(db):
            inside.set()
            release.wait(5.0)
            return None

        worker = threading.Thread(
            target=lambda: service.read(("teach",), slow_read))
        worker.start()
        try:
            assert inside.wait(5.0)
            with pytest.raises(ServiceOverloaded):
                service.truth_of("teach", "euclid", "math")
        finally:
            release.set()
            worker.join(5.0)
        assert lane_of(service).stats()["shed"] == 1

    def test_concurrent_readers_of_one_cluster(self, closing):
        service = self.front(closing, max_concurrent=4)
        barrier = threading.Barrier(3, timeout=5.0)
        results = []
        lock = threading.Lock()

        def read(db):
            barrier.wait()  # proves all three are inside together
            return db.truth_of("teach", "euclid", "math")

        def worker():
            value = service.read(("teach",), read)
            with lock:
                results.append(value)

        pool = [threading.Thread(target=worker) for _ in range(3)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(5.0)
        assert results == [Truth.TRUE] * 3

    def test_concurrent_rmws_on_one_cluster_never_overlap(self, closing,
                                                         tmp_path):
        """N read-modify-writes of one cluster: each build runs under
        the exclusive hold its write commits under, so builds never
        overlap, nothing retries and no increment is lost."""
        n = 4
        service = self.front(closing, tmp_path, lock_timeout=5.0)
        service.insert("teach", "tally", "0")
        lock = threading.Condition()
        active, peak, errors = [0], [0], []

        def build(db):
            with lock:
                active[0] += 1
                peak[0] = max(peak[0], active[0])
                lock.notify_all()
                # Give a second build the chance to overlap this one.
                lock.wait_for(lambda: active[0] > 1, timeout=0.05)
                active[0] -= 1
            (count,) = [int(y) for x, y in db.table("teach").pairs()
                        if x == "tally"]
            return Update.rep("teach", ("tally", str(count)),
                              ("tally", str(count + 1)))

        def worker():
            try:
                service.read_modify_write(("teach",), build)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        pool = [threading.Thread(target=worker) for _ in range(n)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(10.0)
        assert peak[0] == 1
        assert errors == []
        lane = lane_of(service)
        assert lane.stats()["retries"] == 0
        assert len(lane.committed_ops()) == 1 + n
        assert service.truth_of("teach", "tally", str(n)) is Truth.TRUE

    def test_escaping_rmw_commits_through_the_widened_set(self, closing):
        service = self.front(closing, factory=two_cluster_database)
        lane = lane_of(service)
        assert lane.cluster_of("office") != lane.cluster_of("teach")
        held_during_build = []

        def build(db):
            held_during_build.append(
                lane.locks.holders(lane.cluster_of("office"))["exclusive"])
            return Update.ins("office", "euclid", "r1")

        applied = service.read_modify_write(("teach",), build)
        assert applied == Update.ins("office", "euclid", "r1")
        # First pass over teach's cluster alone, then over both.
        assert [bool(h) for h in held_during_build] == [False, True]
        assert lane.committed_ops() == (applied,)
        assert service.truth_of("office", "euclid", "r1") is Truth.TRUE

    def test_noop_rmw_under_open_breaker_is_read_only(self, closing,
                                                     tmp_path):
        """The breaker is passed before the read: an open one refuses
        even an rmw whose build would have declined."""
        service = self.front(
            closing, tmp_path,
            breaker=CircuitBreaker(failure_threshold=1,
                                   reset_timeout=60.0),
        )
        lane_of(service).breaker.record_failure(OSError("disk gone"))
        builds = []
        with pytest.raises(ServiceReadOnly):
            service.read_modify_write(("teach",),
                                      lambda db: builds.append(db))
        assert builds == []


class TestFacadeConcurrency(FacadeDoor, TestServiceConcurrency):
    pass


class TestClusterMapCache:
    """The function -> cluster map is schema metadata: it must be
    rebuilt only when a declaration moves ``db.schema_version``, never
    on an unknown-name probe (which used to re-run the union-find on
    every miss)."""

    def test_unknown_probe_does_not_recluster(self, monkeypatch):
        import repro.service.service as service_module

        service = DatabaseService(pupil_database())
        calls = []
        real = service_module.clusters_of

        def counting(db):
            calls.append(1)
            return real(db)

        monkeypatch.setattr(service_module, "clusters_of", counting)
        try:
            for _ in range(5):
                with pytest.raises(KeyError):
                    service.cluster_of("no_such_function")
            assert calls == []  # misses never rebuild
            service.cluster_of("teach")
            assert calls == []  # hits ride the cache too
        finally:
            service.close()

    def test_declaration_rebuilds_once(self, monkeypatch):
        from repro.core.schema import (
            FunctionDef,
            ObjectType,
            TypeFunctionality,
        )
        import repro.service.service as service_module

        service = DatabaseService(pupil_database())
        calls = []
        real = service_module.clusters_of

        def counting(db):
            calls.append(1)
            return real(db)

        monkeypatch.setattr(service_module, "clusters_of", counting)
        try:
            service.db.declare_base(FunctionDef(
                "late_fn", ObjectType("L0"), ObjectType("L1"),
                TypeFunctionality.MANY_MANY,
            ))
            assert service.cluster_of("late_fn") == "fn:late_fn"
            assert len(calls) == 1  # the version bump: one rebuild
            service.cluster_of("late_fn")
            service.cluster_of("teach")
            assert len(calls) == 1  # and only one
        finally:
            service.close()
