"""Lease-based leadership: the timing contract, the quorum-renewed
lease, failure detection, the coordinator's election rules, the
self-demotion/fence interplay, clock-skew and heartbeat-drop fault
injection, transport timeouts, manual promotion, and the observability
surfaces.
"""

from __future__ import annotations

import time
from types import SimpleNamespace

import pytest

from repro.errors import (
    LeaseExpired,
    ServiceReadOnly,
    StalePrimary,
)
from repro.faults.registry import (
    FAULTS,
    ClockSkewFault,
    HeartbeatDropFault,
)
from repro.fdb import persistence
from repro.fdb.updates import Update
from repro.fdb.wal import LoggedDatabase
from repro.obs import OBS, RingBufferSink, fence_violations
from repro.replication import (
    CommitMode,
    FailoverCoordinator,
    FailureDetector,
    LeaseClock,
    LeaseConfig,
    LeaseManager,
    Replica,
    ReplicationGroup,
)
from repro.service import DatabaseService
from repro.workloads.university import pupil_database


def _scrub():
    OBS.disable()
    OBS.reset()
    OBS.metrics.clear()
    OBS.events.clear_sinks()


@pytest.fixture(autouse=True)
def clean_faults():
    FAULTS.disarm_all()
    _scrub()
    yield
    FAULTS.disarm_all()
    _scrub()


class _Ticker:
    """A hand-cranked clock."""

    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def stack(tmp_path, closing):
    """Builder for a leased primary with in-process replicas; the log
    and the group it builds are closed when the test ends."""

    def build(cfg: LeaseConfig, replicas: int = 2, *,
              mode: str = "sync(1)", clock=None):
        workdir = tmp_path / "primary"
        workdir.mkdir(exist_ok=True)
        db = pupil_database()
        persistence.save(db, workdir / "snapshot.json", wal_applied=0)
        logged = closing(LoggedDatabase(db, workdir / "wal.log"))
        group = closing(ReplicationGroup(mode, ack_timeout=1.0,
                                         retry_interval=0.005))
        lease = group.enable_lease(cfg, clock=clock)
        term = group.attach_primary(logged, node="primary")
        for i in range(replicas):
            replica = Replica(f"r{i}", tmp_path / f"r{i}")
            group.add_replica(replica.name, replica)
        return db, logged, group, lease, term

    return build


class TestLeaseConfig:
    def test_windows(self):
        cfg = LeaseConfig(duration=1.0, margin=0.2,
                          renew_interval=0.2)
        assert cfg.primary_validity == pytest.approx(0.8)
        assert cfg.detector_horizon == pytest.approx(1.4)

    def test_rejects_degenerate_margins(self):
        with pytest.raises(ValueError):
            LeaseConfig(duration=0.0)
        with pytest.raises(ValueError):
            LeaseConfig(duration=1.0, margin=0.5)
        with pytest.raises(ValueError):
            LeaseConfig(duration=1.0, margin=0.1,
                        renew_interval=0.95)
        with pytest.raises(ValueError):
            LeaseConfig(margin=-0.1)

    @pytest.mark.parametrize("interval", [0.0, -0.1])
    @pytest.mark.parametrize("field", ["renew_interval", "check_interval"])
    def test_rejects_intervals_that_would_spin(self, field, interval):
        # Event.wait(<= 0) returns at once: the renewer and the
        # coordinator's watch loop would busy-loop.
        with pytest.raises(ValueError, match=field):
            LeaseConfig(**{field: interval})


class TestLeaseExpiredType:
    def test_is_both_stale_primary_and_read_only(self):
        exc = LeaseExpired(3, 1.5, 1.0)
        assert isinstance(exc, StalePrimary)
        assert isinstance(exc, ServiceReadOnly)
        assert exc.writer_term == 3
        assert "lease expired" in str(exc)


class TestLeaseManager:
    def test_grant_then_quorum_renewal(self, tmp_path, stack):
        clock = _Ticker()
        cfg = LeaseConfig(duration=1.0, margin=0.1,
                          renew_interval=0.2)
        _, _, group, lease, term = stack(cfg, clock=clock)
        assert lease.held()
        # k = (2 + 1) // 2 = 1 renewal vote needed beyond the grant.
        assert lease.needed_acks() == 1
        clock.now = 0.8
        assert lease.held()  # still inside validity from the grant
        clock.now = 1.0
        assert not lease.held()
        with pytest.raises(LeaseExpired):
            lease.check()
        # A dedicated heartbeat round recovers it under the same term.
        assert lease.renew_once() == 2
        assert lease.held()
        lease.check()
        assert group.term == term

    def test_beats_are_status_polls_through_the_shipper(
            self, tmp_path, stack):
        """A renewal beat is the shipper's status poll: the same
        lease-stamped frame, and the vote is counted by the exchange."""
        clock = _Ticker()
        cfg = LeaseConfig(duration=1.0, margin=0.1,
                          renew_interval=0.2)
        _, _, group, lease, _ = stack(cfg, clock=clock)

        class Recording:
            def __init__(self, inner):
                self.inner, self.sent = inner, []

            def request(self, message):
                self.sent.append(message)
                return self.inner.request(message)

        links = group.shipper.links()
        for link in links:
            link.transport = Recording(link.transport)
        clock.now = 0.5
        assert lease.renew_once() == 2
        beats = [link.transport.sent.pop() for link in links]
        assert all(not link.transport.sent for link in links)
        for link in links:
            assert group.shipper.poll_status(link) is not None
        assert beats == [link.transport.sent.pop() for link in links]
        assert beats[0] == {"type": "status",
                            "lease": lease.heartbeat_frame()}
        assert lease.watermark() == 0.5

    def test_remaining_and_status(self, tmp_path, stack):
        clock = _Ticker()
        cfg = LeaseConfig(duration=1.0, margin=0.1,
                          renew_interval=0.2)
        _, _, group, lease, _ = stack(cfg, clock=clock)
        assert lease.remaining() == pytest.approx(0.9)
        status = lease.status()
        assert status["held"] is True
        assert status["needed_acks"] == 1
        assert status["duration"] == 1.0
        health = group.health()
        assert health["lease"]["held"] is True

    def test_votes_are_request_start_stamped(self, tmp_path, stack):
        """A slow round-trip must shorten the lease, not stretch it:
        the vote is timestamped before the request went out."""
        clock = _Ticker()
        cfg = LeaseConfig(duration=1.0, margin=0.1,
                          renew_interval=0.2)
        _, _, group, lease, _ = stack(cfg, clock=clock)
        clock.now = 0.5
        lease.note_ack("r0", started=0.2)
        # Watermark floors at the grant until the quorum vote, then
        # follows the vote's *start* stamp, never the reply instant.
        assert lease.remaining() == pytest.approx(0.6)

    def test_solo_primary_never_demotes(self, tmp_path, stack):
        clock = _Ticker()
        cfg = LeaseConfig(duration=1.0, margin=0.1,
                          renew_interval=0.2)
        _, _, group, lease, _ = stack(cfg, replicas=0, clock=clock)
        assert lease.needed_acks() == 0
        clock.now = 1e6
        assert lease.held()
        lease.check()

    def test_revoked_by_promotion(self, tmp_path, stack):
        cfg = LeaseConfig(duration=1.0, margin=0.1,
                          renew_interval=0.2)
        _, logged, group, lease, term = stack(cfg)
        seq = logged.execute(Update.ins("teach", "gauss", "cs"))
        group.on_commit(seq)
        group.promote()
        assert not lease.held()
        assert group.leaderless()
        with pytest.raises(StalePrimary):
            group.check_primary(term)


def test_lease_and_quorum_commits_count_one_majority():
    """A renewal needs the votes a ``quorum`` commit needs acks: a
    majority of the whole group, the primary's own vote included."""
    for n in range(8):
        shipper = SimpleNamespace(links=lambda n=n: [f"r{i}"
                                                     for i in range(n)])
        group = SimpleNamespace(shipper=shipper, primary_name="primary")
        lease = LeaseManager(group, clock=_Ticker())
        assert lease.needed_acks() \
            == CommitMode.parse("quorum").required_acks(n) \
            == (n + 1) // 2


class TestFailureDetector:
    def test_expiry_and_reset(self):
        clock = _Ticker()
        cfg = LeaseConfig(duration=1.0, margin=0.1,
                          renew_interval=0.2)
        det = FailureDetector("r0", cfg, clock=clock)
        assert not det.expired()
        clock.now = cfg.detector_horizon + 0.01
        assert det.expired()
        det.reset()
        assert not det.expired()

    def test_stale_term_beats_do_not_postpone(self):
        clock = _Ticker()
        cfg = LeaseConfig(duration=1.0, margin=0.1,
                          renew_interval=0.2)
        det = FailureDetector("r0", cfg, clock=clock)
        det.observe({"node": "primary", "term": 3})
        clock.now = cfg.detector_horizon + 0.01
        det.observe({"node": "deposed", "term": 2})  # stale: ignored
        assert det.expired()
        det.observe({"node": "new-primary", "term": 4})
        assert not det.expired()

    def test_replica_feeds_attached_detector(self, tmp_path, stack):
        cfg = LeaseConfig(duration=1.0, margin=0.1,
                          renew_interval=0.2)
        _, logged, group, lease, _ = stack(cfg)
        replica = group.replica("r0")
        clock = _Ticker()
        det = FailureDetector("r0", cfg, clock=clock)
        replica.failure_detector = det
        clock.now = cfg.detector_horizon + 1
        assert det.expired()
        seq = logged.execute(Update.ins("teach", "gauss", "cs"))
        group.on_commit(seq)  # the shipped frame carries the beat
        assert not det.expired()


class TestElectionRules:
    def test_quotas(self, tmp_path, stack):
        cfg = LeaseConfig(duration=1.0, margin=0.1,
                          renew_interval=0.2)
        _, _, group, _, _ = stack(cfg, replicas=3)
        coord = FailoverCoordinator(group, cfg)
        for name in ("r0", "r1", "r2"):
            coord.watch(group.replica(name))
        # Majority of the 4-member group (3 replicas + primary).
        assert coord.votes_needed() == 3
        # sync(1): any single replica may hold the only ack.
        assert coord.candidates_needed() == 3

    def test_async_mode_needs_single_candidate(self, tmp_path, stack):
        cfg = LeaseConfig(duration=1.0, margin=0.1,
                          renew_interval=0.2)
        _, _, group, _, _ = stack(cfg, replicas=3, mode="async")
        coord = FailoverCoordinator(group, cfg)
        for name in ("r0", "r1", "r2"):
            coord.watch(group.replica(name))
        assert coord.candidates_needed() == 1

    def test_two_node_groups_never_self_elect(self, tmp_path, stack):
        cfg = LeaseConfig(duration=1.0, margin=0.1,
                          renew_interval=0.2)
        clock = _Ticker()
        _, _, group, _, _ = stack(cfg, replicas=1)
        coord = FailoverCoordinator(group, cfg, clock=clock)
        det_clock = _Ticker()
        coord.watch(group.replica("r0"), clock=det_clock)
        # One replica + one primary: a majority of 2 is 2, and the
        # dead primary cannot vote — Raft-style, no auto failover.
        assert coord.votes_needed() == 2
        det_clock.now = cfg.detector_horizon + 10
        assert coord.tick() is None

    def test_deterministic_winner(self, tmp_path, stack):
        """Max applied_seq wins; lexicographically smallest name
        breaks ties."""
        cfg = LeaseConfig(duration=1.0, margin=0.1,
                          renew_interval=0.2)
        _, logged, group, _, _ = stack(cfg, replicas=3)
        seq = logged.execute(Update.ins("teach", "gauss", "cs"))
        group.on_commit(seq)  # all three replicas apply it
        coord = FailoverCoordinator(group, cfg)
        clocks = {}
        for name in ("r0", "r1", "r2"):
            clocks[name] = _Ticker()
            coord.watch(group.replica(name), clock=clocks[name])
        for clock in clocks.values():
            clock.now = cfg.detector_horizon + 1
        report = coord.tick()
        assert report is not None
        assert report.chosen == "r0"  # tie on applied_seq: min name
        assert report.applied_seq == seq
        # Never stack a second election on the unconsumed term.
        for clock in clocks.values():
            clock.now += 100
        assert coord.tick() is None

    def test_election_blocked_below_candidate_quota(self, tmp_path, stack):
        cfg = LeaseConfig(duration=1.0, margin=0.1,
                          renew_interval=0.2)
        _, _, group, _, _ = stack(cfg, replicas=3)
        coord = FailoverCoordinator(group, cfg)
        clocks = {}
        for name in ("r0", "r1", "r2"):
            clocks[name] = _Ticker()
            coord.watch(group.replica(name), clock=clocks[name])
        group.replica("r0").crash()
        for clock in clocks.values():
            clock.now = cfg.detector_horizon + 1
        # sync(1) needs all 3 candidates; a crashed one blocks the
        # election rather than risking the acked prefix.
        assert coord.tick() is None
        group.replica("r0").restart()
        assert coord.tick() is not None


class TestFaults:
    def test_clock_skew_fault_offsets_one_node(self):
        FAULTS.arm("repl.lease.clock",
                   ClockSkewFault(offsets={"r0": 5.0}))
        base = _Ticker(100.0)
        skewed = LeaseClock("r0", base=base)
        straight = LeaseClock("r1", base=base)
        assert skewed() == pytest.approx(105.0)
        assert straight() == pytest.approx(100.0)

    def test_heartbeat_drop_fault(self, tmp_path, stack):
        cfg = LeaseConfig(duration=1.0, margin=0.1,
                          renew_interval=0.2)
        _, _, group, lease, _ = stack(cfg)
        FAULTS.arm("repl.lease.heartbeat", HeartbeatDropFault(rate=1.0))
        assert lease.renew_once() == 0
        FAULTS.disarm("repl.lease.heartbeat")
        # Bounded drops: the first round loses both links' beats, the
        # next succeeds.
        fault = HeartbeatDropFault(rate=1.0, times=2)
        FAULTS.arm("repl.lease.heartbeat", fault)
        assert lease.renew_once() == 0
        assert lease.renew_once() == 2
        assert fault.dropped == 2

    def test_heartbeat_drop_validates_rate(self):
        with pytest.raises(ValueError):
            HeartbeatDropFault(rate=1.5)


class TestTransportTimeouts:
    def test_timeout_counts_toward_failure_detection(self, tmp_path, stack):
        """A recv timeout on a shipping exchange is a missed renewal:
        the lease must lapse if every exchange times out."""
        clock = _Ticker()
        cfg = LeaseConfig(duration=1.0, margin=0.1,
                          renew_interval=0.2)
        _, _, group, lease, _ = stack(cfg, replicas=0, clock=clock)

        class _BlackHole:
            name = "hole"
            partitioned = False

            def request(self, message):
                raise TimeoutError("exchange with hole timed out")

        group.shipper.add("hole", _BlackHole())
        assert lease.needed_acks() == 1
        assert lease.renew_once() == 0
        clock.now = cfg.primary_validity + 0.01
        assert not lease.held()
        with pytest.raises(LeaseExpired):
            lease.check()


class TestServiceIntegration:
    def _service(self, tmp_path, cfg, closing):
        workdir = tmp_path / "primary"
        workdir.mkdir()
        db = pupil_database()
        persistence.save(db, workdir / "snapshot.json", wal_applied=0)
        group = closing(ReplicationGroup("sync(1)", ack_timeout=0.2,
                                         retry_interval=0.005))
        lease = group.enable_lease(cfg)
        service = DatabaseService(db, log=workdir / "wal.log",
                                  replication=group, node="primary")
        for i in range(2):
            replica = Replica(f"r{i}", tmp_path / f"r{i}")
            group.add_replica(replica.name, replica)
        return service, group, lease

    def test_writes_fail_fast_and_health_degrades(self, tmp_path,
                                                   closing):
        cfg = LeaseConfig(duration=0.3, margin=0.05,
                          renew_interval=0.05)
        service, group, lease = self._service(tmp_path, cfg, closing)
        try:
            service.insert("teach", "gauss", "cs", deadline=5.0)
            assert service.health()["leaderless"] is False
            for link in group.shipper.links():
                link.transport.partitioned = True
            deadline = time.monotonic() + 3.0
            while lease.held() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not lease.held()
            with pytest.raises(ServiceReadOnly):
                service.insert("teach", "noether", "algebra",
                               deadline=5.0)
            verdict = service.health()
            assert verdict["leaderless"] is True
            assert verdict["healthy"] is False
        finally:
            service.close(timeout=5.0)

    def test_health_recovers_with_quorum(self, tmp_path, closing):
        cfg = LeaseConfig(duration=0.3, margin=0.05,
                          renew_interval=0.05)
        service, group, lease = self._service(tmp_path, cfg, closing)
        try:
            for link in group.shipper.links():
                link.transport.partitioned = True
            deadline = time.monotonic() + 3.0
            while lease.held() and time.monotonic() < deadline:
                time.sleep(0.01)
            for link in group.shipper.links():
                link.transport.partitioned = False
            lease.renew_once()
            assert lease.held()
            service.insert("teach", "gauss", "cs", deadline=5.0)
            assert service.health()["healthy"] is True
        finally:
            service.close(timeout=5.0)


class TestManualPromote:
    def test_manual_promote_leaves_a_leased_group_leaderless(
            self, tmp_path, stack):
        cfg = LeaseConfig(duration=1.0, margin=0.1,
                          renew_interval=0.2)
        _, logged, group, lease, term = stack(cfg)
        seq = logged.execute(Update.ins("teach", "gauss", "cs"))
        group.on_commit(seq)
        report = group.promote("r1")
        assert report.chosen == "r1"
        assert report.new_term > term
        assert group.lease is not None  # automatic elections stay armed
        assert group.leaderless()  # until the new primary attaches


class TestObservabilitySurfaces:
    def test_gauges_and_timeline_show_lease_lifecycle(self, tmp_path, stack):
        sink = OBS.events.add_sink(RingBufferSink(capacity=4096))
        OBS.enable()
        clock = _Ticker()
        cfg = LeaseConfig(duration=1.0, margin=0.1,
                          renew_interval=0.2)
        _, logged, group, lease, term = stack(cfg, clock=clock)
        lease.renew_once()
        clock.now = 2.0
        with pytest.raises(LeaseExpired):
            group.check_primary(term)
        coord = FailoverCoordinator(group, cfg)
        det_clock = _Ticker()
        for name in ("r0", "r1"):
            coord.watch(group.replica(name), clock=det_clock)
        det_clock.now = cfg.detector_horizon + 1
        report = coord.tick()
        assert report is not None

        metrics = OBS.metrics.snapshot()
        assert metrics["gauges"]["replication.lease.held"] == 0
        assert metrics["counters"]["replication.lease.expiries"] == 1
        assert metrics["counters"]["replication.elections"] == 1

        records = list(sink.records)
        names = {record.name for record in records
                 if record.kind == "action"}
        assert {"replication.lease_granted", "replication.lease_renewed",
                "replication.lease_expired",
                "replication.elected"} <= names
        assert not fence_violations(records)
