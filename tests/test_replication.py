"""Tests for WAL-shipping replication: roles, commit modes, fencing,
failover, rejoin repair, transports and bounded-staleness reads."""

from __future__ import annotations

import json
import time

import pytest

from repro.errors import (
    ReplicaDiverged,
    ReplicationError,
    ReplicationTimeout,
    StalenessUnserved,
    StalePrimary,
)
from repro.fdb import persistence
from repro.fdb.logic import Truth
from repro.fdb.updates import Update
from repro.obs import OBS, RingBufferSink
from repro.fdb.wal import (
    LoggedDatabase,
    RecoveryReport,
    checkpoint,
)
from repro.replication import (
    CatchUpReport,
    CommitMode,
    InProcessTransport,
    PromotionReport,
    RejoinReport,
    Replica,
    ReplicationGroup,
    SnapshotNeeded,
    WalShipper,
)
from repro.service import DatabaseService
from repro.workloads.university import pupil_database, section_42_updates


@pytest.fixture
def primary(tmp_path):
    """A pupil-database primary with the replica file layout."""
    workdir = tmp_path / "primary"
    workdir.mkdir()
    db = pupil_database()
    persistence.save(db, workdir / "snapshot.json", wal_applied=0)
    logged = LoggedDatabase(db, workdir / "wal.log")
    yield logged, workdir
    logged.close()


@pytest.fixture
def make_group(closing):
    """Builder for a fast-retrying group; closing it at the end of the
    test shuts down the replicas added to it."""

    def build(mode="sync(1)", **kwargs):
        kwargs.setdefault("ack_timeout", 1.0)
        kwargs.setdefault("retry_interval", 0.005)
        return closing(ReplicationGroup(mode, **kwargs))

    return build


class TestCommitMode:
    def test_parse(self):
        assert CommitMode.parse("async").kind == "async"
        assert CommitMode.parse("quorum").kind == "quorum"
        mode = CommitMode.parse("sync(2)")
        assert (mode.kind, mode.k) == ("sync", 2)
        assert str(mode) == "sync(2)"

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            CommitMode.parse("sync(0)")
        with pytest.raises(ValueError):
            CommitMode.parse("majority")

    def test_required_acks(self):
        assert CommitMode.parse("async").required_acks(3) == 0
        assert CommitMode.parse("sync(2)").required_acks(3) == 2
        # quorum: majority of the whole group (primary + replicas),
        # with the primary's own durable copy counting as one vote
        assert CommitMode.parse("quorum").required_acks(1) == 1
        assert CommitMode.parse("quorum").required_acks(2) == 1
        assert CommitMode.parse("quorum").required_acks(4) == 2


class TestReplicaApply:
    def test_bootstrap_and_delta_apply(self, primary, tmp_path, make_group):
        logged, _ = primary
        group = make_group()
        term = group.attach_primary(logged)
        assert term == 1
        replica = Replica("r0", tmp_path / "r0")
        report = group.add_replica("r0", replica)
        assert report.mode == "snapshot"
        seq = logged.execute(Update.ins("teach", "gauss", "cs"))
        group.on_commit(seq)
        assert replica.applied_seq == seq
        assert replica.db.truth_of("teach", "gauss", "cs") is Truth.TRUE
        # the replica's log is a prefix copy of the primary's stream
        assert replica.wal_path.exists()

    def test_reshipment_is_idempotent(self, primary, tmp_path, make_group):
        logged, _ = primary
        group = make_group()
        group.attach_primary(logged)
        replica = Replica("r0", tmp_path / "r0")
        group.add_replica("r0", replica)
        seq = logged.execute(Update.ins("teach", "gauss", "cs"))
        group.on_commit(seq)
        # Simulate a lost ack: rewind the link and ship again.
        link = group.shipper.link("r0")
        link.acked_seq = 0
        group.shipper.ship(link, seq)
        assert replica.applied_seq == seq
        pairs = list(replica.db.table("teach").pairs())
        assert pairs.count(("gauss", "cs")) == 1

    def test_true_gap_errors(self, primary, tmp_path, make_group):
        logged, _ = primary
        group = make_group()
        group.attach_primary(logged)
        replica = Replica("r0", tmp_path / "r0")
        group.add_replica("r0", replica)
        seqs = []
        for update in section_42_updates()[:3]:
            seqs.append(logged.execute(update))
            group.on_commit(seqs[-1])
        tail = logged.log.records_between(2, 3)
        replica.applied_seq = 0  # pretend records 1..2 never arrived
        reply = replica.handle({
            "type": "append", "term": group.term,
            "records": [line for _, line in tail],
            "through_seq": 3,
        })
        assert reply == {"ok": False, "error": "gap", "applied_seq": 0}

    def test_checksum_tampering_is_refused(
            self, primary, tmp_path, make_group):
        logged, _ = primary
        group = make_group()
        group.attach_primary(logged)
        replica = Replica("r0", tmp_path / "r0")
        group.add_replica("r0", replica)
        seq = logged.execute(Update.ins("teach", "gauss", "cs"))
        (record_seq, line), = logged.log.records_between(0, seq)
        raw = json.loads(line)
        raw["seq"] = record_seq + 7  # bits flipped in flight
        reply = replica.handle({
            "type": "append", "term": group.term,
            "records": [json.dumps(raw)], "through_seq": record_seq + 7,
        })
        assert not reply["ok"]
        assert "bad-record" in reply["error"]

    def test_ack_never_passes_the_last_record_held(
            self, primary, tmp_path, make_group):
        """The high-water mark is the sender's claim, not evidence:
        ``applied_seq`` follows the frames this copy holds — through a
        trailing abort, which applies nothing — and a mark beyond them
        is refused (promotion picks the highest ``applied_seq``)."""
        from repro.faults import FAULTS, ErrorFault

        logged, _ = primary
        group = make_group()
        group.attach_primary(logged)
        replica = Replica("r0", tmp_path / "r0")
        group.add_replica("r0", replica)
        reply = replica.handle({"type": "append", "term": group.term,
                                "records": [], "through_seq": 10**6})
        assert not reply["ok"] and "bad-record" in reply["error"]
        assert replica.status()["applied_seq"] == 0

        logged.execute(Update.ins("teach", "gauss", "cs"))
        FAULTS.arm("wal.apply.before", ErrorFault(times=1))
        try:
            with pytest.raises(RuntimeError):
                logged.execute(Update.ins("teach", "noether", "algebra"))
        finally:
            FAULTS.disarm_all()
        lines = [line for _, line in logged.log.records_between(0, 3)]
        reply = replica.handle({"type": "append", "term": group.term,
                                "records": lines, "through_seq": 4})
        assert "bad-record" in reply["error"]
        assert replica.applied_seq == 0
        assert replica.log.health()["entries"] == 0
        # No mark at all: the ack still covers entry, entry, abort.
        reply = replica.handle({"type": "append", "term": group.term,
                                "records": lines})
        assert reply["ok"] and reply["applied_seq"] == 3
        assert replica.db.truth_of(
            "teach", "noether", "algebra") is Truth.FALSE
        # A lost-ack re-shipment of what it already holds still acks.
        reply = replica.handle({"type": "append", "term": group.term,
                                "records": lines, "through_seq": 3})
        assert reply["ok"] and reply["applied_seq"] == 3

    def test_stale_term_refused_by_replica(
            self, primary, tmp_path, make_group):
        logged, _ = primary
        group = make_group()
        group.attach_primary(logged)
        replica = Replica("r0", tmp_path / "r0")
        group.add_replica("r0", replica)
        replica.term = 5
        reply = replica.handle({
            "type": "append", "term": 4, "records": [],
            "through_seq": 0,
        })
        assert reply["error"] == "stale-term"
        assert reply["term"] == 5

    def test_crash_restart_resumes_from_disk(
            self, primary, tmp_path, make_group):
        logged, _ = primary
        group = make_group()
        group.attach_primary(logged)
        replica = Replica("r0", tmp_path / "r0")
        group.add_replica("r0", replica)
        seqs = [logged.execute(u) for u in section_42_updates()[:4]]
        for seq in seqs:
            group.on_commit(seq)
        replica.crash()
        with pytest.raises(ConnectionError):
            replica.handle({"type": "status"})
        replica.restart()
        assert replica.applied_seq == seqs[-1]
        seq = logged.execute(Update.ins("teach", "noether", "algebra"))
        group.on_commit(seq)
        assert replica.applied_seq == seq
        assert replica.db.truth_of(
            "teach", "noether", "algebra") is Truth.TRUE


class TestShipper:
    def test_batching_respects_limit(self, primary, tmp_path, closing):
        """Five records go out in one ship and all land."""
        logged, _ = primary
        shipper = WalShipper(logged.log, term=1)
        replica = closing(Replica("r0", tmp_path / "r0"))
        link = shipper.add("r0", InProcessTransport(replica.handle))
        snapshot = persistence.dumps(logged.db, wal_applied=0)
        shipper.ship_snapshot(link, snapshot, 0)
        seqs = [logged.execute(u) for u in section_42_updates()[:5]]
        shipper.ship(link, seqs[-1])
        assert replica.applied_seq == seqs[-1]

    def test_snapshot_needed_after_checkpoint(
            self, primary, tmp_path, make_group):
        logged, workdir = primary
        group = make_group()
        group.attach_primary(logged)
        for update in section_42_updates()[:3]:
            seq = logged.execute(update)
        checkpoint(logged, workdir / "snapshot.json")
        # A replica added *after* the fold can't be delta-shipped.
        replica = Replica("late", tmp_path / "late")
        report = group.add_replica("late", replica)
        assert report.mode == "snapshot"
        assert replica.applied_seq == seq
        assert replica.db.table("teach").rows() == \
            logged.db.table("teach").rows()

    def test_mid_flight_fold_never_sends_empty_append(
            self, primary, tmp_path, monkeypatch, make_group):
        """A checkpoint folding the range between the floor check and
        the record read must surface as SnapshotNeeded — an empty
        append would advance the replica's high-water mark past
        records it never received (silent acked-data loss)."""
        logged, _ = primary
        group = make_group()
        group.attach_primary(logged)
        replica = Replica("r0", tmp_path / "r0")
        group.add_replica("r0", replica)
        seq = logged.execute(Update.ins("teach", "gauss", "cs"))
        group.on_commit(seq)
        seq2 = logged.execute(Update.ins("teach", "noether", "algebra"))
        link = group.shipper.link("r0")
        monkeypatch.setattr(logged.log, "records_between",
                            lambda lo, hi: [])
        with pytest.raises(SnapshotNeeded):
            group.shipper.ship(link, seq2)
        assert replica.applied_seq == seq  # never past what it holds
        assert link.acked_seq == seq

    def test_batch_boundary_keeps_abort_with_its_entry(
            self, primary, tmp_path, closing):
        """A failed entry and its compensating abort that ship together
        are skipped together: were the entry applied on its own (its
        apply can succeed on the replica even when the primary's
        failed), the replica would silently diverge."""
        from repro.faults import ErrorFault, FAULTS

        logged, _ = primary
        shipper = WalShipper(logged.log, term=1)
        replica = closing(Replica("r0", tmp_path / "r0"))
        link = shipper.add("r0", InProcessTransport(replica.handle))
        snapshot = persistence.dumps(logged.db, wal_applied=0)
        shipper.ship_snapshot(link, snapshot, 0)
        seq1 = logged.execute(Update.ins("teach", "gauss", "cs"))
        FAULTS.arm("wal.apply.before", ErrorFault(times=1))
        try:
            with pytest.raises(RuntimeError):
                logged.execute(Update.ins("teach", "noether", "algebra"))
        finally:
            FAULTS.disarm_all()
        # seq1=entry, seq2=failed entry, seq3=abort_of(seq2), seq4=entry
        seq4 = logged.execute(Update.ins("teach", "hilbert", "logic"))
        assert seq4 == seq1 + 3
        shipper.ship(link, seq4)
        assert replica.applied_seq == seq4
        assert not replica.diverged
        # the aborted update was never applied on the replica
        assert replica.db.truth_of(
            "teach", "noether", "algebra") is not Truth.TRUE
        assert replica.db.table("teach").rows() == \
            logged.db.table("teach").rows()


class TestGroupCommitModes:
    def test_sync_waits_for_k_acks(self, primary, tmp_path, make_group):
        logged, _ = primary
        group = make_group("sync(2)")
        group.attach_primary(logged)
        for name in ("r0", "r1"):
            group.add_replica(name, Replica(name, tmp_path / name))
        seq = logged.execute(Update.ins("teach", "gauss", "cs"))
        verdict = group.on_commit(seq)
        assert verdict["acks"] == 2

    def test_sync_times_out_when_partitioned(
            self, primary, tmp_path, make_group):
        logged, _ = primary
        group = make_group("sync(1)", ack_timeout=0.15)
        group.attach_primary(logged)
        group.add_replica("r0", Replica("r0", tmp_path / "r0"))
        group.shipper.link("r0").transport.partitioned = True
        seq = logged.execute(Update.ins("teach", "gauss", "cs"))
        with pytest.raises(ReplicationTimeout):
            group.on_commit(seq)
        # Healing the partition lets the next commit drag it forward.
        group.shipper.link("r0").transport.partitioned = False
        seq2 = logged.execute(Update.ins("teach", "noether", "algebra"))
        group.on_commit(seq2)
        assert group.replica("r0").applied_seq == seq2

    def test_async_never_blocks(self, primary, tmp_path, make_group):
        logged, _ = primary
        group = make_group("async", ack_timeout=0.15)
        group.attach_primary(logged)
        group.add_replica("r0", Replica("r0", tmp_path / "r0"))
        group.shipper.link("r0").transport.partitioned = True
        seq = logged.execute(Update.ins("teach", "gauss", "cs"))
        verdict = group.on_commit(seq)  # no quota, no timeout
        assert verdict["acks"] == 0

    def test_sync_all_timeout_zero_is_one_pass(
            self, primary, tmp_path, make_group):
        """``timeout=0`` means one shipping pass, not the group's
        ``ack_timeout`` (the `timeout or ...` spelling waited it out)."""
        logged, _ = primary
        group = make_group("async", ack_timeout=5.0)
        group.attach_primary(logged)
        group.add_replica("r0", Replica("r0", tmp_path / "r0"))
        group.shipper.link("r0").transport.partitioned = True
        logged.execute(Update.ins("teach", "gauss", "cs"))
        started = time.monotonic()
        assert group.sync_all(timeout=0)["lagging"] == ["r0"]
        assert time.monotonic() - started < 1.0


class TestShippingLoop:
    """``on_commit``, ``sync_all`` and ``catch_up`` share one shipping
    loop and one refusal policy: unreachable means next pass, a newer
    term means this shipper is deposed, on the delta and snapshot
    paths alike."""

    def test_stale_term_on_the_snapshot_path_raises_at_once(
            self, primary, tmp_path, make_group, monkeypatch):
        logged, _ = primary
        group = make_group("sync(1)", ack_timeout=1.0,
                           retry_interval=0.02)
        group.attach_primary(logged)
        replica = Replica("r0", tmp_path / "r0")
        group.add_replica("r0", replica)
        replica.term = 5
        group.shipper.link("r0").needs_snapshot = True
        dumps = []
        real = WalShipper.ship_snapshot

        def counting(shipper, link, snapshot, wal_applied):
            dumps.append(link.name)
            return real(shipper, link, snapshot, wal_applied)

        monkeypatch.setattr(WalShipper, "ship_snapshot", counting)
        seq = logged.execute(Update.ins("teach", "gauss", "cs"))
        started = time.monotonic()
        with pytest.raises(ReplicaDiverged):
            group.on_commit(seq)
        assert time.monotonic() - started < 0.5
        assert dumps == ["r0"]

    def test_quota_beyond_the_links_raises_after_one_pass(
            self, primary, tmp_path, make_group):
        from repro.obs import OBS

        logged, _ = primary
        group = make_group("sync(2)", ack_timeout=5.0)
        group.attach_primary(logged)
        group.add_replica("r0", Replica("r0", tmp_path / "r0"))
        seq = logged.execute(Update.ins("teach", "gauss", "cs"))
        OBS.enable()
        try:
            before = OBS.metrics.snapshot()["counters"].get(
                "replication.ack_timeouts", 0)
            started = time.monotonic()
            with pytest.raises(ReplicationTimeout,
                               match=r"1/2 .* only 1 replicas linked"):
                group.on_commit(seq)
            assert time.monotonic() - started < 0.5
            after = OBS.metrics.snapshot()["counters"][
                "replication.ack_timeouts"]
        finally:
            OBS.disable()
            OBS.reset()
            OBS.metrics.clear()
        assert after == before + 1
        # The one pass still shipped to the replica that is linked.
        assert group.replica("r0").applied_seq == seq

    def test_sync_all_on_a_deposed_shipper_raises(
            self, primary, tmp_path, make_group):
        logged, _ = primary
        group = make_group("async", ack_timeout=5.0)
        group.attach_primary(logged)
        replica = Replica("r0", tmp_path / "r0")
        group.add_replica("r0", replica)
        replica.term = 5
        logged.execute(Update.ins("teach", "gauss", "cs"))
        started = time.monotonic()
        with pytest.raises(ReplicaDiverged):
            group.sync_all(timeout=5.0)
        assert time.monotonic() - started < 0.5

    def test_add_replica_reports_an_unreachable_replica(
            self, primary, tmp_path, make_group):
        logged, _ = primary
        group = make_group()
        group.attach_primary(logged)
        replica = Replica("r0", tmp_path / "r0")
        replica.crash()
        report = group.add_replica("r0", replica)
        assert (report.mode, report.from_seq, report.to_seq) == \
            ("none", 0, 0)
        assert group.shipper.link("r0").needs_snapshot
        replica.restart()
        seq = logged.execute(Update.ins("teach", "gauss", "cs"))
        group.on_commit(seq)
        assert replica.snapshot_path.exists()  # bootstrapped by snapshot
        assert replica.applied_seq == seq
        assert replica.db.truth_of("teach", "gauss", "cs") is Truth.TRUE


class TestFailover:
    @pytest.fixture
    def replicated(self, primary, tmp_path, make_group):
        logged, workdir = primary
        group = make_group()
        group.attach_primary(logged)
        for name in ("r0", "r1"):
            group.add_replica(name, Replica(name, tmp_path / name))
        return logged, workdir, group

    def test_promotion_picks_longest_prefix(self, replicated):
        logged, _, group = replicated
        seq1 = logged.execute(Update.ins("teach", "a", "b"))
        group.on_commit(seq1)
        # r1 misses the second commit; r0 gets everything.
        group.shipper.link("r1").transport.partitioned = True
        seq2 = logged.execute(Update.ins("teach", "c", "d"))
        group.on_commit(seq2)  # sync(1): r0's ack satisfies the quota
        group.shipper.link("r1").transport.partitioned = False
        report = group.promote()
        assert report.chosen == "r0"
        assert report.applied_seq == seq2
        assert dict(report.candidates) == {"r0": seq2, "r1": seq1}

    def test_promote_fence_and_stale_primary(self, replicated):
        logged, _, group = replicated
        token = group.term
        seqs = [logged.execute(u) for u in section_42_updates()[:3]]
        for seq in seqs:
            group.on_commit(seq)
        # The primary commits one op nobody acks (full partition).
        for link in group.shipper.links():
            link.transport.partitioned = True
        group.ack_timeout = 0.1
        tail_seq = logged.execute(Update.ins("teach", "tail", "op"))
        with pytest.raises(ReplicationTimeout):
            group.on_commit(tail_seq)
        for link in group.shipper.links():
            link.transport.partitioned = False

        report = group.promote()
        assert report.applied_seq == seqs[-1]  # the acked prefix
        assert report.new_term == token + 1
        assert group.fence_seq(token) == seqs[-1]
        with pytest.raises(StalePrimary):
            group.check_primary(token)

    def test_full_failover_and_rejoin(self, replicated, closing):
        logged, workdir, group = replicated
        old_term = group.term
        seqs = [logged.execute(u) for u in section_42_updates()[:3]]
        for seq in seqs:
            group.on_commit(seq)
        for link in group.shipper.links():
            link.transport.partitioned = True
        group.ack_timeout = 0.1
        tail_seq = logged.execute(Update.ins("teach", "tail", "op"))
        with pytest.raises(ReplicationTimeout):
            group.on_commit(tail_seq)
        for link in group.shipper.links():
            link.transport.partitioned = False

        report = group.promote()
        chosen = group.replica(report.chosen)
        group.remove_replica(report.chosen)
        new_logged = closing(LoggedDatabase(chosen.db, chosen.wal_path))
        new_token = group.attach_primary(new_logged, node=chosen.name)
        assert new_token == report.new_term
        seq = new_logged.execute(Update.ins("teach", "new", "era"))
        group.on_commit(seq)

        old = Replica("old-primary", workdir)
        rejoin = group.rejoin(old, old_term)
        assert rejoin.records_dropped >= 1  # the unacked tail
        assert old.db.truth_of("teach", "tail", "op") is not Truth.TRUE
        assert old.db.truth_of("teach", "new", "era") is Truth.TRUE
        assert old.db.table("teach").rows() == \
            new_logged.db.table("teach").rows()

    def test_promote_resets_links_past_the_fence(
            self, replicated, closing):
        """A replica partitioned away during failover with an applied
        prefix *beyond* the fence must not carry its acks into the new
        term: the new history reuses those sequence numbers with
        different records, so its stale ack would count never-shipped
        new-term commits as replicated and its divergent tail would
        never be repaired."""
        logged, _, group = replicated
        seq1 = logged.execute(Update.ins("teach", "a", "b"))
        group.on_commit(seq1)
        # r1 races ahead: r0 misses the second commit entirely.
        group.shipper.link("r0").transport.partitioned = True
        seq2 = logged.execute(Update.ins("teach", "old", "world"))
        group.on_commit(seq2)  # sync(1): r1's ack satisfies the quota
        group.shipper.link("r0").transport.partitioned = False
        # Now r1 drops off the network and the primary dies: only r0
        # (at seq1) is reachable — the fence lands below r1's prefix.
        group.shipper.link("r1").transport.partitioned = True
        report = group.promote()
        assert report.chosen == "r0"
        assert report.applied_seq == seq1
        survivor = group.shipper.link("r1")
        assert survivor.acked_seq <= seq1
        assert survivor.needs_snapshot
        # Build the new primary on r0 and commit into the new term,
        # reusing sequence number seq2 with different content.
        chosen = group.replica(report.chosen)
        group.remove_replica(report.chosen)
        new_logged = closing(LoggedDatabase(chosen.db, chosen.wal_path))
        group.attach_primary(new_logged, node=chosen.name)
        group.shipper.link("r1").transport.partitioned = False
        seq_new = new_logged.execute(Update.ins("teach", "new", "era"))
        assert seq_new == seq2  # the reused sequence number
        verdict = group.on_commit(seq_new)
        assert verdict["acks"] >= 1
        # r1 was genuinely repaired, not ack-counted from stale state.
        r1 = group.replica("r1")
        assert r1.applied_seq == seq_new
        assert r1.db.truth_of("teach", "old", "world") is not Truth.TRUE
        assert r1.db.truth_of("teach", "new", "era") is Truth.TRUE
        assert r1.db.table("teach").rows() == \
            new_logged.db.table("teach").rows()

    def test_rejoin_rebootstraps_after_tainted_checkpoint(
            self, replicated, closing):
        """A deposed primary that checkpointed its unacked tail cannot
        be repaired by truncation — it must re-bootstrap."""
        logged, workdir, group = replicated
        old_term = group.term
        seq = logged.execute(Update.ins("teach", "gauss", "cs"))
        group.on_commit(seq)
        for link in group.shipper.links():
            link.transport.partitioned = True
        group.ack_timeout = 0.1
        tail = logged.execute(Update.ins("teach", "tail", "op"))
        with pytest.raises(ReplicationTimeout):
            group.on_commit(tail)
        # The dying primary folds the tail into its snapshot.
        checkpoint(logged, workdir / "snapshot.json")
        for link in group.shipper.links():
            link.transport.partitioned = False
        report = group.promote()
        chosen = group.replica(report.chosen)
        group.remove_replica(report.chosen)
        new_logged = closing(LoggedDatabase(chosen.db, chosen.wal_path))
        group.attach_primary(new_logged, node=chosen.name)

        old = Replica("old-primary", workdir)
        rejoin = group.rejoin(old, old_term)
        assert rejoin.rebootstrapped
        assert old.db.truth_of("teach", "tail", "op") is not Truth.TRUE
        assert old.applied_seq == group.shipper.link(
            "old-primary").acked_seq


class TestBoundedStaleness:
    def test_read_prefers_fresh_replica(self, primary, tmp_path, make_group):
        logged, _ = primary
        group = make_group()
        group.attach_primary(logged)
        for name in ("r0", "r1"):
            group.add_replica(name, Replica(name, tmp_path / name))
        seq = logged.execute(Update.ins("teach", "gauss", "cs"))
        group.on_commit(seq)
        value = group.read(
            lambda db: db.truth_of("teach", "gauss", "cs"),
            max_lag_seq=0,
        )
        assert value is Truth.TRUE

    def test_unserved_when_all_lag(self, primary, tmp_path, make_group):
        logged, _ = primary
        group = make_group("async")
        group.attach_primary(logged)
        group.add_replica("r0", Replica("r0", tmp_path / "r0"))
        group.shipper.link("r0").transport.partitioned = True
        logged.execute(Update.ins("teach", "gauss", "cs"))
        with pytest.raises(StalenessUnserved):
            group.read(lambda db: None, max_lag_seq=0)

    def test_lag_and_health(self, primary, tmp_path, make_group):
        logged, _ = primary
        group = make_group()
        group.attach_primary(logged)
        group.add_replica("r0", Replica("r0", tmp_path / "r0"))
        seq = logged.execute(Update.ins("teach", "gauss", "cs"))
        group.on_commit(seq)
        lags = group.lag()
        assert lags["r0"]["lag_seq"] == 0
        health = group.health(max_lag_seq=0)
        assert health["servable"]
        assert health["term"] == 1
        assert health["mode"] == "sync(1)"


class TestServiceIntegration:
    @pytest.fixture
    def service_on(self, tmp_path, make_group, closing):
        """Builder for a replicated primary service (closed with the
        test)."""

        def build(mode="sync(1)", **kwargs):
            workdir = tmp_path / "primary"
            workdir.mkdir()
            db = pupil_database()
            persistence.save(db, workdir / "snapshot.json",
                             wal_applied=0)
            group = make_group(mode)
            service = closing(DatabaseService(
                db, log=workdir / "wal.log", replication=group,
                **kwargs
            ))
            return service, group, workdir

        return build

    @pytest.fixture
    def acked(self):
        """The seqs of the ``replication.commit_acked`` records emitted
        while the test runs: the audit timeline's account of which
        commits met their quota."""
        sink = OBS.events.add_sink(RingBufferSink())
        OBS.enable()
        yield lambda: [record.attrs["seq"] for record in sink.records
                       if record.name == "replication.commit_acked"]
        OBS.disable()
        OBS.events.remove_sink(sink)
        OBS.reset()
        OBS.metrics.clear()

    def test_replication_requires_a_log(self, make_group):
        with pytest.raises(ReplicationError):
            DatabaseService(pupil_database(), replication=make_group())

    def test_commit_blocks_on_acks_and_records_them(
            self, tmp_path, service_on, acked):
        service, group, _ = service_on()
        group.add_replica("r0", Replica("r0", tmp_path / "r0"))
        service.insert("teach", "gauss", "cs")
        assert acked() == [1]
        assert list(service.logged.log.entries()) == [
            Update.ins("teach", "gauss", "cs")]
        assert group.replica("r0").applied_seq == 1

    def test_read_replica_and_staleness(self, tmp_path, service_on):
        service, group, _ = service_on()
        group.add_replica("r0", Replica("r0", tmp_path / "r0"))
        service.insert("teach", "gauss", "cs")
        value = service.read_replica(
            lambda db: db.truth_of("teach", "gauss", "cs"),
            max_lag_seq=0)
        assert value is Truth.TRUE
        group.shipper.link("r0").transport.partitioned = True
        group.ack_timeout = 0.1
        with pytest.raises(ReplicationTimeout):
            service.insert("teach", "noether", "algebra")
        with pytest.raises(StalenessUnserved):
            service.read_replica(lambda db: None, max_lag_seq=0)
        # The bound is the call's; the service holds none, so /health
        # does not turn 503 over it.
        assert service.health()["healthy"] is True

    def test_stats_carry_wal_and_replication(self, tmp_path, service_on,
                                             acked):
        service, group, _ = service_on()
        group.add_replica("r0", Replica("r0", tmp_path / "r0"))
        service.insert("teach", "gauss", "cs")
        stats = service.stats()
        assert stats["wal"]["last_seq"] == 1
        assert stats["wal"]["term"] == 1
        assert stats["wal"]["tail_torn"] is False
        assert acked() == [1]
        assert stats["replication"]["replicas"]["r0"]["lag_seq"] == 0

    def test_fenced_service_write_raises(self, tmp_path, service_on,
                                         acked):
        service, group, _ = service_on()
        group.add_replica("r0", Replica("r0", tmp_path / "r0"))
        service.insert("teach", "gauss", "cs")
        group.promote()
        with pytest.raises(StalePrimary):
            service.insert("teach", "noether", "algebra")
        assert acked() == [1]


def _survives_json(report) -> dict:
    """``report.as_dict()`` after a trip through ``json``: it must come
    back equal, because the soak keeps it among its JSON facts."""
    data = json.loads(json.dumps(report.as_dict()))
    assert data == report.as_dict()
    return data


class TestReports:
    def test_promotion_report_roundtrip(self):
        report = PromotionReport(
            chosen="r1", applied_seq=17, old_term=2, new_term=3,
            candidates=(("r0", 12), ("r1", 17)),
        )
        data = _survives_json(report)
        assert data["report"] == "promotion"
        assert data["candidates"] == [["r0", 12], ["r1", 17]]

    def test_catch_up_report_roundtrip(self):
        report = CatchUpReport(
            replica="r0", mode="snapshot", from_seq=0, to_seq=9,
            term=2, snapshot_wal_applied=7,
        )
        data = _survives_json(report)
        assert data["report"] == "catch_up"
        assert data["snapshot_wal_applied"] == 7

    def test_rejoin_report_roundtrip(self):
        report = RejoinReport(
            replica="old", old_term=1, fence_seq=5, records_dropped=2,
            torn_tail_discarded=True, rebootstrapped=False,
            catch_up=CatchUpReport(
                replica="old", mode="delta", from_seq=5, to_seq=8,
                term=2,
            ),
        )
        data = _survives_json(report)
        assert data["catch_up"] == report.catch_up.as_dict()

    def test_recovery_report_roundtrip(self):
        report = RecoveryReport(
            db=None, entries_applied=4, torn_tail=True,
            policy="salvage", records_skipped=1, checksum_failures=1,
            aborted=2, already_checkpointed=3,
            term=2, notes=("note a", "note b"),
        )
        data = _survives_json(report)
        assert data["report"] == "recovery"
        assert "db" not in data
        assert data["notes"] == ["note a", "note b"]
