"""What an ``UpdateLog`` remembers about its file: the next sequence
number and the header's floor, filled by one scan, dropped at every
rename, never re-derived per ship. See docs/REPLICATION.md
("shipping") and docs/DURABILITY.md ("what the log remembers")."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.fdb import persistence
from repro.fdb import wal as wal_module
from repro.fdb.updates import Update
from repro.fdb.wal import (
    LoggedDatabase,
    UpdateLog,
    checkpoint,
    decode_frame,
)
from repro.obs import OBS
from repro.replication import (
    Replica,
    ReplicationGroup,
    SnapshotNeeded,
    WalShipper,
)
from repro.service import DatabaseService
from repro.workloads.university import pupil_database
from tests.test_replication_obs import _scrub
from tests.test_replication_properties import _state_fingerprint
from tests.test_wal import _corrupt_crc


def teach(i: int) -> Update:
    return Update.ins("teach", f"t{i}", f"c{i % 7}")


@pytest.fixture
def logged(tmp_path, closing):
    return closing(LoggedDatabase(pupil_database(), tmp_path / "wal.log"))


def folded(logged, tmp_path, upto: int) -> None:
    """Commits 1..upto, folded into a snapshot: the floor is ``upto``."""
    for i in range(upto):
        logged.execute(teach(i))
    checkpoint(logged, tmp_path / "snapshot.json")


# -- (a) the remembered floor and position are the file's ---------------------


def fresh(logged, tmp_path, closing):
    return logged.log


def after_appends(logged, tmp_path, closing):
    for i in range(3):
        logged.execute(teach(i))
    return logged.log


def after_checkpoint(logged, tmp_path, closing):
    folded(logged, tmp_path, 3)
    return logged.log


def after_checkpoint_and_appends(logged, tmp_path, closing):
    folded(logged, tmp_path, 3)
    logged.execute(teach(3))
    return logged.log


def after_empty_truncate(logged, tmp_path, closing):
    folded(logged, tmp_path, 3)
    assert logged.log.shippable_floor() == 3
    logged.log.truncate()
    return logged.log


def after_truncate_to(logged, tmp_path, closing):
    folded(logged, tmp_path, 3)
    for i in range(3, 6):
        logged.execute(teach(i))
    assert logged.log.truncate_to(4) == 2
    return logged.log


def after_discard_torn_tail(logged, tmp_path, closing):
    folded(logged, tmp_path, 3)
    logged.execute(teach(3))
    logged.close()
    with logged.log.path.open("a", encoding="utf-8") as handle:
        handle.write('{"seq": 5, "ent')
    assert logged.log.discard_torn_tail()
    return logged.log


def second_log_on_the_path(logged, tmp_path, closing):
    folded(logged, tmp_path, 3)
    logged.execute(teach(3))
    return closing(UpdateLog(logged.log.path))


def damaged_header(logged, tmp_path, closing):
    folded(logged, tmp_path, 3)
    logged.execute(teach(3))
    logged.close()
    _corrupt_crc(logged.log.path, 0)
    return closing(UpdateLog(logged.log.path))


FLOOR_CASES = {
    # case: (build, floor, last_seq)
    "fresh": (fresh, 0, 0),
    "appends": (after_appends, 0, 3),
    "checkpoint": (after_checkpoint, 3, 3),
    "checkpoint+appends": (after_checkpoint_and_appends, 3, 4),
    "empty-truncate": (after_empty_truncate, 0, 0),
    "truncate_to": (after_truncate_to, 3, 4),
    "discard_torn_tail": (after_discard_torn_tail, 3, 4),
    "second-log": (second_log_on_the_path, 3, 4),
    # An unverifiable header is not honoured by any reader: the scan
    # reports it and the first record behind it reads as a gap.
    "damaged-header": (damaged_header, 0, 4),
}


@pytest.mark.parametrize("case", FLOOR_CASES)
def test_floor_and_position_read_what_a_scan_reads(
        case, logged, tmp_path, closing):
    build, floor, last_seq = FLOOR_CASES[case]
    # Positioned before the step, so a reading that survives the
    # step's rename shows as the old one.
    assert (logged.log.shippable_floor(), logged.log.last_seq()) == (0, 0)
    log = build(logged, tmp_path, closing)
    scan = log.scan("salvage")
    assert (scan.base_seq, scan.max_seq) == (floor, last_seq)
    assert (log.shippable_floor(), log.last_seq()) == (floor, last_seq)
    # And the next claim continues from there.
    assert log.append(teach(99)) == last_seq + 1
    assert log.shippable_floor() == floor


class TestPromotedReplicaLog:
    """A replica's log is advanced by ``append_frame`` alone; after
    promotion it is the primary's log, and the header its snapshot
    install wrote is its floor."""

    @pytest.fixture
    def stream(self, logged):
        """Snapshot at seq 5 and the framed records 6..8 behind it."""
        for i in range(5):
            logged.execute(teach(i))
        snapshot = persistence.dumps(logged.db, wal_applied=5, term=1)
        for i in range(5, 8):
            logged.execute(teach(i))
        return snapshot, logged.log.records_between(5, 8)

    @staticmethod
    def install(replica, snapshot, records):
        assert replica.handle({
            "type": "snapshot", "term": 1, "snapshot": snapshot,
            "wal_applied": 5})["ok"]
        assert replica.handle({
            "type": "append", "term": 1,
            "records": [line for _, line in records[:2]],
            "through_seq": 7})["ok"]

    @staticmethod
    def refuses_a_late_replica(log):
        """A link acked below the header cannot be delta-shipped:
        snapshot, not an append that starts past what it holds."""
        sent = []

        class Carrier:
            def request(self, message):
                sent.append(message)
                return {"ok": True, "applied_seq": 0, "term": 1}

        shipper = WalShipper(log, term=2)
        link = shipper.add("late", Carrier())
        link.needs_snapshot = False
        link.acked_seq = 2
        with pytest.raises(SnapshotNeeded) as refusal:
            shipper.ship(link, log.last_seq())
        assert refusal.value.floor == 5
        assert sent == []

    def test_same_log_object_after_install(self, stream, tmp_path,
                                           closing):
        snapshot, records = stream
        replica = closing(Replica("r0", tmp_path / "r0"))
        self.install(replica, snapshot, records)
        assert replica.log.shippable_floor() == 5
        assert replica.log.last_seq() == 7
        self.refuses_a_late_replica(replica.log)

    def test_restarted_replica_knows_position_but_not_floor(
            self, stream, tmp_path, closing):
        snapshot, records = stream
        first = closing(Replica("r0", tmp_path / "r0"))
        self.install(first, snapshot, records)
        first.close()
        replica = closing(Replica("r0", tmp_path / "r0"))
        replica.restart()
        assert replica.applied_seq == 7
        # Only ``append_frame`` has touched this log object.
        assert replica.handle({
            "type": "append", "term": 1, "records": [records[2][1]],
            "through_seq": 8})["ok"]
        assert replica.log.shippable_floor() == 5  # the header's, not 0
        assert replica.log.last_seq() == 8
        self.refuses_a_late_replica(replica.log)


# -- (b) no whole-file walk where a field will do ------------------------------


@pytest.fixture
def walks(monkeypatch):
    """Every ``UpdateLog._lines`` walk, as ``(path, the
    ``repro.fdb.wal`` functions it was asked through, innermost
    first)``."""
    seen = []
    real = UpdateLog._lines

    def spy(self):
        frame, chain = sys._getframe(1), []
        while frame is not None:
            if frame.f_code.co_filename == wal_module.__file__:
                chain.append(frame.f_code.co_name)
            frame = frame.f_back
        seen.append((self.path, tuple(chain)))
        return real(self)

    monkeypatch.setattr(UpdateLog, "_lines", spy)
    return seen


class RecordingReplica(Replica):
    """Notes, for every append it is sent, where it stood and the
    sequence numbers that arrived."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.appends: list[tuple[int, list[int]]] = []

    def handle(self, message: dict) -> dict:
        if message.get("type") == "append":
            self.appends.append((self.applied_seq, [
                decode_frame(line, verify=False).seq
                for line in message["records"]]))
        return super().handle(message)


@pytest.fixture
def quorum(tmp_path, closing):
    """A quorum-replicated primary service with two in-process
    replicas, as E20's ``replicated_quorum_1c`` builds it."""
    workdir = tmp_path / "primary"
    workdir.mkdir()
    db = pupil_database()
    persistence.save(db, workdir / "snapshot.json", wal_applied=0)
    group = closing(ReplicationGroup("quorum", ack_timeout=10.0,
                                     retry_interval=0.001))
    service = closing(DatabaseService(db, log=workdir / "wal.log",
                                      replication=group,
                                      lock_timeout=10.0))
    for i in range(2):
        group.add_replica(f"r{i}",
                          RecordingReplica(f"r{i}", tmp_path / f"r{i}"))
    return service, group, workdir


def test_quorum_commits_walk_the_file_once_per_ship(walks, quorum):
    service, group, _ = quorum
    primary = service.logged.log.path
    for i in range(50):
        service.execute(teach(i))
    assert all(link.acked_seq == 50 for link in group.shipper.links())
    mine = [chain for path, chain in walks if path == primary]
    ships = [chain for chain in mine if chain[0] == "records_between"]
    assert len(ships) == 100  # 50 commits x 2 links
    # Besides those, the one positioning scan (whichever reader got
    # there first); after it the floor and the position are fields.
    (positioning,) = [chain for chain in mine if chain not in ships]
    assert positioning[:2] == ("_scan", "_position")


# -- the checksum counter counts damage, not scans ----------------------------


@pytest.fixture
def obs_on():
    _scrub()
    OBS.enable()
    yield
    _scrub()


def test_one_damaged_record_counts_once(quorum, obs_on):
    service, _, _ = quorum
    log = service.logged.log
    for i in range(3):
        service.execute(teach(i))
    # Damage behind every replica's ack: it is never shipped again,
    # only re-read by every pass over the file.
    service.close_log()
    _corrupt_crc(log.path, 1)
    for i in range(3, 23):
        service.execute(teach(i))
        if i % 4 == 0:
            assert service.stats()["wal"]["checksum_failures"] == 1
    counter = OBS.metrics.counter("fdb.wal.checksum_failures")
    assert counter.snapshot() == 0  # nothing has reported it yet
    assert log.scan("salvage").checksum_failures == 1
    assert counter.snapshot() == 1


# -- a floor read races a checkpoint's rename ---------------------------------


def replicas_are_whole(service, group, head: int) -> None:
    """Every replica equals the primary at ``head``, and no append it
    was ever sent started past what it held."""
    assert group.sync_all()["lagging"] == []
    assert [info["lag_seq"] for info in group.lag().values()] == [0, 0]
    log = service.logged.log
    assert log.last_seq() == head
    assert log.shippable_floor() == log.scan("salvage").base_seq
    for name in group.replica_names():
        replica = group.replica(name)
        assert replica.applied_seq == head
        assert _state_fingerprint(replica.db) \
            == _state_fingerprint(service.db)
        assert replica.appends
        for stood_at, seqs in replica.appends:
            assert seqs and seqs[0] == stood_at + 1, (stood_at, seqs)


def test_floor_read_before_a_fold_is_low_and_caught(quorum, monkeypatch):
    """The interleaving a remembered floor allows: the shipper reads
    the floor, a checkpoint renames the log, the shipper reads
    records. The reading is low, never high; what comes back does not
    start at ``acked + 1`` and the link is caught up by snapshot."""
    service, group, workdir = quorum
    real = UpdateLog.shippable_floor
    stale = []

    def fold_after_reading(self):
        floor = real(self)
        if self is service.logged.log and len(stale) < 3 \
                and floor < self.last_seq():
            service.checkpoint(workdir / "snapshot.json")
            stale.append((floor, real(self)))
        return floor

    monkeypatch.setattr(UpdateLog, "shippable_floor", fold_after_reading)
    for i in range(10):
        service.execute(teach(i))
    assert len(stale) == 3
    assert all(read < now for read, now in stale)
    replicas_are_whole(service, group, 10)
    # The folded commits arrived by snapshot, not by append.
    assert all(len(group.replica(name).appends) < 10
               for name in group.replica_names())


def test_commits_racing_checkpoints_keep_replicas_whole(quorum):
    """The same, left to the scheduler: one thread commits through the
    group while another folds the log again and again."""
    service, group, workdir = quorum
    done = threading.Event()
    failures: list[BaseException] = []

    def commit() -> None:
        try:
            for i in range(200):
                service.execute(teach(i))
        except BaseException as exc:  # noqa: BLE001 - reported below
            failures.append(exc)
        finally:
            done.set()

    def fold() -> None:
        try:
            while not done.wait(0.001):
                service.checkpoint(workdir / "snapshot.json")
        except BaseException as exc:  # noqa: BLE001 - reported below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        threads = [threading.Thread(target=commit),
                   threading.Thread(target=fold)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert service.stats()["checkpoints"] > 0
    replicas_are_whole(service, group, 200)
