"""The held-open WAL descriptor: one open per log generation, dropped
before every rename over the log and after every failed write, closed
by whoever owns the log. See docs/DURABILITY.md ("append protocol")."""

from __future__ import annotations

import errno
import os
import threading
import time
from pathlib import Path

import pytest

from repro.errors import PersistenceError
from repro.faults.harness import main as crash_matrix_main
from repro.faults.harness import states_diff
from repro.faults.registry import (
    FAULTS,
    CrashFault,
    Fault,
    SimulatedCrash,
    TornWrite,
    TransientError,
)
from repro.fdb import persistence, storage, wal
from repro.fdb.updates import Update, UpdateSequence, apply_update
from repro.fdb.wal import LoggedDatabase, UpdateLog, checkpoint, recover
from repro.replication import Replica, ReplicationGroup
from repro.service import DatabaseService
from repro.service.locks import EXCLUSIVE
from repro.service.service import WRITE_RESOURCE
from repro.shard import ShardedDatabaseService
from repro.workloads.university import pupil_database, section_42_updates
from tests.test_shard import four_cluster_database, round_robin_pins

PROC_FD = Path("/proc/self/fd")
needs_proc_fd = pytest.mark.skipif(
    not PROC_FD.is_dir(), reason="no /proc/self/fd to inspect"
)


@pytest.fixture(autouse=True)
def clean_registry():
    FAULTS.disarm_all()
    yield
    FAULTS.disarm_all()


@pytest.fixture
def log(tmp_path, monkeypatch):
    monkeypatch.setattr(wal, "APPEND_BACKOFF", 0.0)
    log = UpdateLog(tmp_path / "wal.log")
    yield log
    log.close()


def descriptors_on(path: Path) -> int:
    """How many of this process's descriptors name ``path`` (or, for a
    directory, a file below it)."""
    target = str(path.resolve())
    count = 0
    for entry in PROC_FD.iterdir():
        try:
            opened = os.readlink(entry)
        except OSError:
            continue  # the listing's own descriptor, already gone
        if opened == target or opened.startswith(target + os.sep):
            count += 1
    return count


def count_opens(monkeypatch) -> list:
    """Spy on the one ``open`` the append path makes."""
    opened = []

    def spy(path, *args, **kwargs):
        opened.append(Path(path))
        return open(path, *args, **kwargs)

    monkeypatch.setattr(storage, "open", spy, raising=False)
    return opened


def replayed(updates):
    db = pupil_database()
    for update in updates:
        apply_update(db, update)
    return db


class TestOneDescriptorPerLog:
    def test_nothing_is_opened_before_the_first_append(
            self, log, monkeypatch):
        opened = count_opens(monkeypatch)
        assert len(log) == 0
        assert log.last_seq() == 0
        assert log.scan("strict").records == []
        assert opened == []

    def test_same_descriptor_across_100_appends(self, log, monkeypatch):
        opened = count_opens(monkeypatch)
        log.append(Update.ins("teach", "t0", "cs"))
        held = log._handle.file()
        for index in range(1, 100):
            log.append(Update.ins("teach", f"t{index}", "cs"))
            assert log._handle.file() is held
        assert opened == [log.path]
        assert not held.closed
        assert len(log) == 100
        assert [r.seq for r in log.scan("strict").records] \
            == list(range(1, 101))

    def test_the_descriptor_is_raw(self, log):
        # No userspace buffer: a frame is on its way to the kernel
        # when write() returns, and a failure cannot strand half of it.
        log.append(Update.ins("teach", "gauss", "cs"))
        handle = log._handle.file()
        assert handle.mode == "ab"
        assert not hasattr(handle, "raw")

    def test_close_is_idempotent_and_append_reopens(
            self, log, monkeypatch):
        opened = count_opens(monkeypatch)
        log.close()  # never opened
        log.append(Update.ins("teach", "gauss", "cs"))
        log.close()
        log.close()
        log.append(Update.ins("teach", "noether", "algebra"))
        assert opened == [log.path, log.path]
        assert len(log) == 2


class TestRenameOverTheLog:
    """After anything that replaces the file, the next append must land
    in the *new* file — a stale descriptor would write to the unlinked
    inode and the record would vanish."""

    def _assert_appends_reach(self, log):
        assert os.fstat(log._handle.file().fileno()).st_ino \
            == os.stat(log.path).st_ino

    def test_truncate(self, log, tmp_path):
        u1, u2, u3 = section_42_updates()[:3]
        snapshot = tmp_path / "snapshot.json"
        log.append(u1)
        log.append(u2)
        persistence.save(replayed([u1, u2]), snapshot, wal_applied=2)
        log.truncate(next_seq=3)
        assert log.append(u3) == 3
        self._assert_appends_reach(log)
        report = recover(snapshot, log.path, policy="strict")
        assert report.entries_applied == 1
        assert states_diff(replayed([u1, u2, u3]), report.db) is None

    def test_truncate_to(self, log, tmp_path):
        u1, u2, u3 = section_42_updates()[:3]
        snapshot = tmp_path / "snapshot.json"
        persistence.save(pupil_database(), snapshot, wal_applied=0)
        log.append(u1)
        log.append(u2)
        assert log.truncate_to(1) == 1
        assert log.append(u3) == 2
        self._assert_appends_reach(log)
        report = recover(snapshot, log.path, policy="strict")
        assert report.entries_applied == 2
        assert states_diff(replayed([u1, u3]), report.db) is None

    def test_discard_torn_tail(self, log, tmp_path):
        u1, u2, u3 = section_42_updates()[:3]
        snapshot = tmp_path / "snapshot.json"
        persistence.save(pupil_database(), snapshot, wal_applied=0)
        log.append(u1)
        log.append(u2)
        with log.path.open("ab") as other:
            other.write(b'{"crc": 1, "entry": {"kind": "IN')
        assert log.discard_torn_tail() is True
        assert log.append(u3) == 3
        self._assert_appends_reach(log)
        report = recover(snapshot, log.path, policy="strict")
        assert not report.torn_tail
        assert report.entries_applied == 3
        assert states_diff(replayed([u1, u2, u3]), report.db) is None

    @pytest.mark.parametrize("forget", [
        lambda log: log.close(),  # the file exists, nothing scanned yet
        lambda log: log.truncate_to(1),
    ], ids=["open", "truncate_to"])
    def test_a_monitoring_scan_cannot_put_a_stale_position_back(
            self, tmp_path, monkeypatch, forget):
        """``last_seq()`` (lag gauges, ``/metrics``) finds its place
        under the same lock a claim does: a lazy scan that overlaps
        the first append after open or a rename must not finish late
        and hand the claimed sequence number out again."""
        u1, u2, u3 = section_42_updates()[:3]
        first = UpdateLog(tmp_path / "wal.log")
        first.append(u1)
        first.append(u2)
        first.close()
        log = UpdateLog(first.path)
        forget(log)
        head = log.scan("strict").max_seq
        real_scan, slowed = log._scan, [True]
        scanning, appended = threading.Event(), threading.Event()

        def scan(policy):
            result = real_scan(policy)
            if slowed and slowed.pop():
                scanning.set()
                appended.wait(0.2)  # whatever it read is old news now
            return result

        monkeypatch.setattr(log, "_scan", scan)
        monitor = threading.Thread(target=log.last_seq)
        monitor.start()
        try:
            assert scanning.wait(5)
            assert log.append(u3) == head + 1
            appended.set()
            monitor.join()
            assert log.last_seq() == head + 1
            assert log.append(u1) == head + 2
            assert [r.seq for r in log.scan("strict").records] \
                == list(range(1, head + 3))
        finally:
            appended.set()
            monitor.join()
            log.close()

    def test_shipped_frames_follow_the_same_rule(self, log, tmp_path):
        """A replica appends frames its primary wrote; after a fence
        truncation the next one must land in the new file too."""
        source = UpdateLog(tmp_path / "primary.log")
        try:
            for update in section_42_updates()[:3]:
                source.append(update)
            frames = source.records_between(0, 3)
        finally:
            source.close()
        for seq, line in frames:
            log.append_frame(seq, line)
        assert log.path.read_bytes() == source.path.read_bytes()
        assert log.last_seq() == 3 and len(log) == 3
        assert log.truncate_to(1) == 2
        log.append_frame(*frames[1])
        self._assert_appends_reach(log)
        assert [r.seq for r in log.scan("strict").records] == [1, 2]
        assert log.last_seq() == 2 and len(log) == 2

    def test_rejoin_repairs_through_the_replicas_own_log(
            self, tmp_path, closing):
        """``rejoin`` cuts a deposed primary's log back to the fence;
        what the new primary ships afterwards must land in the
        repaired file, behind the kept prefix."""
        workdir = tmp_path / "primary"
        workdir.mkdir()
        db = pupil_database()
        persistence.save(db, workdir / "snapshot.json", wal_applied=0)
        logged = closing(LoggedDatabase(db, workdir / "wal.log"))
        group = closing(ReplicationGroup("sync(1)", ack_timeout=0.1,
                                         retry_interval=0.005))
        old_term = group.attach_primary(logged)
        group.add_replica("r0", Replica("r0", tmp_path / "r0"))
        group.on_commit(logged.execute(Update.ins("teach", "gauss", "cs")))
        group.shipper.link("r0").transport.partitioned = True
        logged.execute(Update.ins("teach", "lost", "tail"))
        group.shipper.link("r0").transport.partitioned = False
        group.promote()
        chosen = group.replica("r0")
        group.remove_replica("r0")
        new_logged = closing(LoggedDatabase(chosen.db, chosen.wal_path))
        group.attach_primary(new_logged, node="r0")
        logged.close()  # the deposed primary is gone

        old = Replica("old-primary", workdir)
        held = old.log
        assert group.rejoin(old, old_term).records_dropped == 1
        seq = new_logged.execute(Update.ins("teach", "new", "era"))
        group.on_commit(seq)
        assert old.log is held and old.applied_seq == seq
        self._assert_appends_reach(old.log)
        shipped = UpdateLog(old.wal_path).scan("strict")
        assert [r.seq for r in shipped.records] == [1, seq]
        assert states_diff(new_logged.db, old.db) is None

    def test_checkpoint(self, tmp_path):
        u1, u2, u3 = section_42_updates()[:3]
        snapshot = tmp_path / "snapshot.json"
        db = pupil_database()
        persistence.save(db, snapshot, wal_applied=0)
        logged = LoggedDatabase(db, tmp_path / "wal.log")
        try:
            logged.execute(u1)
            logged.execute(u2)
            checkpoint(logged, snapshot)
            assert logged.execute(u3) == 3
            self._assert_appends_reach(logged.log)
            report = recover(snapshot, logged.log.path, policy="strict")
            assert report.entries_applied == 1
            assert states_diff(db, report.db) is None
        finally:
            logged.close()


class TestFailedWrite:
    def test_transient_error_mid_append_is_retried_once_each(
            self, log, monkeypatch):
        opened = count_opens(monkeypatch)
        first = Update.ins("teach", "gauss", "cs")
        second = Update.ins("teach", "noether", "algebra")
        log.append(first)
        FAULTS.arm("storage.append.payload", TransientError(times=2))
        assert log.append(second) == 2
        # Each failure dropped the descriptor; each retry reopened.
        assert opened == [log.path] * 3
        scan = log.scan("strict")
        assert [r.seq for r in scan.records] == [1, 2]
        assert scan.problems == []
        assert list(log.entries()) == [first, second]

    @needs_proc_fd
    def test_torn_write_then_restart(self, log):
        first = Update.ins("teach", "gauss", "cs")
        second = Update.ins("teach", "noether", "algebra")
        log.append(first)
        FAULTS.arm("storage.append.payload", TornWrite(9))
        with pytest.raises(SimulatedCrash):
            log.append(second)
        FAULTS.disarm_all()
        # The dying process took its descriptor with it.
        assert descriptors_on(log.path) == 0
        restarted = UpdateLog(log.path)
        try:
            assert restarted.tail_is_torn
            assert restarted.discard_torn_tail()
            assert restarted.append(second) == 2
            scan = restarted.scan("strict")
            assert [r.seq for r in scan.records] == [1, 2]
            assert scan.problems == [] and not scan.torn_tail
            assert list(restarted.entries()) == [first, second]
        finally:
            restarted.close()

    def test_exhausted_retries_leave_no_gap(self, tmp_path, monkeypatch):
        monkeypatch.setattr(wal, "APPEND_RETRIES", 1)
        monkeypatch.setattr(wal, "APPEND_BACKOFF", 0.0)
        log = UpdateLog(tmp_path / "wal.log")
        try:
            log.append(Update.ins("teach", "gauss", "cs"))
            FAULTS.arm("storage.append.payload", TransientError(times=5))
            with pytest.raises(PersistenceError, match="2 attempts"):
                log.append(Update.ins("teach", "noether", "algebra"))
            FAULTS.disarm_all()
            assert log.append(Update.ins("teach", "hilbert", "logic")) == 2
            assert [r.seq for r in log.scan("strict").records] == [1, 2]
        finally:
            log.close()


def fsync_fails_once(monkeypatch) -> list:
    """Make the next ``os.fsync`` raise EIO; the ones after it pass."""
    real, failed = os.fsync, []

    def fsync(fd):
        if not failed:
            failed.append(fd)
            raise OSError(errno.EIO, "injected fsync failure")
        real(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    return failed


class ShortWriteThenError(Fault):
    """Write the first ``nbytes`` of the record, then fail the write
    with ``OSError`` — once."""

    def __init__(self, nbytes: int) -> None:
        self.nbytes, self.fired = nbytes, False

    def trigger(self, point: str, **context) -> None:
        if self.fired:
            return
        self.fired = True
        context["handle"].write(context["data"][:self.nbytes])
        raise OSError(errno.ENOSPC, "injected short write")


class TestRetriedWriteLandsOnce:
    """A write that fails after its bytes reached the file is cut back
    before it is tried again, so the record is in the log once."""

    def test_a_failed_fsync_is_not_logged_twice(self, tmp_path,
                                                monkeypatch):
        u1, u2 = section_42_updates()[:2]
        snapshot = tmp_path / "snapshot.json"
        persistence.save(pupil_database(), snapshot, wal_applied=0)
        monkeypatch.setattr(wal, "APPEND_BACKOFF", 0.0)
        log = UpdateLog(tmp_path / "wal.log")
        try:
            log.append(u1)
            failed = fsync_fails_once(monkeypatch)
            assert log.append(u2) == 2
            assert failed
            assert log.last_seq() == 2 and len(log) == 2
        finally:
            log.close()
        assert [r.seq for r in log.scan("strict").records] == [1, 2]
        report = recover(snapshot, log.path, policy="strict")
        assert report.entries_applied == 2
        assert states_diff(replayed([u1, u2]), report.db) is None

    def test_a_short_write_is_retried_as_one_clean_frame(self, log):
        u1, u2 = section_42_updates()[:2]
        log.append(u1)
        FAULTS.arm("storage.append.payload", ShortWriteThenError(9))
        assert log.append(u2) == 2
        scan = log.scan("strict")
        assert [r.seq for r in scan.records] == [1, 2]
        assert scan.problems == []
        assert list(log.entries()) == [u1, u2]

    def test_a_resent_frame_lands_once_on_a_replica(
            self, tmp_path, monkeypatch, closing):
        source = closing(UpdateLog(tmp_path / "primary.log"))
        for update in section_42_updates()[:2]:
            source.append(update)
        lines = [line for _, line in source.records_between(0, 2)]
        replica = closing(Replica("r0", tmp_path / "r0", fsync=True))
        assert replica.handle({
            "type": "snapshot", "term": 0, "wal_applied": 0,
            "snapshot": persistence.dumps(pupil_database(),
                                          wal_applied=0)})["ok"]
        batch = {"type": "append", "term": 0, "records": lines,
                 "through_seq": 2}
        failed = fsync_fails_once(monkeypatch)
        with pytest.raises(OSError):
            replica.handle(batch)
        assert failed
        assert replica.handle(batch)["applied_seq"] == 2  # the re-send
        scan = replica.log.scan("strict")
        assert [r.seq for r in scan.records if r.seq] == [1, 2]
        assert scan.problems == []
        replica.crash()
        replica.restart()
        assert replica.applied_seq == 2
        assert states_diff(replayed(section_42_updates()[:2]),
                           replica.db) is None


@needs_proc_fd
class TestOwnersClose:
    def test_service_close(self, tmp_path):
        path = tmp_path / "wal.log"
        service = DatabaseService(pupil_database(), log=path)
        service.insert("teach", "gauss", "cs")
        service.insert("teach", "noether", "algebra")
        assert descriptors_on(path) == 1
        service.close()
        assert descriptors_on(path) == 0

    def test_sharded_close(self, tmp_path):
        lanes = tmp_path / "lanes"
        facade = ShardedDatabaseService(
            four_cluster_database, 2, pins=round_robin_pins(2),
            log_dir=lanes,
        )
        for shard in range(2):
            facade.insert(facade.map.names_on(shard)[0], "x", "y")
        assert descriptors_on(lanes) == 2
        facade.close()
        assert descriptors_on(lanes) == 0

    def test_swap_lane_releases_the_outgoing_log(self, tmp_path):
        lanes = tmp_path / "lanes"
        facade = ShardedDatabaseService(
            four_cluster_database, 2, pins=round_robin_pins(2),
            log_dir=lanes,
        )
        replacement = DatabaseService(
            four_cluster_database(), log=tmp_path / "promoted.log",
            shard=0,
        )
        try:
            name = facade.map.names_on(0)[0]
            facade.insert(name, "before", "swap")
            outgoing = facade.lane(0).logged.log.path
            assert descriptors_on(outgoing) == 1
            facade.swap_lane(0, replacement)
            assert descriptors_on(outgoing) == 0
            facade.insert(name, "after", "swap")
            assert descriptors_on(tmp_path / "promoted.log") == 1
        finally:
            facade.close()
        assert descriptors_on(tmp_path) == 0

    def test_replica_crash_and_restart(self, tmp_path):
        workdir = tmp_path / "primary"
        workdir.mkdir()
        db = pupil_database()
        persistence.save(db, workdir / "snapshot.json", wal_applied=0)
        logged = LoggedDatabase(db, workdir / "wal.log")
        group = ReplicationGroup("sync(1)", ack_timeout=1.0,
                                 retry_interval=0.005)
        replica = Replica("r0", tmp_path / "r0")
        try:
            group.attach_primary(logged)
            group.add_replica("r0", replica)
            group.on_commit(logged.execute(
                Update.ins("teach", "gauss", "cs")))
            assert descriptors_on(replica.wal_path) == 1
            held = replica.log
            replica.crash()
            assert descriptors_on(replica.wal_path) == 0
            replica.restart()
            assert descriptors_on(replica.wal_path) == 0  # lazy again
            assert replica.log is held  # one log object per wal.log
            seq = logged.execute(Update.ins("teach", "noether", "algebra"))
            group.on_commit(seq)
            assert replica.applied_seq == seq
            assert descriptors_on(replica.wal_path) == 1
            assert states_diff(db, replica.db) is None
        finally:
            group.close()
            logged.close()
        assert descriptors_on(tmp_path) == 0

    def test_snapshot_install_replaces_the_replica_log(self, tmp_path):
        workdir = tmp_path / "primary"
        workdir.mkdir()
        db = pupil_database()
        persistence.save(db, workdir / "snapshot.json", wal_applied=0)
        logged = LoggedDatabase(db, workdir / "wal.log")
        group = ReplicationGroup("sync(1)", ack_timeout=1.0,
                                 retry_interval=0.005)
        replica = Replica("r0", tmp_path / "r0")
        try:
            group.attach_primary(logged)
            group.add_replica("r0", replica)
            group.on_commit(logged.execute(
                Update.ins("teach", "gauss", "cs")))
            # Re-bootstrap renames a fresh header over the replica's
            # log; the next shipped record must land in that file.
            held = replica.log
            group.shipper.link("r0").needs_snapshot = True
            group.catch_up("r0")
            assert replica.log is held
            seq = logged.execute(Update.ins("teach", "noether", "algebra"))
            group.on_commit(seq)
            assert replica.applied_seq == seq
            shipped = UpdateLog(replica.wal_path).scan("strict")
            assert [r.seq for r in shipped.records if r.seq] == [seq]
        finally:
            group.close()
            logged.close()
        assert descriptors_on(tmp_path) == 0


class TestCloseWaitsForTheWriter:
    """A multi-shard write holds each lane's ``__write__`` token but
    never enters a lane's admission gate. Closing a lane's log while
    that write sits between its ``write`` and its ``fsync`` would fail
    the fsync (EBADF), the retry would log the frame a second time and
    strict recovery would refuse the log — so the close takes the
    token too."""

    @pytest.fixture
    def facade(self, tmp_path):
        facade = ShardedDatabaseService(
            four_cluster_database, 2, pins=round_robin_pins(2),
            log_dir=tmp_path / "lanes",
        )
        for shard in range(2):  # open both descriptors
            facade.insert(facade.map.names_on(shard)[0], "warm", "up")
        yield facade
        facade.close()

    @pytest.fixture
    def in_fsync(self, monkeypatch):
        """Make every fsync slow; set once a writer is inside one."""
        entered = threading.Event()
        real = os.fsync

        def slow(fd):
            entered.set()
            time.sleep(0.15)
            real(fd)

        monkeypatch.setattr(os, "fsync", slow)
        return entered

    def _write_across_both_lanes(self, facade):
        update = UpdateSequence(tuple(
            Update.ins(facade.map.names_on(shard)[0], "two", "lanes")
            for shard in range(2)
        ), label="both")
        errors = []

        def write():
            try:
                facade.execute(update)
            except BaseException as exc:  # reported by the test
                errors.append(exc)

        writer = threading.Thread(target=write)
        writer.start()
        return writer, errors

    def _assert_each_frame_landed_once(self, facade, lanes):
        for lane in lanes:
            scan = UpdateLog(lane.logged.log.path).scan("strict")
            assert [r.seq for r in scan.records] == [1, 2]
            assert scan.problems == []
            assert len(lane.committed_ops()) == 2

    def test_close(self, facade, in_fsync):
        lanes = list(facade.lanes)
        writer, errors = self._write_across_both_lanes(facade)
        assert in_fsync.wait(5)
        facade.close(drain=False)
        writer.join(5)
        assert errors == []
        self._assert_each_frame_landed_once(facade, lanes)

    def test_swap_lane(self, facade, in_fsync, tmp_path):
        lanes = list(facade.lanes)
        replacement = DatabaseService(
            four_cluster_database(), log=tmp_path / "promoted.log",
            shard=0,
        )
        writer, errors = self._write_across_both_lanes(facade)
        assert in_fsync.wait(5)
        facade.swap_lane(0, replacement)
        writer.join(5)
        assert errors == []
        self._assert_each_frame_landed_once(facade, lanes)

    @needs_proc_fd
    def test_a_stuck_writer_keeps_its_descriptor(self, tmp_path):
        service = DatabaseService(pupil_database(),
                                  log=tmp_path / "wal.log",
                                  lock_timeout=0.05)
        service.insert("teach", "gauss", "cs")
        holding = threading.Event()
        done = threading.Event()

        def hold_the_token():
            with service.locks.held((WRITE_RESOURCE,), EXCLUSIVE):
                holding.set()
                done.wait(5)

        holder = threading.Thread(target=hold_the_token)
        holder.start()
        try:
            assert holding.wait(5)
            service.close_log()  # times out on the token: no close
            assert descriptors_on(tmp_path / "wal.log") == 1
        finally:
            done.set()
            holder.join(5)
        service.close()
        assert descriptors_on(tmp_path / "wal.log") == 0


class TestDirectoryFsyncOnCreate:
    @pytest.fixture
    def synced(self, monkeypatch):
        calls = []
        real = storage.fsync_directory

        def spy(path):
            calls.append(Path(path))
            real(path)

        monkeypatch.setattr(storage, "fsync_directory", spy)
        return calls

    def test_once_per_created_file(self, log, synced):
        for index in range(3):
            log.append(Update.ins("teach", f"t{index}", "cs"))
        assert synced == [log.path.parent]

    def test_never_on_reopen_of_an_existing_file(self, log, synced):
        log.append(Update.ins("teach", "gauss", "cs"))
        del synced[:]
        log.close()
        log.append(Update.ins("teach", "noether", "algebra"))
        other = UpdateLog(log.path)
        try:
            other.append(Update.ins("teach", "hilbert", "logic"))
        finally:
            other.close()
        assert synced == []

    def test_truncation_adds_no_sync_of_its_own(self, log, synced):
        log.append(Update.ins("teach", "gauss", "cs"))
        log.truncate(next_seq=2)  # atomic_write syncs the rename itself
        del synced[:]
        log.append(Update.ins("teach", "noether", "algebra"))
        assert synced == []

    def test_before_the_first_record_is_written(self, log, synced):
        FAULTS.arm("storage.append.payload", CrashFault())
        with pytest.raises(SimulatedCrash):
            log.append(Update.ins("teach", "gauss", "cs"))
        assert synced == [log.path.parent]
        assert log.path.read_bytes() == b""


class TestLenCache:
    def test_len_tracks_every_kind_of_change(self, tmp_path):
        u1, u2, u3 = section_42_updates()[:3]
        snapshot = tmp_path / "snapshot.json"
        db = pupil_database()
        persistence.save(db, snapshot, wal_applied=0)
        logged = LoggedDatabase(db, tmp_path / "wal.log")
        log = logged.log
        try:
            assert len(log) == 0
            logged.execute(u1)
            assert len(log) == 1
            seq = log.append(u2)
            assert len(log) == 2
            log.append_abort(seq)
            assert len(log) == 1
            checkpoint(logged, snapshot)
            assert len(log) == 0
            logged.execute(u3)
            assert len(log) == 1
            # Somebody else appends once this object is closed: a
            # fresh log on the path counts it.
            logged.close()
            other = UpdateLog(log.path)
            try:
                other.append(Update.ins("teach", "gauss", "cs"))
            finally:
                other.close()
            assert len(UpdateLog(log.path)) == 2
            assert len(log) == sum(1 for _ in log.entries())
        finally:
            logged.close()

    def test_an_append_does_not_stat_the_log(self, log, monkeypatch):
        log.append(Update.ins("teach", "gauss", "cs"))
        assert len(log) == 1  # cache warm
        stats = []
        real_stat = Path.stat

        def spy(self, *args, **kwargs):
            stats.append(self)
            return real_stat(self, *args, **kwargs)

        monkeypatch.setattr(Path, "stat", spy)
        seq = log.append(Update.ins("teach", "noether", "algebra"))
        log.append_abort(seq)
        assert stats == []
        monkeypatch.undo()
        assert len(log) == 1


class TestFrameBytes:
    """The hoisted encoders must produce the bytes ``json.dumps``
    did: these are the parent commit's files, byte for byte."""

    INS = Update.ins("teach", "euclid", "math")
    REP = Update.rep("teach", ("euclid", "math"), ("euclid", "geometry"))
    SEQ = UpdateSequence(
        (INS, Update.delete("class_list", "math", "john")), label="swap",
    )

    def test_update_sequence_abort_and_header(self, log):
        log.append(self.INS)
        log.append(self.SEQ)
        log.append_abort(2)
        assert log.path.read_bytes() == (
            b'{"crc": 4063508433, "entry": {"function": "teach", '
            b'"kind": "INS", "pair": [{"atom": "euclid"}, '
            b'{"atom": "math"}]}, "seq": 1, "v": 2}\n'
            b'{"crc": 41818858, "entry": {"kind": "SEQ", "label": "swap", '
            b'"updates": [{"function": "teach", "kind": "INS", "pair": '
            b'[{"atom": "euclid"}, {"atom": "math"}]}, {"function": '
            b'"class_list", "kind": "DEL", "pair": [{"atom": "math"}, '
            b'{"atom": "john"}]}]}, "seq": 2, "v": 2}\n'
            b'{"abort_of": 2, "crc": 3557458995, "seq": 3, "v": 2}\n'
        )
        log.truncate(next_seq=4)
        header = (b'{"crc": 3373169109, "header": {"next_seq": 4}, '
                  b'"seq": 3, "v": 2}\n')
        assert log.path.read_bytes() == header
        log.append(self.REP)
        assert log.path.read_bytes() == header + (
            b'{"crc": 4075566106, "entry": {"function": "teach", '
            b'"kind": "REP", "new_pair": [{"atom": "euclid"}, '
            b'{"atom": "geometry"}], "pair": [{"atom": "euclid"}, '
            b'{"atom": "math"}]}, "seq": 4, "v": 2}\n'
        )

    def test_frames_with_a_term(self, tmp_path):
        fenced = UpdateLog(tmp_path / "fenced.log", term=3)
        try:
            fenced.append(self.REP)
            fenced.truncate(next_seq=2)
            fenced.append_abort(1)
            assert fenced.path.read_bytes() == (
                b'{"crc": 2186694304, "header": {"next_seq": 2, '
                b'"term": 3}, "seq": 1, "term": 3, "v": 2}\n'
                b'{"abort_of": 1, "crc": 3168202888, "seq": 2, '
                b'"term": 3, "v": 2}\n'
            )
        finally:
            fenced.close()


def test_crash_matrix_shape_is_unchanged(capsys):
    assert crash_matrix_main() == 0
    out = capsys.readouterr().out
    assert "matrix: 26 cells, 26 ok" in out
    assert "truncation sweep: 274 offsets, 274 ok" in out
