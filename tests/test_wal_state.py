"""What an ``UpdateLog`` remembers about its file: the next sequence
number and the header's floor, filled by one scan, and where the
records are, filled by one walk and extended by every append — all
dropped at every rename, none re-derived per ship. See
docs/REPLICATION.md ("shipping") and docs/DURABILITY.md ("what the log
remembers")."""

from __future__ import annotations

import random
import sys
import threading
import time

import pytest

from repro.errors import PersistenceError
from repro.faults import FAULTS, ErrorFault, TransientError
from repro.faults.harness import states_diff
from repro.fdb import persistence, storage
from repro.fdb import wal as wal_module
from repro.fdb.updates import Update
from repro.fdb.wal import (
    FrameError,
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
from tests.test_wal import _corrupt_crc, _rotten_byte


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

    def test_serves_the_frames_it_was_shipped(self, stream, tmp_path,
                                              closing, walks):
        """Asked as a primary, it hands on byte for byte what it took
        in, and walks its file for that once."""
        snapshot, records = stream
        replica = closing(Replica("r0", tmp_path / "r0"))
        self.install(replica, snapshot, records)
        log = replica.log
        assert log.records_between(5, 7) == records[:2]
        walked = len(walks)
        assert replica.handle({
            "type": "append", "term": 1, "records": [records[2][1]],
            "through_seq": 8})["ok"]
        assert log.records_between(5, 8) == records
        assert log.records_between(7, 8) == records[2:]
        assert log.records_between(6, 7) == records[1:2]
        assert log.records_between(0, 99) == records  # clipped to the run
        assert log.records_between(8, 9) == []
        assert len(walks) == walked


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
    """Not once per ship any more: once, for the index, by the end of
    the first commit, and never again however many commits and links
    follow."""
    service, group, _ = quorum
    primary = service.logged.log.path
    service.execute(teach(0))
    first = [chain for path, chain in walks if path == primary]
    for i in range(1, 50):
        service.execute(teach(i))
    assert all(link.acked_seq == 50 for link in group.shipper.links())
    assert [chain for path, chain in walks if path == primary] == first
    assert [chain[:2] for chain in first] == [("_scan", "_index")]


def test_a_ship_reads_its_batch_and_nothing_else(quorum, monkeypatch):
    """One positional read per ship, of the bytes of the one frame
    just committed — at commit 5 as at commit 500."""
    service, _, _ = quorum
    path = service.logged.log.path
    reads: list[bytes] = []
    real = storage.read_span

    def spy(read_path, offset, size):
        data = real(read_path, offset, size)
        if read_path == path:
            reads.append(data)
        return data

    monkeypatch.setattr(storage, "read_span", spy)
    for i in range(1, 501):
        del reads[:]
        service.execute(teach(i))
        if i in (5, 500):
            frame = path.read_bytes().splitlines(keepends=True)[-1]
            assert reads == [frame, frame]  # one per link


def test_a_retried_write_is_served_from_where_it_landed(
        logged, monkeypatch):
    """A write whose fsync fails has landed all the same; the log cuts
    it back before the retry, so the frame is in the file once and the
    index, extended by the retry, serves it from where it landed."""
    log = logged.log
    for i in range(3):
        logged.execute(teach(i))
    assert [seq for seq, _ in log.records_between(0, 3)] == [1, 2, 3]
    real, failed = storage.os.fsync, []

    def fsync_fails_once(fd):
        if not failed:
            failed.append(fd)
            raise OSError("injected fsync failure")
        real(fd)

    monkeypatch.setattr(storage.os, "fsync", fsync_fails_once)
    logged.execute(teach(3))
    monkeypatch.undo()
    logged.execute(teach(4))
    assert failed
    lines = log.path.read_text().splitlines()
    assert [decode_frame(line).seq for line in lines] == [1, 2, 3, 4, 5]
    assert log.records_between(0, 5) == list(enumerate(lines, 1))
    assert log.records_between(3, 5) == [(4, lines[3]), (5, lines[4])]


def test_a_byte_rotting_under_the_run_costs_its_line_only(logged):
    """The run is offsets, not a verdict: a record that rots in place
    after the walk still ships — as text, whatever its bytes are now —
    and the replica's verify is what refuses it."""
    log = logged.log
    for i in range(3):
        logged.execute(teach(i))
    good = log.records_between(0, 3)
    raw = bytearray(log.path.read_bytes())
    raw[len(good[0][1]) + 1 + 20] = 0xFF  # byte 20 of the second line
    log.path.write_bytes(bytes(raw))
    served = log.records_between(0, 3)
    assert [seq for seq, _ in served] == [1, 2, 3]
    assert (served[0], served[2]) == (good[0], good[2])
    with pytest.raises(PersistenceError):
        decode_frame(served[1][1])


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


# -- (c) the run is the file's: a reference walk as the oracle -----------------


def reference_walk(path) -> tuple[list[tuple[int, str]], int]:
    """What ``records_between`` was before the log remembered anything:
    every line of the file that structurally decodes to a record, as
    ``(seq, line)`` in file order — and the index of the first record
    behind the last structural break (a line that does not decode, a
    blank line, a header, a step in the sequence), which is where the
    run a log may ship from starts."""
    records: list[tuple[int, str]] = []
    run = 0
    if not path.exists():
        return records, run
    for raw in path.read_bytes().split(b"\n")[:-1]:
        try:
            line = raw.decode("utf-8").strip()
            frame = decode_frame(line, verify=False)
        except (UnicodeDecodeError, FrameError):
            run = len(records)
            continue
        if frame.kind == "header":
            run = len(records)
            continue
        if len(records) > run and frame.seq != records[-1][0] + 1:
            run = len(records)
        records.append((frame.seq, line))
    return records, run


def agrees_with_the_walk(log: UpdateLog, rng: random.Random, *,
                         behind_the_break: bool = False) -> None:
    """``records_between`` over random ranges (and the whole log)
    against the reference walk of the same file, line for line."""
    records, run = reference_walk(log.path)
    if behind_the_break:
        records = records[run:]
    else:
        log.scan("strict")  # the claim is about logs recovery accepts
    top = max((seq for seq, _ in records), default=0) + 2
    ranges = [(0, top)] + [(rng.randint(-1, top), rng.randint(-1, top))
                           for _ in range(6)]
    for lo, hi in ranges:
        assert log.records_between(lo, hi) \
            == [item for item in records if lo < item[0] <= hi], (lo, hi)


@pytest.mark.parametrize("seed", range(8))
def test_records_between_is_the_reference_walk(seed, logged, tmp_path,
                                               closing, monkeypatch):
    rng = random.Random(seed)
    log = logged.log
    monkeypatch.setattr(wal_module, "APPEND_BACKOFF", 0.0)
    snapshot = tmp_path / "snapshot.json"
    count = iter(range(10**6))

    def append():
        logged.execute(teach(next(count)))

    def aborted():
        FAULTS.arm("wal.apply.before", ErrorFault(times=1))
        try:
            with pytest.raises(RuntimeError):
                append()
        finally:
            FAULTS.disarm_all()

    def exhausted():
        """No attempt writes a byte; the claim is given back."""
        FAULTS.arm("storage.append.payload",
                   TransientError(times=wal_module.APPEND_RETRIES + 1))
        try:
            with pytest.raises(PersistenceError):
                append()
        finally:
            FAULTS.disarm_all()

    def fold():
        checkpoint(logged, snapshot)

    def fence():
        log.truncate_to(log.last_seq() - rng.randint(0, 3))

    def tear():
        """A crash's fragment behind the last record, asked about
        while it is there, then repaired."""
        logged.close()
        with log.path.open("ab") as handle:
            handle.write(b'{"seq": 9, "ent')
        agrees_with_the_walk(log, rng)
        assert log.discard_torn_tail()

    def second():
        """Another log object on the path walks for itself."""
        other = closing(UpdateLog(log.path))
        agrees_with_the_walk(other, rng)

    steps = [append] * 6 + [aborted, exhausted, fold, fence, tear, second]
    agrees_with_the_walk(log, rng)
    for _ in range(60):
        rng.choice(steps)()
        agrees_with_the_walk(log, rng)
    # Every frame served is the file's, byte for byte.
    frames = log.path.read_bytes().splitlines()
    for _, line in log.records_between(0, log.last_seq()):
        assert line.encode("utf-8") in frames


def what_it_knows(log: UpdateLog) -> tuple:
    """Every question the index answers, ``records_between`` included."""
    health = log.health()
    del health["path"]
    return (log.last_seq(), log.shippable_floor(), len(log), health,
            log.tail_is_torn, log.records_between(0, log.last_seq()))


@pytest.mark.parametrize("seed", range(8))
def test_the_live_log_knows_what_a_fresh_one_reads(seed, logged, tmp_path,
                                                   closing, monkeypatch):
    """One memory of the file: after every step — its own writes, the
    ones that fail and are retried or given up, renames, and a torn or
    unterminated tail left while it was closed — the live log answers
    exactly what a log opened on the file now does."""
    rng = random.Random(seed)
    log = logged.log
    monkeypatch.setattr(wal_module, "APPEND_BACKOFF", 0.0)
    snapshot = tmp_path / "snapshot.json"
    count = iter(range(10**6))

    def append():
        logged.execute(teach(next(count)))

    def failing(point, fault, error=None):
        FAULTS.arm(point, fault)
        try:
            if error is None:
                append()
            else:
                with pytest.raises(error):
                    append()
        finally:
            FAULTS.disarm_all()

    def aborted():
        failing("wal.apply.before", ErrorFault(times=1), RuntimeError)

    def flaky_fsync():
        """The record is written, its fsync fails once, the retry
        lands."""
        failing("storage.append.before-fsync", TransientError(times=1))

    def exhausted():
        """Every attempt writes the record and fails; each is cut."""
        failing("storage.append.before-fsync",
                TransientError(times=wal_module.APPEND_RETRIES + 1),
                PersistenceError)

    def fold():
        checkpoint(logged, snapshot)

    def fence():
        log.truncate_to(log.last_seq() - rng.randint(0, 3))

    def tear():
        logged.close()
        with log.path.open("ab") as handle:
            handle.write(b'{"seq": 9, "ent')

    def unterminated():
        logged.close()
        raw = log.path.read_bytes() if log.path.exists() else b""
        if raw.endswith(b"\n"):
            log.path.write_bytes(raw[:-1])

    steps = [append] * 6 + [aborted, flaky_fsync, exhausted, fold, fence,
                            tear, unterminated]
    for _ in range(60):
        rng.choice(steps)()
        assert what_it_knows(log) == what_it_knows(
            closing(UpdateLog(log.path)))
    append()
    log.scan("strict")


def _cut_in_half(lines, at):
    lines[at] = lines[at][:len(lines[at]) // 2]


def _blank_line(lines, at):
    lines.insert(at, b"")


def _lost_line(lines, at):
    del lines[at]


def _stray_header(lines, at):
    lines.insert(at, wal_module._frame(
        0, 0, "header", {"next_seq": 1}).encode("utf-8"))


def _rotten_line(lines, at):
    lines[at] = _rotten_byte(lines[at].decode("utf-8"))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("damage", [
    _cut_in_half, _blank_line, _lost_line, _stray_header, _rotten_line])
def test_behind_a_break_it_is_the_walk_after_the_break(
        damage, seed, logged, closing):
    rng = random.Random(seed)
    for i in range(12):
        logged.execute(teach(i))
    logged.close()
    lines = logged.log.path.read_bytes().splitlines()
    at = rng.randint(1, 10)
    damage(lines, at)
    logged.log.path.write_bytes(b"\n".join(lines) + b"\n")
    log = closing(UpdateLog(logged.log.path))
    records, run = reference_walk(log.path)
    assert 0 < run < len(records)  # the break is interior
    agrees_with_the_walk(log, rng, behind_the_break=True)
    # Never a hole: what ships is consecutive and ends at the last
    # record; appends extend it from there.
    for i in range(12, 16):
        log.append(teach(i))
        served = log.records_between(0, 99)
        assert [seq for seq, _ in served] \
            == list(range(served[0][0], log.last_seq() + 1))
        agrees_with_the_walk(log, rng, behind_the_break=True)


def test_a_replica_behind_a_break_converges_by_snapshot(tmp_path,
                                                        closing):
    """End to end: the primary's log loses its third line, a replica
    that holds nothing yet comes back. Records 4..6 alone would leave
    it acked at 6 without ``(t2, c2)``; it is brought up by snapshot
    instead, and its own log recovers."""
    db = pupil_database()
    path = tmp_path / "wal.log"
    logged = closing(LoggedDatabase(db, path))
    group = closing(ReplicationGroup("quorum", ack_timeout=10.0,
                                     retry_interval=0.001))
    group.attach_primary(logged)
    for name in ("r0", "r1"):
        group.add_replica(name, RecordingReplica(name, tmp_path / name))
    late = group.replica("r1")
    late.crash()
    for i in range(6):
        group.on_commit(logged.execute(teach(i)))
    assert group.shipper.link("r1").acked_seq == 0
    logged.close()
    lines = path.read_bytes().splitlines()
    _cut_in_half(lines, 2)
    path.write_bytes(b"\n".join(lines) + b"\n")
    # The primary comes back over the damaged file with a new log
    # object; the link to the late replica carries over.
    group.attach_primary(closing(LoggedDatabase(db, path)))
    late.restart()
    del late.appends[:]  # what it was sent while it was down
    assert group.sync_all()["lagging"] == []
    assert late.applied_seq == 6
    assert late.appends == []  # nothing reached it as an append
    assert states_diff(db, late.db) is None
    late.log.scan("strict")


# -- a read races a rename ----------------------------------------------------


def test_reads_racing_renames_never_cross_generations(logged, tmp_path):
    """One thread commits and folds, another keeps asking for the last
    three records: whatever comes back is the record it is labelled
    as — never bytes found at an old generation's offsets in the new
    file — and no call raises."""
    log = logged.log
    snapshot = tmp_path / "snapshot.json"
    stop = time.monotonic() + 2.0
    failures: list[BaseException] = []
    served = []

    def write() -> None:
        try:
            i = 0
            while time.monotonic() < stop:
                for _ in range(rng.randint(1, 6)):
                    logged.execute(teach(i))
                    i += 1
                checkpoint(logged, snapshot)
        except BaseException as exc:  # noqa: BLE001 - reported below
            failures.append(exc)

    def read() -> None:
        try:
            while time.monotonic() < stop:
                last = log.last_seq()
                records = log.records_between(last - 3, last)
                for seq, line in records:
                    assert decode_frame(line, verify=False).seq == seq
                served.append(len(records))
        except BaseException as exc:  # noqa: BLE001 - reported below
            failures.append(exc)

    rng = random.Random(0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        threads = [threading.Thread(target=write),
                   threading.Thread(target=read),
                   threading.Thread(target=read)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert any(served)  # some reads did land on records
    # Quiescent again, the log agrees with its file.
    agrees_with_the_walk(log, rng)
