"""Tests for write-ahead logging and crash recovery."""

from __future__ import annotations

import pytest

from repro.errors import PersistenceError
from repro.fdb import persistence
from repro.fdb.evaluate import derived_extension
from repro.fdb.logic import Truth
from repro.fdb.updates import Update, UpdateSequence
from repro.fdb.wal import (LoggedDatabase, UpdateLog, checkpoint,
                           recover)
from repro.workloads.university import pupil_database, section_42_updates


@pytest.fixture
def setup(tmp_path):
    """A fresh pupil database, its snapshot, and an empty log."""
    db = pupil_database()
    snapshot = tmp_path / "snapshot.json"
    persistence.save(db, snapshot)
    log_path = tmp_path / "updates.log"
    logged = LoggedDatabase(db, log_path)
    yield logged, snapshot, log_path
    logged.close()


class TestUpdateLog:
    def test_roundtrip_entries(self, tmp_path, closing):
        log = closing(UpdateLog(tmp_path / "log"))
        log.append(Update.ins("teach", "gauss", "cs"))
        log.append(Update.rep("teach", ("a", "b"), ("c", "d")))
        log.append(UpdateSequence((
            Update.delete("pupil", "euclid", "john"),
        ), label="fix"))
        entries = list(log.entries())
        assert [str(e) for e in entries] == [
            "INS(teach, <gauss, cs>)",
            "REP(teach, <a, b>, <c, d>)",
            "BEGIN fix { DEL(pupil, <euclid, john>) }",
        ]
        assert log.health()["entries"] == 3

    def test_missing_file_is_empty(self, tmp_path):
        log = UpdateLog(tmp_path / "nope")
        assert list(log.entries()) == []
        assert not log.health()["tail_torn"]

    def test_tuple_values_survive(self, tmp_path, closing):
        log = closing(UpdateLog(tmp_path / "log"))
        log.append(Update.ins("grade", ("john", "math"), "A"))
        entry = next(iter(log.entries()))
        assert entry.pair == (("john", "math"), "A")

    def test_torn_tail_skipped(self, tmp_path, closing):
        log = closing(UpdateLog(tmp_path / "log"))
        log.append(Update.ins("teach", "a", "b"))
        with log.path.open("a", encoding="utf-8") as handle:
            handle.write('{"kind": "INS", "function": "te')  # crash!
        # Written behind the live log's back: a fresh one sees it.
        assert UpdateLog(log.path).health()["tail_torn"]
        assert len(list(log.entries())) == 1

    def test_interior_corruption_raises(self, tmp_path, closing):
        log = closing(UpdateLog(tmp_path / "log"))
        log.append(Update.ins("teach", "a", "b"))
        with log.path.open("a", encoding="utf-8") as handle:
            handle.write("garbage\n")
        log.append(Update.ins("teach", "c", "d"))
        with pytest.raises(PersistenceError):
            list(log.entries())

    def test_truncate(self, tmp_path, closing):
        log = closing(UpdateLog(tmp_path / "log"))
        log.append(Update.ins("teach", "a", "b"))
        log.truncate()
        assert log.health()["entries"] == 0


class TestLoggedDatabase:
    def test_front_door_logs_and_applies(self, setup):
        logged, _, log_path = setup
        logged.insert("teach", "gauss", "cs")
        logged.delete("teach", "gauss", "cs")
        logged.replace("teach", ("euclid", "math"), ("euclid", "cs"))
        assert UpdateLog(log_path).health()["entries"] == 3
        assert logged.db.truth_of("teach", "euclid", "cs") is Truth.TRUE

    def test_invalid_update_never_logged(self, setup):
        """Validate-then-log: an update the schema cannot apply is
        rejected *before* it reaches the log, so replay can never
        diverge by re-running an update the live database refused."""
        logged, _, log_path = setup
        with pytest.raises(Exception):
            logged.insert("no_such", "a", "b")
        assert UpdateLog(log_path).health()["entries"] == 0

    def test_failed_apply_is_compensated(self, setup):
        """If applying a logged update fails, the memory state rolls
        back and an abort record lands in the log — replay skips the
        entry and matches the live state exactly."""
        from repro.faults import ErrorFault, FAULTS

        logged, snapshot, log_path = setup
        logged.insert("teach", "gauss", "cs")
        FAULTS.arm("wal.apply.before", ErrorFault(times=1))
        try:
            with pytest.raises(RuntimeError):
                logged.insert("teach", "noether", "algebra")
        finally:
            FAULTS.disarm_all()
        # Rolled back in memory...
        assert logged.db.table("teach").get("noether", "algebra") is None
        # ... and compensated on disk: one committed entry remains.
        assert UpdateLog(log_path).health()["entries"] == 1
        report = recover(snapshot, log_path)
        assert report.entries_applied == 1
        assert report.aborted == 1
        for name in logged.db.base_names:
            assert report.db.table(name).rows() == (
                logged.db.table(name).rows()
            )


class TestRecovery:
    def test_replay_reproduces_state(self, setup):
        logged, snapshot, log_path = setup
        for update in section_42_updates():
            logged.execute(update)
        report = recover(snapshot, log_path)
        assert report.entries_applied == 5
        assert not report.torn_tail
        assert derived_extension(report.db, "pupil") == (
            derived_extension(logged.db, "pupil")
        )
        for name in logged.db.base_names:
            assert report.db.table(name).rows() == (
                logged.db.table(name).rows()
            )

    def test_recovery_with_torn_tail(self, setup):
        logged, snapshot, log_path = setup
        logged.insert("teach", "gauss", "cs")
        with log_path.open("a", encoding="utf-8") as handle:
            handle.write('{"kind": "DEL", "fun')  # crash mid-write
        report = recover(snapshot, log_path)
        assert report.torn_tail
        assert report.entries_applied == 1
        assert report.db.truth_of("teach", "gauss", "cs") is Truth.TRUE
        assert "torn tail skipped" in str(report)

    def test_checkpoint_truncates_and_recovers(self, setup, tmp_path):
        logged, snapshot, log_path = setup
        logged.execute(Update.delete("pupil", "euclid", "john"))
        checkpoint(logged, snapshot)
        assert UpdateLog(log_path).health()["entries"] == 0
        logged.insert("class_list", "math", "john")  # post-checkpoint
        report = recover(snapshot, log_path)
        assert report.entries_applied == 1
        # The pre-checkpoint NC state came from the snapshot; the
        # post-checkpoint insert dismantled it on both copies.
        assert len(report.db.ncs) == 0
        assert len(logged.db.ncs) == 0

    def test_sequences_replay_atomically(self, setup):
        logged, snapshot, log_path = setup
        logged.execute(UpdateSequence((
            Update.delete("pupil", "euclid", "john"),
            Update.ins("pupil", "gauss", "bill"),
        )))
        report = recover(snapshot, log_path)
        assert report.entries_applied == 1
        assert report.db.truth_of("pupil", "gauss", "bill") is Truth.TRUE
        assert len(report.db.ncs) == 1

    def test_null_indices_reproduced(self, setup):
        logged, snapshot, log_path = setup
        logged.insert("pupil", "gauss", "bill")  # burns n1
        report = recover(snapshot, log_path)
        assert report.db.table("teach").rows() == (
            logged.db.table("teach").rows()
        )
        assert report.db.nulls.next_index == logged.db.nulls.next_index


def _corrupt_crc(log_path, line_index):
    """Flip the stored CRC of one record, leaving the line parseable."""
    import json

    lines = log_path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[line_index])
    record["crc"] = (record["crc"] + 1) & 0xFFFFFFFF
    lines[line_index] = json.dumps(record, sort_keys=True)
    log_path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestRecoveryEdgeCases:
    def test_empty_log_file(self, setup):
        logged, snapshot, log_path = setup
        log_path.write_text("", encoding="utf-8")
        report = recover(snapshot, log_path)
        assert report.entries_applied == 0
        assert not report.torn_tail

    def test_blank_interior_lines_ignored(self, setup):
        logged, snapshot, log_path = setup
        logged.insert("teach", "gauss", "cs")
        with log_path.open("a", encoding="utf-8") as handle:
            handle.write("\n   \n")
        logged.insert("teach", "noether", "algebra")
        report = recover(snapshot, log_path)
        assert report.entries_applied == 2
        assert report.records_skipped == 0

    def test_checksum_failure_strict_raises(self, setup):
        logged, snapshot, log_path = setup
        logged.insert("teach", "gauss", "cs")
        logged.insert("teach", "noether", "algebra")
        _corrupt_crc(log_path, 0)
        with pytest.raises(PersistenceError, match="checksum"):
            recover(snapshot, log_path, policy="strict")

    def test_checksum_failure_salvage_skips_with_report(self, setup):
        logged, snapshot, log_path = setup
        logged.insert("teach", "gauss", "cs")
        logged.insert("teach", "noether", "algebra")
        _corrupt_crc(log_path, 0)
        report = recover(snapshot, log_path, policy="salvage")
        assert report.entries_applied == 1
        assert report.records_skipped == 1
        assert report.checksum_failures == 1
        assert any("checksum" in note for note in report.notes)
        # The surviving record still replayed.
        assert report.db.truth_of(
            "teach", "noether", "algebra") is Truth.TRUE

    def test_legacy_v1_log_is_refused(self, setup):
        """A line without v/seq/crc — what a pre-checksum (v1) log
        held — cannot be verified, so it is never replayed: strict
        refuses the log, salvage skips the line and says so."""
        import json

        from repro.fdb.wal import _encode_entry

        logged, snapshot, log_path = setup
        logged.insert("teach", "noether", "algebra")
        bare = json.dumps(_encode_entry(Update.ins("teach", "gauss", "cs")))
        for position in ("interior", "tail"):
            lines = log_path.read_text(encoding="utf-8").splitlines()
            lines = [line for line in lines if line != bare]
            lines.insert(0 if position == "interior" else 1, bare)
            log_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            assert not UpdateLog(log_path).health()["tail_torn"]
            with pytest.raises(PersistenceError, match="parse"):
                recover(snapshot, log_path)
            report = recover(snapshot, log_path, policy="salvage")
            assert report.entries_applied == 1
            assert report.records_skipped == 1
            assert not report.torn_tail
            assert any("parse" in note for note in report.notes)
            assert report.db.truth_of(
                "teach", "gauss", "cs") is Truth.FALSE
            assert report.db.truth_of(
                "teach", "noether", "algebra") is Truth.TRUE

    def test_sequence_gap_strict_vs_salvage(self, setup):
        logged, snapshot, log_path = setup
        for update in section_42_updates():
            logged.execute(update)
        lines = log_path.read_text(encoding="utf-8").splitlines()
        del lines[2]  # open a hole in the sequence
        log_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(PersistenceError, match="gap"):
            recover(snapshot, log_path, policy="strict")
        report = recover(snapshot, log_path, policy="salvage")
        assert report.entries_applied == 4
        assert any("gap" in note for note in report.notes)

    @pytest.mark.parametrize("prefix", range(6))
    def test_committed_prefix_replay_is_deterministic(
            self, tmp_path, prefix, closing):
        """The property the whole log design rests on: replaying any
        committed prefix over the snapshot equals applying that prefix
        directly — twice over, since recovery itself must be
        deterministic too."""
        from repro.fdb.updates import apply_update
        from repro.workloads.university import pupil_database

        updates = section_42_updates()[:prefix]
        snapshot = tmp_path / "snapshot.json"
        log_path = tmp_path / "wal.log"
        db = pupil_database()
        persistence.save(db, snapshot)
        logged = closing(LoggedDatabase(db, log_path))
        for update in updates:
            logged.execute(update)

        oracle = pupil_database()
        for update in updates:
            apply_update(oracle, update)

        for _ in range(2):
            report = recover(snapshot, log_path)
            assert report.entries_applied == prefix
            for name in oracle.base_names:
                assert report.db.table(name).rows() == (
                    oracle.table(name).rows()
                )
            assert report.db.nulls.next_index == oracle.nulls.next_index
            assert report.db.ncs.next_index == oracle.ncs.next_index


def _reframed(line, **changes):
    """``line`` with keys changed (``None`` removes one) and the
    checksum made right again: damage a checksum cannot see."""
    import json

    from repro.fdb.wal import _crc_of

    raw = {**json.loads(line), **changes}
    raw = {k: v for k, v in raw.items() if v is not None and k != "crc"}
    payload = {k: v for k, v in raw.items() if k != "v"}
    return json.dumps({**raw, "crc": _crc_of(payload)}, sort_keys=True)


def _refit(line, **changes):
    """``line`` with keys changed and the stored checksum left alone."""
    import json

    raw = {**json.loads(line), **changes}
    return json.dumps({k: v for k, v in raw.items() if v is not None},
                      sort_keys=True)


def _rotten_byte(line):
    """``line`` as bytes with one of them no longer UTF-8."""
    raw = bytearray(line.encode("utf-8"))
    raw[20] = 0xFF
    return bytes(raw)


# One row per way a line can be damaged: how to damage the second of
# three records (the damaged line comes back as text, or as bytes where
# it no longer is text), the problem kind a scan files it under
# ("fatal": a checksum-valid record this reader cannot decode — never
# skipped), whether it reads as a torn tail when it is the final line,
# and what the fence truncation does with it ("seq": judged by the
# sequence number still readable on it; "keep" / "drop": regardless of
# the cut).
DAMAGED_LINES = {
    "truncated-json": (lambda line: line[:len(line) // 2],
                       "parse", True, "drop"),
    "non-utf8-byte": (_rotten_byte, "parse", True, "drop"),
    "non-object-json": (lambda line: "[1, 2]", "parse", True, "keep"),
    "missing-version": (lambda line: _refit(line, v=None),
                        "parse", False, "seq"),
    "foreign-version": (lambda line: _reframed(line, v=3),
                        "parse", False, "seq"),
    "flipped-crc": (lambda line: _refit(line, crc=7),
                    "checksum", False, "seq"),
    "non-integer-seq": (lambda line: _reframed(line, seq="2"),
                        "parse", False, "keep"),
    "non-integer-term": (lambda line: _reframed(line, term="1"),
                         "parse", False, "seq"),
    "undecodable-entry": (lambda line: _reframed(line,
                                                 entry={"kind": "INS"}),
                          "fatal", False, "seq"),
}


def _bootstrapped_replica(workdir, closing):
    """A replica holding the empty pupil database, at sequence 0."""
    from repro.replication import Replica

    replica = closing(Replica("r0", workdir))
    assert replica.handle({
        "type": "snapshot", "term": 1, "wal_applied": 0,
        "snapshot": persistence.dumps(pupil_database(),
                                      wal_applied=0, term=1),
    })["ok"]
    return replica


@pytest.mark.parametrize("case", DAMAGED_LINES)
class TestDamagedLineTable:
    """Every reader of a log line gives a damaged one the same
    verdict: strict and salvage scans, replica receipt, the torn-tail
    test and the fence truncation all go through one decoder."""

    @pytest.fixture
    def damaged(self, case, setup):
        """The log's path, its three lines and the damaged second one
        — all as bytes, which is what a file holds."""
        logged, _, log_path = setup
        for update in section_42_updates()[:3]:
            logged.execute(update)
        logged.close()
        lines = log_path.read_bytes().splitlines()
        damage, kind, tear, cut = DAMAGED_LINES[case]
        bad = damage(lines[1].decode("utf-8"))
        if isinstance(bad, str):
            bad = bad.encode("utf-8")
        return log_path, lines, bad, kind, tear, cut

    def test_scans_classify_it(self, damaged):
        log_path, lines, bad, kind, _, _ = damaged
        log_path.write_bytes(b"\n".join([lines[0], bad, lines[2]]) + b"\n")
        log = UpdateLog(log_path)
        match = "undecodable" if kind == "fatal" else kind
        with pytest.raises(PersistenceError, match=match):
            log.scan("strict")
        if kind == "fatal":
            with pytest.raises(PersistenceError, match="undecodable"):
                log.scan("salvage")
            return
        scan = log.scan("salvage")
        # The damaged line, then the hole it leaves in the sequence.
        assert [(p.line_no, p.kind) for p in scan.problems] \
            == [(2, kind), (3, "gap")]
        assert [r.seq for r in scan.records] == [1, 3]
        assert scan.checksum_failures == (kind == "checksum")
        assert not scan.torn_tail

    def test_as_the_final_line(self, damaged):
        log_path, lines, bad, kind, tear, _ = damaged
        log_path.write_bytes(b"\n".join([lines[0], bad]) + b"\n")
        log = UpdateLog(log_path)
        if kind == "fatal":
            with pytest.raises(PersistenceError, match="undecodable"):
                log.scan("strict")
            return
        if tear:
            log.scan("strict")  # an unacknowledged append: no damage
        else:
            with pytest.raises(PersistenceError, match=kind):
                log.scan("strict")
        scan = log.scan("salvage")
        assert scan.torn_tail is tear is log.health()["tail_torn"]
        assert [p.kind for p in scan.problems] \
            == ["torn-tail" if tear else kind]
        assert log.discard_torn_tail() is tear
        assert (bad in log_path.read_bytes()) is not tear

    def test_a_replica_refuses_it(self, damaged, tmp_path, closing):
        _, lines, bad, _, _, _ = damaged
        replica = _bootstrapped_replica(tmp_path / "r0", closing)
        # The wire carries text: what is not arrives as U+FFFD.
        reply = replica.handle({
            "type": "append", "term": 1,
            "records": [line.decode("utf-8", "replace")
                        for line in (lines[0], bad, lines[2])],
            "through_seq": 3,
        })
        assert not reply["ok"] and "bad-record" in reply["error"]
        # Refused whole: nothing of the batch was kept or applied.
        assert replica.applied_seq == 0
        assert replica.log.health()["entries"] == 0

    def test_fence_truncation(self, damaged):
        log_path, lines, bad, _, _, cut = damaged
        body = b"\n".join([lines[0], bad, lines[2]]) + b"\n"
        log_path.write_bytes(body)
        # A cut above every record: only an unreadable line goes.
        assert UpdateLog(log_path).truncate_to(5) == (cut == "drop")
        assert (bad in log_path.read_bytes()) is (cut != "drop")
        # A cut below the damaged line's own sequence number.
        log_path.write_bytes(body)
        assert UpdateLog(log_path).truncate_to(1) == 2 - (cut == "keep")
        assert (bad in log_path.read_bytes()) is (cut == "keep")
        assert lines[2] not in log_path.read_bytes()

    def test_the_log_goes_on(self, damaged):
        """Damage costs its own line and no reader its life: the
        monitoring view, the position and the next append all still
        work, and shipping resumes at the record behind the break."""
        log_path, lines, bad, kind, _, _ = damaged
        log_path.write_bytes(b"\n".join([lines[0], bad, lines[2]]) + b"\n")
        log = UpdateLog(log_path)
        if kind == "fatal":
            with pytest.raises(PersistenceError, match="undecodable"):
                log.health()
            return
        health = log.health()
        assert (health["last_seq"], health["problems"]) == (3, 2)
        assert health["tail_torn"] is False
        assert log.last_seq() == 3
        try:
            assert log.append(Update.ins("teach", "gauss", "cs")) == 4
        finally:
            log.close()
        assert [r.seq for r in log.scan("salvage").records] == [1, 3, 4]
        # A line only its checksum condemns still decodes structurally
        # and ships (the replica's verify refuses it); any other ends
        # what can be shipped before it: never a batch with a hole.
        assert [seq for seq, _ in log.records_between(0, 4)] \
            == ([1, 2, 3, 4] if kind == "checksum" else [3, 4])


class TestHoledBatch:
    """Six commits and the third one's line cut in half: neither end
    of a link lets records 4..6 through to a replica that lacks 3."""

    @pytest.fixture
    def six(self, setup):
        logged, _, log_path = setup
        for i in range(6):
            logged.execute(Update.ins("teach", f"t{i}", f"s{i}"))
        logged.close()
        return log_path, log_path.read_text().splitlines()

    @pytest.fixture
    def replica(self, tmp_path, closing):
        return _bootstrapped_replica(tmp_path / "r0", closing)

    def test_the_replica_refuses_the_batch_whole(self, six, replica):
        _, lines = six
        reply = replica.handle({
            "type": "append", "term": 1,
            "records": lines[:2] + lines[3:], "through_seq": 6,
        })
        assert reply == {"ok": False, "error": "gap", "applied_seq": 0}
        assert replica.log.health()["entries"] == 0
        assert replica.db.table("teach").get("t0", "s0") is None
        # Its own log still recovers, and the unbroken stream lands.
        replica.log.scan("strict")
        assert replica.handle({
            "type": "append", "term": 1, "records": lines,
            "through_seq": 6})["applied_seq"] == 6

    def test_the_primary_never_composes_it(self, six, replica):
        from repro.replication import SnapshotNeeded, WalShipper
        from repro.replication.transport import InProcessTransport

        log_path, lines = six
        lines[2] = lines[2][:len(lines[2]) // 2]
        log_path.write_text("\n".join(lines) + "\n")
        log = UpdateLog(log_path)
        assert [seq for seq, _ in log.records_between(0, 6)] == [4, 5, 6]
        shipper = WalShipper(log, term=1)
        link = shipper.add("r0", InProcessTransport(replica.handle))
        link.needs_snapshot = False
        with pytest.raises(SnapshotNeeded):
            shipper.ship(link, 6)
        assert replica.applied_seq == 0
        assert replica.log.health()["entries"] == 0


class TestShippingSurface:
    """The log plumbing replication rides on: term stamping, record
    ranges, the checkpoint floor, fence truncation, tear discard and
    the health verdict."""

    def test_term_stamped_and_omitted_when_zero(self, tmp_path, closing):
        import json

        plain = closing(UpdateLog(tmp_path / "plain.log"))
        plain.append(Update.ins("teach", "gauss", "cs"))
        raw = json.loads(
            (tmp_path / "plain.log").read_text().splitlines()[0]
        )
        assert "term" not in raw  # byte-compat with pre-replication logs

        fenced = closing(UpdateLog(tmp_path / "fenced.log", term=3))
        fenced.append(Update.ins("teach", "gauss", "cs"))
        raw = json.loads(
            (tmp_path / "fenced.log").read_text().splitlines()[0]
        )
        assert raw["term"] == 3

    def test_execute_returns_the_wal_seq(self, setup):
        logged, _, _ = setup
        seqs = [logged.execute(u) for u in section_42_updates()[:3]]
        assert seqs == [1, 2, 3]
        assert logged.log.last_seq() == 3

    def test_records_between_skips_headers_and_ships_aborts(
            self, setup):
        from repro.faults import ErrorFault, FAULTS

        logged, snapshot, log_path = setup
        logged.execute(Update.ins("teach", "gauss", "math"))
        checkpoint(logged, snapshot)  # leaves a header record
        logged.execute(Update.ins("teach", "noether", "math"))
        FAULTS.arm("wal.apply.before", ErrorFault(times=1))
        try:
            with pytest.raises(RuntimeError):
                logged.execute(Update.ins("teach", "hilbert", "math"))
        finally:
            FAULTS.disarm_all()
        records = logged.log.records_between(1, logged.log.last_seq())
        seqs = [seq for seq, _ in records]
        assert seqs == sorted(seqs)
        assert 1 not in seqs  # folded by the checkpoint
        import json

        payloads = [json.loads(line) for _, line in records]
        assert all("header" not in p for p in payloads)
        # the failed entry AND its compensation both ship
        assert any("abort_of" in p for p in payloads)
        aborted = {p["abort_of"] for p in payloads if "abort_of" in p}
        assert aborted <= set(seqs)

    def test_shippable_floor_tracks_checkpoints(self, setup):
        logged, snapshot, _ = setup
        assert logged.log.shippable_floor() == 0
        logged.execute(Update.ins("teach", "gauss", "math"))
        logged.execute(Update.ins("teach", "noether", "math"))
        checkpoint(logged, snapshot)
        assert logged.log.shippable_floor() == 2
        assert logged.log.records_between(0, 2) == []

    def test_truncate_to_drops_the_tail(self, setup):
        logged, _, _ = setup
        for update in section_42_updates()[:4]:
            logged.execute(update)
        dropped = logged.log.truncate_to(2)
        assert dropped == 2
        assert logged.log.last_seq() == 2
        assert logged.log.truncate_to(2) == 0  # idempotent
        # appends resume from the cut, not the old high-water mark
        logged2 = LoggedDatabase(pupil_database(), logged.log)
        assert logged.log.append(Update.ins("teach", "x", "y")) == 3

    def test_discard_torn_tail(self, setup):
        logged, _, log_path = setup
        for update in section_42_updates()[:2]:
            logged.execute(update)
        with log_path.open("a", encoding="utf-8") as handle:
            handle.write('{"v": 2, "seq": 3, "cr')  # mid-write crash
        log = UpdateLog(log_path)
        assert log.health()["tail_torn"]
        assert log.discard_torn_tail() is True
        assert not log.health()["tail_torn"]
        assert log.last_seq() == 2
        assert log.discard_torn_tail() is False

    def test_health_verdict(self, setup):
        logged, _, log_path = setup
        logged.log.term = 2
        for update in section_42_updates()[:3]:
            logged.execute(update)
        health = logged.log.health()
        assert health["last_seq"] == 3
        assert health["term"] == 2
        assert health["tail_torn"] is False
        assert health["entries"] == 3
        assert health["aborted"] == 0
        assert health["checksum_failures"] == 0
        with log_path.open("a", encoding="utf-8") as handle:
            handle.write('{"v": 2, "seq": 4, "cr')
        torn = UpdateLog(log_path).health()
        assert torn["tail_torn"] is True

    def test_health_cached_until_log_changes(self, setup, monkeypatch):
        """Monitoring scrapes (/metrics, /health, stats) must not pay
        a full salvage scan per request: health() reads the index one
        scan built, and the log's own appends extend it."""
        logged, _, log_path = setup
        for update in section_42_updates()[:2]:
            logged.execute(update)
        logged.close()
        log = UpdateLog(log_path)
        scans = []
        real_scan = log._scan

        def counting_scan(policy):
            scans.append(policy)
            return real_scan(policy)

        monkeypatch.setattr(log, "_scan", counting_scan)
        try:
            first = log.health()
            assert first["last_seq"] == 2
            assert len(scans) == 1
            assert log.health() == first  # a second scrape: no scan
            assert len(scans) == 1
            # the view still tracks live (non-scan) state
            log.term = 7
            assert log.health()["term"] == 7
            assert len(scans) == 1
            # an append extends the index: still no second scan
            log.append(section_42_updates()[2])
            refreshed = log.health()
            assert refreshed["last_seq"] == 3
            assert refreshed["entries"] == 3
            assert len(scans) == 1
        finally:
            log.close()
