"""Observability of the durability path, under fault injection.

The recovery and checkpoint procedures emit ``fdb.recovery.*`` /
``fdb.wal.*`` counters and ``recovery.*`` / ``checkpoint.*`` action
records. These tests assert those signals are emitted accurately —
against clean runs first, then under the :mod:`repro.faults` crash
harness, where the counters must agree with what the recovery report
says happened.
"""

from __future__ import annotations

import pytest

from repro.faults import FAULTS, CrashFault, SimulatedCrash, TornWrite
from repro.faults.harness import run_scenario
from repro.fdb import persistence
from repro.fdb.updates import Update
from repro.fdb.wal import LoggedDatabase, UpdateLog, checkpoint, recover
from repro.obs import OBS, RingBufferSink
from repro.workloads.university import pupil_database


def _scrub():
    OBS.disable()
    OBS.reset()
    OBS.metrics.clear()
    OBS.events.clear_sinks()
    FAULTS.disarm_all()


@pytest.fixture(autouse=True)
def clean_state():
    _scrub()
    yield
    _scrub()


def _logged(tmp_path):
    db = pupil_database()
    snapshot = tmp_path / "snapshot.json"
    persistence.save(db, snapshot)
    return LoggedDatabase(db, UpdateLog(tmp_path / "wal.log")), snapshot


UPDATES = (
    Update.ins("teach", "gauss", "math"),
    Update.delete("class_list", "math", "bill"),
)


class TestCleanRunSignals:
    def test_recovery_counters_match_report(self, tmp_path):
        logged, snapshot = _logged(tmp_path)
        for update in UPDATES:
            logged.execute(update)
        logged.close()
        OBS.enable()
        report = recover(snapshot, logged.log.path)
        assert report.entries_applied == len(UPDATES)
        counters = OBS.metrics.snapshot()["counters"]
        assert counters["fdb.recovery.runs"] == 1
        assert counters["fdb.recovery.records_applied"] == len(UPDATES)
        assert counters.get("fdb.recovery.records_skipped", 0) == 0
        assert "fdb.recovery.torn_tails" not in counters

    def test_recovery_actions_narrate_the_replay(self, tmp_path):
        logged, snapshot = _logged(tmp_path)
        for update in UPDATES:
            logged.execute(update)
        logged.close()
        sink = OBS.events.add_sink(RingBufferSink())
        OBS.enable()
        recover(snapshot, logged.log.path)
        names = [r.name for r in sink.records]
        assert names[0] == "recovery.start"
        assert names[-1] == "recovery.finish"
        assert names.count("recovery.replay") == len(UPDATES)
        finish = sink.records[-1]
        # In-memory records keep native attr values (stringification
        # happens at JSON serialization time).
        assert finish.attrs["applied"] == len(UPDATES)
        assert finish.attrs["torn_tail"] is False

    def test_checkpoint_actions(self, tmp_path):
        logged, snapshot = _logged(tmp_path)
        logged.execute(UPDATES[0])
        sink = OBS.events.add_sink(RingBufferSink())
        OBS.enable()
        checkpoint(logged, snapshot)
        names = [r.name for r in sink.records]
        assert names == ["checkpoint.snapshot_written",
                         "checkpoint.log_truncated"]
        counters = OBS.metrics.snapshot()["counters"]
        assert counters["fdb.wal.checkpoints"] == 1


class TestUnderFaults:
    def test_torn_tail_counted_and_flagged(self, tmp_path):
        logged, snapshot = _logged(tmp_path)
        logged.execute(UPDATES[0])
        logged.close()
        # Tear the final record mid-line, the classic crash artifact.
        log_path = logged.log.path
        raw = log_path.read_bytes()
        log_path.write_bytes(raw[: len(raw) - 7])
        sink = OBS.events.add_sink(RingBufferSink())
        OBS.enable()
        report = recover(snapshot, log_path, policy="salvage")
        assert report.torn_tail
        counters = OBS.metrics.snapshot()["counters"]
        assert counters["fdb.recovery.torn_tails"] == 1
        finish = [r for r in sink.records
                  if r.name == "recovery.finish"][0]
        assert finish.attrs["torn_tail"] is True

    def test_crash_mid_append_signals_agree(self, tmp_path):
        """Run one crash-matrix cell with instrumentation on: the
        harness's recovery must still round-trip, and the counters
        must match the cell's recovery report."""
        OBS.enable()
        outcome = run_scenario(
            "storage.append.payload", TornWrite(4), tmp_path / "cell"
        )
        assert outcome.fired
        assert outcome.ok, outcome.divergence
        counters = OBS.metrics.snapshot()["counters"]
        assert counters["fdb.recovery.runs"] == 1
        assert (counters.get("fdb.recovery.records_applied", 0)
                == outcome.report.entries_applied)

    def test_crash_after_append_replays_in_flight(self, tmp_path):
        sink = OBS.events.add_sink(RingBufferSink(capacity=4096))
        OBS.enable()
        outcome = run_scenario(
            "wal.append.after", CrashFault(), tmp_path / "cell"
        )
        assert outcome.fired and outcome.crashed
        assert outcome.ok, outcome.divergence
        replays = [r for r in sink.records
                   if r.name == "recovery.replay"]
        assert len(replays) == outcome.report.entries_applied
        # Every replayed record names the update it re-applied.
        assert all(r.attrs.get("entry") for r in replays)

    def test_crash_signal_is_not_a_counter(self, tmp_path):
        """A SimulatedCrash aborts the workload, not the accounting:
        counters collected before the crash survive it."""
        logged, snapshot = _logged(tmp_path)
        OBS.enable()
        logged.execute(UPDATES[0])
        appends_before = OBS.metrics.counter("fdb.wal.appends").value
        assert appends_before >= 1
        FAULTS.arm("wal.append.after", CrashFault())
        with pytest.raises(SimulatedCrash):
            logged.execute(UPDATES[1])
        logged.close()
        FAULTS.disarm_all()
        assert (OBS.metrics.counter("fdb.wal.appends").value
                >= appends_before)
