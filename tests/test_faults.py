"""Tests for the fault-injection registry and the crash matrix.

The matrix/sweep tests here run the full harness — every registered
fault point with a crash (and torn-write variants), plus a
byte-granular truncation sweep over the final WAL record — and assert
the acceptance criterion directly: recovery reproduces exactly the
committed prefix, for every cell, with every point actually reached.
"""

from __future__ import annotations

import pytest

from repro.errors import PersistenceError
from repro.faults import (
    FAULTS,
    CrashFault,
    ErrorFault,
    SimulatedCrash,
    TornWrite,
    TransientError,
)
from repro.faults.harness import (
    default_workload,
    run_crash_matrix,
    run_truncation_sweep,
    states_diff,
)
from repro.fdb import persistence, wal
from repro.fdb.updates import Update
from repro.fdb.wal import LoggedDatabase, UpdateLog
from repro.obs import OBS
from repro.workloads.university import pupil_database


@pytest.fixture(autouse=True)
def clean_registry():
    """No test leaves a fault armed behind it."""
    FAULTS.disarm_all()
    yield
    FAULTS.disarm_all()


class TestRegistry:
    def test_catalogue_is_populated(self):
        names = {info.name for info in FAULTS.points()}
        # One representative per instrumented module.
        assert "storage.append.payload" in names
        assert "wal.append.after" in names
        assert "persistence.save.before" in names
        assert "txn.rollback.before-restore" in names

    def test_register_is_idempotent(self):
        before = FAULTS.points()
        for info in before:
            FAULTS.register(info.name, "other text", durable=True)
        assert FAULTS.points() == before

    def test_fire_unregistered_raises(self):
        with pytest.raises(KeyError):
            FAULTS.fire("no.such.point")

    def test_unarmed_fire_is_noop_but_counted(self):
        before = FAULTS.hits("wal.append.before")
        FAULTS.fire("wal.append.before")
        assert FAULTS.hits("wal.append.before") == before + 1

    def test_injected_context_manager_disarms(self):
        with FAULTS.injected("wal.append.before", CrashFault()):
            with pytest.raises(SimulatedCrash) as info:
                FAULTS.fire("wal.append.before")
            assert info.value.point == "wal.append.before"
        FAULTS.fire("wal.append.before")  # disarmed again

    def test_simulated_crash_evades_except_exception(self):
        FAULTS.arm("wal.append.before", CrashFault())
        with pytest.raises(SimulatedCrash):
            try:
                FAULTS.fire("wal.append.before")
            except Exception:  # noqa: BLE001 - the point of the test
                pytest.fail("SimulatedCrash must not be an Exception")

    def test_error_fault_exhausts(self):
        fault = ErrorFault(times=2)
        FAULTS.arm("wal.apply.before", fault)
        for _ in range(2):
            with pytest.raises(RuntimeError):
                FAULTS.fire("wal.apply.before")
        FAULTS.fire("wal.apply.before")  # third firing passes


class TestTransientRetry:
    def test_append_retries_through_transient_errors(self, tmp_path, closing,
                                                     monkeypatch):
        monkeypatch.setattr(wal, "APPEND_BACKOFF", 0.0)
        log = closing(UpdateLog(tmp_path / "log"))
        FAULTS.arm("storage.append.before", TransientError(times=2))
        OBS.enable()
        try:
            log.append(Update.ins("teach", "gauss", "cs"))
            retries = OBS.metrics.counter("fdb.wal.retries").value
        finally:
            OBS.disable()
            OBS.reset()
            OBS.metrics.clear()
        assert retries == 2
        assert len(log) == 1  # exactly one record despite the retries

    def test_append_gives_up_after_retry_budget(self, tmp_path, closing,
                                                monkeypatch):
        monkeypatch.setattr(wal, "APPEND_RETRIES", 2)
        monkeypatch.setattr(wal, "APPEND_BACKOFF", 0.0)
        log = closing(UpdateLog(tmp_path / "log"))
        FAULTS.arm("storage.append.before", TransientError(times=10))
        with pytest.raises(PersistenceError, match="3 attempts"):
            log.append(Update.ins("teach", "gauss", "cs"))

    def test_torn_write_leaves_prefix(self, tmp_path, closing):
        log = closing(UpdateLog(tmp_path / "log"))
        log.append(Update.ins("teach", "gauss", "cs"))
        size_before = log.path.stat().st_size
        FAULTS.arm("storage.append.payload", TornWrite(5))
        with pytest.raises(SimulatedCrash):
            log.append(Update.ins("teach", "noether", "algebra"))
        FAULTS.disarm_all()
        assert log.path.stat().st_size == size_before + 5
        assert log.tail_is_torn
        assert len(list(log.entries())) == 1


class TestCrashMatrix:
    def test_every_point_zero_divergence(self, tmp_path):
        """The acceptance criterion: a simulated kill at every
        registered fault point (plus torn-write variants) recovers to
        exactly the committed prefix."""
        outcomes = run_crash_matrix(tmp_path)
        failures = [str(o) + (f" :: {o.divergence}" if o.divergence
                              else "")
                    for o in outcomes if not o.ok]
        assert failures == []
        # Coverage: every cell fired its point, and every registered
        # single-node point appears in the matrix (repl.* points fire
        # only in a replicated topology; the chaos harness,
        # repro.faults.soak with replicas > 0, owns them).
        tested = {o.point for o in outcomes}
        for info in FAULTS.points():
            if info.name.startswith("repl."):
                continue
            assert info.name in tested

    def test_truncation_sweep_zero_divergence(self, tmp_path):
        """Every byte-truncation offset of the final WAL record
        recovers to the state without that record; only the complete
        record (newline aside) yields the full state."""
        outcomes = run_truncation_sweep(tmp_path)
        assert len(outcomes) > 100  # byte-granular, not spot checks
        failures = [str(o) + f" :: {o.divergence}"
                    for o in outcomes if not o.ok]
        assert failures == []
        # The torn-tail test is the scan's verdict, at every offset:
        # a proper prefix of the record is a tear, the previous
        # record's end and the whole record are not.
        raw = (tmp_path / "sweep-base" / "wal.log").read_bytes()
        last = raw.rstrip(b"\n").rsplit(b"\n", 1)[-1]
        torn_path = tmp_path / "offset.log"
        assert len(outcomes) == len(last) + 1
        for offset, outcome in enumerate(outcomes):
            torn_path.write_bytes(raw[:len(raw) - len(last) - 1 + offset])
            log = UpdateLog(torn_path)
            assert (log.tail_is_torn
                    is log.scan("salvage").torn_tail
                    is outcome.report.torn_tail
                    is (0 < offset < len(last))), offset

    def test_workload_exercises_checkpoint_and_sequences(self):
        steps = default_workload()
        kinds = [step[0] for step in steps]
        assert "checkpoint" in kinds
        assert any(step[0] == "update" and hasattr(step[1], "label")
                   for step in steps)

    def test_states_diff_reports_first_difference(self):
        left = pupil_database()
        right = pupil_database()
        assert states_diff(left, right) is None
        from repro.fdb.updates import apply_update

        apply_update(right, Update.ins("teach", "gauss", "cs"))
        diff = states_diff(left, right)
        assert diff is not None and "teach" in diff


class TestCheckpointCrashWindow:
    def test_crash_between_snapshot_and_truncate(self, tmp_path, closing):
        """The double-apply window: the new snapshot already folds the
        log in, the old log still exists. Recovery must not replay the
        folded records a second time."""
        from repro.fdb.wal import checkpoint, recover

        snapshot = tmp_path / "snapshot.json"
        db = pupil_database()
        persistence.save(db, snapshot)
        logged = closing(LoggedDatabase(db, tmp_path / "wal.log"))
        logged.insert("pupil", "gauss", "bill")  # burns a null index
        FAULTS.arm("wal.checkpoint.after-snapshot", CrashFault())
        with pytest.raises(SimulatedCrash):
            checkpoint(logged, snapshot)
        FAULTS.disarm_all()
        assert len(UpdateLog(tmp_path / "wal.log")) == 1  # not truncated
        report = recover(snapshot, tmp_path / "wal.log")
        assert report.already_checkpointed == 1
        assert report.entries_applied == 0
        assert states_diff(logged.db, report.db) is None


class TestLatencyFault:
    def test_stalls_then_passes_through(self):
        import time

        from repro.faults import LatencyFault

        fault = LatencyFault(delay=0.02, times=2)
        start = time.monotonic()
        fault.trigger("storage.append.payload")
        fault.trigger("storage.append.payload")
        stalled = time.monotonic() - start
        assert stalled >= 0.04
        start = time.monotonic()
        fault.trigger("storage.append.payload")  # budget spent: no-op
        assert time.monotonic() - start < 0.02

    def test_armed_at_storage_point_slows_wal_append(self, tmp_path, closing):
        import time

        from repro.faults import LatencyFault

        db = pupil_database()
        logged = closing(LoggedDatabase(db, tmp_path / "wal.jsonl"))
        FAULTS.arm("storage.append.payload", LatencyFault(delay=0.03,
                                                          times=1))
        start = time.monotonic()
        logged.execute(Update.ins("teach", "gauss", "cs"))
        assert time.monotonic() - start >= 0.03
        # The write itself still committed.
        assert db.table("teach").get("gauss", "cs") is not None


class TestRegistryThreadSafety:
    def test_transient_budget_exact_under_contention(self):
        import threading

        budget = 16
        threads = 8
        per_thread = 10
        hits_before = FAULTS.hits("wal.append.before")
        FAULTS.arm("wal.append.before", TransientError(times=budget))
        raised = []
        lock = threading.Lock()
        barrier = threading.Barrier(threads)

        def worker():
            mine = 0
            barrier.wait()
            for _ in range(per_thread):
                try:
                    FAULTS.fire("wal.append.before")
                except OSError:
                    mine += 1
            with lock:
                raised.append(mine)

        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(10.0)
        # The shared budget is consumed exactly once per raise: no
        # double-decrement, no lost update.
        assert sum(raised) == budget
        assert (FAULTS.hits("wal.append.before") - hits_before
                == threads * per_thread)

    def test_concurrent_arm_disarm_is_safe(self):
        import threading

        stop = threading.Event()
        errors: list[BaseException] = []

        def churn():
            try:
                while not stop.is_set():
                    FAULTS.arm("wal.append.after",
                               TransientError(times=1))
                    FAULTS.disarm("wal.append.after")
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        def fire():
            try:
                while not stop.is_set():
                    try:
                        FAULTS.fire("wal.append.after")
                    except OSError:
                        pass
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        pool = [threading.Thread(target=churn),
                threading.Thread(target=fire)]
        for t in pool:
            t.start()
        import time

        time.sleep(0.2)
        stop.set()
        for t in pool:
            t.join(5.0)
        assert errors == []
