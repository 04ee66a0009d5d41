"""Seeded serializability properties of the concurrent service.

The oracle is the same as the chaos soak's: whatever interleaving the
scheduler produced, replaying the service's commit-ordered operation
log sequentially over an identically seeded fresh instance must
reproduce the live state *exactly* — tables, NC registry, flags and
indexed-null counters included. The global write token makes the
commit order total, which is what licenses the comparison.
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import ReproError
from repro.faults.harness import replay, states_diff
from repro.faults.soak import soak_database
from repro.fdb.wal import recover
from repro.fdb import persistence
from repro.service import DatabaseService, RetryPolicy
from repro.workloads.generator import WorkloadConfig, random_updates

SEEDS = [0, 1, 7]


def _replay(seed: int, ops):
    return replay(soak_database(seed), ops)


@pytest.mark.parametrize("seed", SEEDS)
def test_concurrent_service_is_serializable(seed, tmp_path, closing):
    threads = 6
    ops_per_thread = 15
    db = soak_database(seed)
    snapshot = tmp_path / "snapshot.json"
    wal_path = tmp_path / "wal.jsonl"
    persistence.save(db, snapshot, wal_applied=0)
    service = closing(DatabaseService(
        db,
        log=wal_path,
        lock_timeout=0.5,
        retry=RetryPolicy(max_attempts=6, base_delay=0.002,
                          max_delay=0.05, jitter=0.002),
        max_concurrent=threads,
        seed=seed,
    ))
    # Streams are pregenerated against the seed instance so every run
    # with one seed submits the identical multiset of updates.
    streams = [
        random_updates(db, ops_per_thread,
                       WorkloadConfig(seed=seed * 1000 + worker,
                                      value_pool=10))
        for worker in range(threads)
    ]
    harness_errors: list[BaseException] = []

    def run(stream):
        for update in stream:
            try:
                service.execute(update)
            except ReproError:
                # Shed/timed-out requests are legitimate outcomes; the
                # oracle only covers what *committed*.
                pass
            except BaseException as exc:  # pragma: no cover
                harness_errors.append(exc)

    pool = [threading.Thread(target=run, args=(stream,))
            for stream in streams]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join(60.0)
    assert not any(thread.is_alive() for thread in pool)
    assert harness_errors == []
    service.drain()

    committed = service.committed_ops()
    assert committed, "nothing committed — the test exercised nothing"
    # Property 1: live state == sequential replay of the commit log.
    assert states_diff(_replay(seed, committed), db) is None
    # Property 2: crash-recovering from snapshot + WAL reproduces the
    # same state — the concurrent path kept the log exact too.
    report = recover(snapshot, wal_path, policy="strict")
    assert states_diff(report.db, db) is None


def test_interleaved_reads_never_observe_partial_propagation():
    """Readers hold cluster locks: a derived read during concurrent
    base writes sees only committed states, so every observed verdict
    must be reproducible from some replay prefix."""
    seed = 3
    db = soak_database(seed)
    service = DatabaseService(db, lock_timeout=0.5,
                              retry=RetryPolicy(max_attempts=6,
                                                base_delay=0.002))
    stop = threading.Event()
    observed: list[int] = []
    errors: list[BaseException] = []

    def reader():
        try:
            while not stop.is_set():
                extension = service.extension("va")
                observed.append(len(tuple(extension)))
        except BaseException as exc:  # pragma: no cover
            errors.append(exc)

    writer_stream = random_updates(
        db, 40, WorkloadConfig(seed=seed, value_pool=8))
    reader_thread = threading.Thread(target=reader)
    reader_thread.start()
    try:
        for update in writer_stream:
            try:
                service.execute(update)
            except ReproError:
                pass
    finally:
        stop.set()
        reader_thread.join(30.0)
    assert errors == []
    assert observed, "reader never ran"
