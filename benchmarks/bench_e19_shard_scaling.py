"""E19 — aggregate write throughput vs shard-lane count.

Every :class:`repro.service.DatabaseService` serialises writes on one
``__write__`` token: the engine's whole-instance rollback and
null-index determinism demand it, so a single service's write
throughput is flat no matter how many clients push. The sharded
facade's claim (``docs/SHARDING.md``) is that derivation clusters let
the keyspace split into independent lanes whose WAL fsyncs — the
dominant, GIL-releasing cost of a durable commit — overlap in real
time.

This bench measures that claim directly: a fixed fleet of writer
threads, each owning one cluster, pushes unique durable inserts
through one :class:`repro.shard.ShardedDatabaseService` at 1, 2, 4
and 8 lanes (clusters pinned round-robin, so the *same* workload
routes to more lanes as the count grows). Reported per lane count:
aggregate ops/s and speedup over the 1-shard baseline — the 1-shard
facade being exactly the unsharded service plus a dictionary lookup,
which keeps the baseline honest.

Timed rounds run with instrumentation off (the production fast path),
per the E10/E16 idiom; the attached snapshot carries the throughput
series keyed by shard count. The speedup is reported next to the
machine's CPU count, not asserted: how far fsyncs overlap depends on
the cores and the disk, so a gate would pass or fail with the box.
Lost writes and writer failures are asserted.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
from pathlib import Path

from repro.bench.scale import scaled
from repro.core.derivation import Derivation
from repro.core.schema import FunctionDef, ObjectType, TypeFunctionality
from repro.fdb.database import FunctionalDatabase
from repro.fdb.updates import Update
from repro.service.service import clusters_of
from repro.shard import ShardedDatabaseService

WORKERS = 8  # one writer per cluster; fixed across shard counts
SHARD_COUNTS = (1, 2, 4, 8)
OPS_PER_WORKER = scaled(150, minimum=25)
WARMUP_OPS = scaled(10, minimum=2)
TRIALS = 3  # throughput is computed over every trial's ops combined


def shard_bench_database() -> FunctionalDatabase:
    """``WORKERS`` independent clusters ``e19c<i>a . e19c<i>b ->
    e19c<i>v`` — full schema on every lane, one cluster per writer."""
    db = FunctionalDatabase()
    mm = TypeFunctionality.MANY_MANY
    for index in range(WORKERS):
        prefix = f"e19c{index}"
        types = [ObjectType(f"E19_{index}_{j}") for j in range(3)]
        first = FunctionDef(f"{prefix}a", types[0], types[1], mm)
        second = FunctionDef(f"{prefix}b", types[1], types[2], mm)
        db.declare_base(first)
        db.declare_base(second)
        db.declare_derived(
            FunctionDef(f"{prefix}v", types[0], types[2], mm),
            Derivation.of(first, second),
        )
    return db


def _pins(shards: int) -> dict[str, int]:
    clusters = sorted(set(clusters_of(shard_bench_database()).values()))
    return {cluster: index % shards
            for index, cluster in enumerate(clusters)}


def _writer(service: ShardedDatabaseService, worker: int, ops: int,
            offset: int, failures: list) -> None:
    name = f"e19c{worker}a"
    try:
        for i in range(offset, offset + ops):
            service.execute(Update.ins(name, f"w{worker}x{i}",
                                       f"w{worker}y{i}"))
    except Exception as exc:  # noqa: BLE001 - report, don't hang join
        failures.append(exc)


def _run_fleet(service: ShardedDatabaseService, ops: int,
               offset: int) -> float:
    failures: list = []
    threads = [
        threading.Thread(target=_writer,
                         args=(service, worker, ops, offset, failures))
        for worker in range(WORKERS)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    assert not failures, f"writer failed: {failures[0]!r}"
    return elapsed


def _measure(shards: int, tmp: Path) -> dict:
    service = ShardedDatabaseService(
        shard_bench_database, shards,
        pins=_pins(shards),
        log_dir=tmp / f"lanes-{shards}",
        service_kwargs=dict(
            lock_timeout=5.0,
            max_concurrent=WORKERS,
            max_queue=WORKERS * 4,
        ),
    )
    try:
        _run_fleet(service, WARMUP_OPS, 0)  # page in lanes + WALs
        offset = WARMUP_OPS
        elapsed = 0.0
        for _ in range(TRIALS):
            elapsed += _run_fleet(service, OPS_PER_WORKER, offset)
            offset += OPS_PER_WORKER
        total = WORKERS * OPS_PER_WORKER * TRIALS
        committed = sum(
            len(service.committed_ops(shard)) for shard in range(shards)
        )
        assert committed == WORKERS * offset, \
            f"lost writes: {committed} != {WORKERS * offset}"
        return {
            "shards": shards,
            "ops": total,
            "seconds": elapsed,
            "ops_per_sec": total / elapsed,
        }
    finally:
        service.close()


def test_shard_scaling(report):
    from repro.obs.hooks import OBS

    results = []
    was_enabled, was_tracing = OBS.enabled, OBS.tracing
    OBS.disable()  # timed rounds take the production fast path
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for shards in SHARD_COUNTS:
                results.append(_measure(shards, Path(tmp)))
    finally:
        if was_enabled:
            OBS.enable(tracing=was_tracing)

    baseline = results[0]["ops_per_sec"]
    for row in results:
        row["speedup"] = row["ops_per_sec"] / baseline
        # Into the canonical BENCH_ artifact as gauges: absolute
        # throughput is hardware-bound and must not be compared as a
        # counter, but the curve should travel with the payload.
        if OBS.enabled:
            OBS.gauge(f"bench.e19.shards.{row['shards']}.ops_per_sec",
                      row["ops_per_sec"])
            OBS.gauge(f"bench.e19.shards.{row['shards']}.speedup",
                      row["speedup"])

    report.line(
        f"E19 -- sharded write throughput ({WORKERS} writers x "
        f"{OPS_PER_WORKER} durable inserts, one cluster per writer, "
        f"clusters pinned round-robin, {os.cpu_count()} CPUs)"
    )
    report.line()
    report.table(
        ("shards", "ops", "seconds", "ops/s", "speedup vs 1"),
        [(row["shards"], row["ops"], f"{row['seconds']:.3f}",
          f"{row['ops_per_sec']:.0f}", f"{row['speedup']:.2f}x")
         for row in results],
    )
    report.line()
    report.line(
        "shape: each lane fsyncs its own WAL, and fsync releases the "
        "GIL — aggregate throughput grows with lanes until the "
        "GIL-held engine/service CPU serialises the rest."
    )

    report.attach({
        "shard_scaling": {
            str(row["shards"]): {
                "ops_per_sec": row["ops_per_sec"],
                "speedup": row["speedup"],
                "seconds": row["seconds"],
                "ops": row["ops"],
            }
            for row in results
        },
        "cpu_count": os.cpu_count(),
        "workers": WORKERS,
        "ops_per_worker": OPS_PER_WORKER,
    })
