"""E16 — service-level request latency under mixed concurrent traffic.

The paper's update machinery is single-threaded; the service layer
wraps it in admission control, cluster locks and retry. This bench
measures what a *caller* of that stack sees: per-operation-family
latency percentiles (p50/p95/p99 from the ``service.red.*``
log-bucketed histograms), plus the overload signals — requests shed at
the gate and retries burned on lock contention — under a seeded
mixed read/write/read-modify-write workload on worker threads.

The reads are base-fact ``truth_of`` on ``teach`` and derived
``truth_of`` on ``pupil``, scanned twice first so its maintained
extension is kept (:mod:`repro.fdb.memo`): a pupil read with no change
waiting is a lookup under the memo's lock alone, one after a write
applies the write under the cluster's shared lock.

The timed rounds run with instrumentation off (the production fast
path); the percentile/shed/retry numbers come from one instrumented
replay of the same traffic outside the clock, exactly the E10 idiom.
Contention-dependent numbers (retries, sheds, lock timeouts and
wake-ups, SLO/breaker transitions, which pupil reads find a change
waiting) vary run to run by scheduling, so the attached snapshot is
taken from a separate counting pass: the same traffic, unscaled, the
workers one after another, so every counter in the record repeats
exactly and is the same at every scale.
"""

from __future__ import annotations

import random
import tempfile
import threading
from pathlib import Path

from repro.bench.scale import scaled
from repro.errors import ServiceError
from repro.fdb.updates import Update
from repro.obs.hooks import OBS
from repro.service import DatabaseService
from repro.workloads.university import pupil_database

WORKERS = scaled(4, minimum=2)
OPS_PER_WORKER = scaled(60, minimum=12)
COUNTED_WORKERS, COUNTED_OPS = 4, 60  # the counting pass (unscaled)
# More students of math than a worker's writes between two pupil reads:
# a memo with fewer chains than the changes waiting drops them all.
STUDENTS = 40

# Counter prefixes whose values depend on thread scheduling, not on
# the workload: never let them into the compared snapshot.
VOLATILE_PREFIXES = (
    "service.retries",
    "service.shed",
    "service.lock.timeouts",
    "service.lock.wakeups",
    "service.breaker.",
    "slo.",
    "fdb.wal.retries",
)


def _traffic(service: DatabaseService, worker: int, ops: int) -> None:
    """One worker's seeded op mix: 30% base and 20% derived point
    reads, 40% unique inserts, 10% read-modify-write. Shed requests
    are expected under a small gate and simply counted."""
    rng = random.Random(1000 + worker)
    for i in range(ops):
        roll = rng.random()
        try:
            if roll < 0.3:
                service.truth_of("teach", "euclid", "math")
            elif roll < 0.5:
                service.truth_of("pupil", "euclid", f"s{i % STUDENTS}")
            elif roll < 0.9:
                service.execute(
                    Update.ins("teach", f"w{worker}t{i}", f"c{worker}_{i}")
                )
            else:
                service.read_modify_write(
                    ("class_list",),
                    lambda db, w=worker, j=i: Update.ins(
                        "class_list", f"rmw{w}_{j}", f"s{w}_{j}"
                    ),
                )
        except ServiceError:
            pass  # shed / read-only / timeout: the overload path itself


def _service(log_dir: Path, tag: str) -> DatabaseService:
    """The Section 4.2 lane with ``STUDENTS`` more pupils of math, its
    pupil memo kept (a function's second scan keeps it)."""
    db = pupil_database()
    db.load("class_list", (("math", f"s{i}") for i in range(STUDENTS)))
    service = DatabaseService(
        db,
        log=log_dir / f"wal_{tag}.jsonl",
        max_concurrent=max(2, WORKERS // 2),
        max_queue=WORKERS * OPS_PER_WORKER,
    )
    for _ in range(2):
        service.extension("pupil")
    return service


def _run_traffic(log_dir: Path, tag: str) -> DatabaseService:
    service = _service(log_dir, tag)
    threads = [
        threading.Thread(target=_traffic, args=(service, w, OPS_PER_WORKER))
        for w in range(WORKERS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return service


def _count_traffic(log_dir: Path) -> dict:
    """The counting pass: every worker's ops, unscaled, one worker after
    another with OBS on; returns the filtered snapshot."""
    with OBS.collecting():
        service = _service(log_dir, "counted")
        for worker in range(COUNTED_WORKERS):
            _traffic(service, worker, COUNTED_OPS)
        service.close()
        return _filtered_snapshot()


def _filtered_snapshot() -> dict:
    from repro.obs.export import snapshot

    data = snapshot()
    counters = data.get("metrics", {}).get("counters", {})
    data["metrics"]["counters"] = {
        name: value for name, value in counters.items()
        if not name.startswith(VOLATILE_PREFIXES)
    }
    return data


def test_bench_service_mixed_traffic(benchmark, report):
    tags = iter(range(10_000))
    with tempfile.TemporaryDirectory() as tmp:
        log_dir = Path(tmp)

        def run():
            service = _run_traffic(log_dir, f"t{next(tags)}")
            service.close()
            return service

        was_enabled, was_tracing = OBS.enabled, OBS.tracing
        OBS.disable()  # timed rounds take the production fast path
        try:
            benchmark(run)
        finally:
            if was_enabled:
                OBS.enable(tracing=was_tracing)

        # Instrumented replay of the same traffic, outside the clock.
        with OBS.collecting():
            service = _run_traffic(log_dir, "replay")
            committed = len(service.committed_ops())
            stats = service.stats()
            service.close()
            metrics = OBS.metrics.snapshot()
        data = _count_traffic(log_dir)

    report.line(
        f"E16 -- service request latency ({WORKERS} workers x "
        f"{OPS_PER_WORKER} ops, 50/40/10 read/execute/rmw mix; reads "
        f"30 base, 20 derived)"
    )
    report.line()
    histograms = metrics.get("histograms", {})
    counters = metrics.get("counters", {})
    families = sorted(
        name.split(".")[2] for name in counters
        if name.startswith("service.red.") and name.endswith(".requests")
    )
    rows = []
    latency = {}
    for family in families:
        hist = histograms.get(f"service.red.{family}.duration_seconds", {})
        latency[family] = {
            "requests": counters.get(f"service.red.{family}.requests", 0),
            "errors": counters.get(f"service.red.{family}.errors", 0),
            "p50_seconds": hist.get("p50"),
            "p95_seconds": hist.get("p95"),
            "p99_seconds": hist.get("p99"),
        }
        rows.append((
            family,
            str(latency[family]["requests"]),
            str(latency[family]["errors"]),
            *(f"{hist.get(p) * 1000:.3f}ms" if hist.get(p) is not None
              else "-" for p in ("p50", "p95", "p99")),
        ))
    report.table(("family", "requests", "errors", "p50", "p95", "p99"),
                 rows)
    report.line()
    report.line(
        f"committed: {committed} ops; overload signals (informational, "
        f"not compared): shed={stats['shed']} "
        f"retries={stats.get('retries', 0)} "
        f"lock_timeouts={stats.get('lock_timeouts', 0)}"
    )
    report.line(
        f"slo: healthy={stats['slo_healthy']} "
        f"raised={stats['slo_alerts_raised']} "
        f"cleared={stats['slo_alerts_cleared']}"
    )
    assert committed > 0, "replay committed nothing"
    for family in ("read", "execute"):
        assert latency.get(family, {}).get("requests"), \
            f"no {family} traffic recorded"
    data["service_latency"] = latency
    report.attach(data)
