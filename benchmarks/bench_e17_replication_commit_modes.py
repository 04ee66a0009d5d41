"""E17 — replication commit-mode overhead and shipping throughput.

What does waiting for replicas cost a committer? This bench drives
the same seeded insert stream through a WAL-logged primary under each
commit mode — ``async``, ``sync(1)``, ``sync(2)``, ``quorum`` — with
two in-process replicas attached (docs/REPLICATION.md), and reports
per-mode commit latency percentiles (WAL append + apply + replica
acks), the shipping work counters, and a per-replica
ship/wal-append/apply/ack pipeline-stage latency breakdown from one
instrumented replay outside the clock (the E10 idiom). On a healthy in-process network
the stream ships with zero ack timeouts and every replica finishes at
the primary's head sequence — both asserted, so the bench doubles as
a throughput-shaped correctness check.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from repro.bench.scale import scaled
from repro.fdb import persistence
from repro.fdb.updates import Update
from repro.fdb.wal import LoggedDatabase
from repro.replication import Replica, ReplicationGroup
from repro.workloads.university import pupil_database

OPS = scaled(120, minimum=24)
REPLICAS = 2
MODES = ("async", "sync(1)", "sync(2)", "quorum")


def _updates() -> list[Update]:
    return [
        Update.ins("teach", f"f{i % 17}", f"c{i}") for i in range(OPS)
    ]


def _run_mode(workdir: Path, mode: str) -> dict:
    """One full stream under one commit mode; returns per-commit
    latencies and the end-of-run lag view."""
    primary_dir = workdir / f"{mode}-primary".replace("(", "_") \
        .replace(")", "")
    primary_dir.mkdir(parents=True)
    db = pupil_database()
    persistence.save(db, primary_dir / "snapshot.json", wal_applied=0)
    logged = LoggedDatabase(db, primary_dir / "wal.log")
    group = ReplicationGroup(mode, ack_timeout=5.0,
                             retry_interval=0.001)
    group.attach_primary(logged)
    for r in range(REPLICAS):
        group.add_replica(
            f"r{r}",
            Replica(f"r{r}", primary_dir.parent
                    / f"{primary_dir.name}-r{r}"),
        )
    latencies: list[float] = []
    for update in _updates():
        started = time.perf_counter()
        seq = logged.execute(update)
        group.on_commit(seq)
        latencies.append(time.perf_counter() - started)
    head = logged.log.last_seq()
    lag = group.lag()
    logged.close()
    group.close()
    assert head == OPS
    for name, info in lag.items():
        assert info["lag_seq"] == 0, f"{name} finished lagging"
    return {"latencies": latencies, "head": head, "lag": lag}


def _percentiles(samples: list[float]) -> dict:
    ordered = sorted(samples)

    def at(q: float) -> float:
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]

    return {"p50": at(0.50), "p95": at(0.95), "p99": at(0.99)}


def test_bench_replication_commit_modes(benchmark, report):
    from repro.obs.hooks import OBS

    was_enabled, was_tracing = OBS.enabled, OBS.tracing
    OBS.disable()  # timed rounds take the production fast path
    results: dict[str, dict] = {}
    try:
        with tempfile.TemporaryDirectory() as tmp:
            rounds = iter(range(10_000))

            def run():
                base = Path(tmp) / f"round{next(rounds)}"
                for mode in MODES:
                    results[mode] = _run_mode(base, mode)

            benchmark(run)
    finally:
        if was_enabled:
            OBS.enable(tracing=was_tracing)

    # Instrumented replay of one sync(1) stream, outside the clock,
    # for the shipping work counters.
    with OBS.collecting():
        with tempfile.TemporaryDirectory() as tmp:
            _run_mode(Path(tmp) / "replay", "sync(1)")
        from repro.obs.export import snapshot

        data = snapshot()

    report.line(
        f"E17 -- replication commit modes ({OPS} inserts, "
        f"{REPLICAS} in-process replicas)"
    )
    report.line()
    rows = []
    mode_stats = {}
    for mode in MODES:
        pct = _percentiles(results[mode]["latencies"])
        mode_stats[mode] = pct
        rows.append((
            mode,
            str(results[mode]["head"]),
            *(f"{pct[p] * 1000:.3f}ms" for p in ("p50", "p95", "p99")),
        ))
    report.table(("mode", "commits", "p50", "p95", "p99"), rows)
    report.line()
    counters = data.get("metrics", {}).get("counters", {})
    shipped = counters.get("replication.records_shipped", 0)
    applied = counters.get("replication.records_applied", 0)
    report.line(
        f"sync(1) replay: {shipped} records shipped, {applied} "
        f"applied, {counters.get('replication.snapshots_shipped', 0)} "
        f"snapshots, {counters.get('replication.ack_timeouts', 0)} "
        f"ack timeouts"
    )
    assert shipped >= OPS, "the stream was not shipped"
    assert applied >= OPS * REPLICAS, "replicas did not apply the stream"
    assert counters.get("replication.ack_timeouts", 0) == 0

    # Per-stage commit-pipeline breakdown from the replay's log
    # histograms: where inside ship -> wal-append -> apply -> ack the
    # sync(1) commit latency actually goes, per replica.
    histograms = data.get("metrics", {}).get("histograms", {})
    stages = (
        ("ship", "replication.ship.rtt_seconds."),
        ("wal_append", "replication.pipeline.wal_append_seconds."),
        ("apply", "replication.pipeline.apply_seconds."),
        ("ack", "replication.commit.ack_seconds."),
    )
    report.line()
    stage_rows = []
    pipeline_stats: dict[str, dict] = {}
    for r in range(REPLICAS):
        replica = f"r{r}"
        per_stage = {}
        for stage, prefix in stages:
            snap = histograms.get(prefix + replica)
            if not snap or not snap.get("count"):
                continue
            per_stage[stage] = {
                "count": snap["count"],
                "p50_seconds": snap["p50"],
                "p95_seconds": snap["p95"],
                "p99_seconds": snap["p99"],
            }
            stage_rows.append((
                replica, stage, str(snap["count"]),
                f"{snap['p50'] * 1000:.3f}ms",
                f"{snap['p95'] * 1000:.3f}ms",
                f"{snap['p99'] * 1000:.3f}ms",
            ))
        pipeline_stats[replica] = per_stage
        missing = [s for s, _ in stages if s not in per_stage]
        assert not missing, \
            f"{replica} pipeline stages unobserved: {missing}"
    report.table(
        ("replica", "stage", "samples", "p50", "p95", "p99"),
        stage_rows,
    )
    data["replication_pipeline"] = pipeline_stats
    data["replication_latency"] = {
        mode: {f"{p}_seconds": v for p, v in pct.items()}
        for mode, pct in mode_stats.items()
    }
    report.attach(data)
