"""E18 — automatic failover MTTR across lease durations.

How long is the write path down when the primary dies? This bench
kills (isolates) a lease-holding primary under live traffic and
measures the three recovery milestones on a real clock, with the
production renewer and coordinator threads running exactly as the
service runs them (docs/REPLICATION.md):

* **detect** — the primary's lease lapses (its own self-demotion
  instant: from here every local write raises ``LeaseExpired``);
* **elect** — the coordinator's detectors reach the vote quota and
  :meth:`FailoverCoordinator.tick` promotes the best candidate;
* **recover** — the elected replica has attached and committed its
  first new-term write (MTTR proper: writes are accepted again).

The sweep repeats this across lease durations — the protocol's one
real tuning knob — reporting per-duration percentiles, so the
duration ↔ MTTR trade-off (shorter lease, faster recovery, more
heartbeat traffic) is a measured curve rather than folklore. The
timed ``benchmark`` rounds run one full failover at the shortest
duration. Every trial must elect exactly once and lose no acked
commit — asserted, so the bench doubles as a failover-shaped
correctness check.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from repro.bench.scale import scaled
from repro.fdb import persistence
from repro.fdb.updates import Update
from repro.fdb.wal import LoggedDatabase
from repro.replication import (
    FailoverCoordinator,
    LeaseConfig,
    Replica,
    ReplicationGroup,
)
from repro.workloads.university import pupil_database

DURATIONS = (0.25, 0.5, 1.0)
TRIALS = scaled(3, minimum=1)
REPLICAS = 2
WARM_OPS = 5
# The counting pass: failovers with OBS on, outside the timed rounds and
# unscaled, so the record's counters are the same at every scale.
COUNTED_TRIALS = 3
COUNTED_OPS = 20


def _config(duration: float) -> LeaseConfig:
    """The soak's scaling rule: margin, renewal cadence and detection
    cadence all follow the duration."""
    return LeaseConfig(
        duration=duration,
        margin=duration / 8,
        renew_interval=duration / 5,
        check_interval=duration / 20,
    )


def _failover_trial(workdir: Path, cfg: LeaseConfig,
                    warm_ops: int = WARM_OPS) -> dict:
    """One kill → detect → elect → first-new-term-commit cycle after
    ``warm_ops`` acked writes; returns the three latencies (seconds
    from the kill)."""
    workdir.mkdir(parents=True)
    primary_dir = workdir / "primary"
    primary_dir.mkdir()
    db = pupil_database()
    persistence.save(db, primary_dir / "snapshot.json", wal_applied=0)
    logged = LoggedDatabase(db, primary_dir / "wal.log")
    group = ReplicationGroup("sync(1)", ack_timeout=5.0,
                             retry_interval=0.001)
    lease = group.enable_lease(cfg)
    term = group.attach_primary(logged, node="primary")
    coord = FailoverCoordinator(group, cfg)
    for r in range(REPLICAS):
        replica = Replica(f"r{r}", workdir / f"r{r}")
        group.add_replica(replica.name, replica)
        coord.watch(replica)
    lease.start()
    coord.start()
    try:
        acked = []
        for i in range(warm_ops):
            group.check_primary(term)
            seq = logged.execute(Update.ins("teach", f"p{i}", "cs"))
            group.on_commit(seq)
            acked.append(seq)

        killed = time.perf_counter()
        for link in group.shipper.links():
            link.transport.partitioned = True

        poll = max(cfg.check_interval / 4, 0.001)
        budget = killed + cfg.detector_horizon + 10.0
        while lease.held() and time.perf_counter() < budget:
            time.sleep(poll)
        detected = time.perf_counter()
        assert not lease.held(), "primary never self-demoted"

        while not coord.elections and time.perf_counter() < budget:
            time.sleep(poll)
        elected = time.perf_counter()
        assert coord.elections, "no automatic election"
        report = coord.elections[0]
        assert report.applied_seq >= max(acked), \
            "the election fenced below an acked commit"

        chosen = group.replica(report.chosen)
        group.remove_replica(report.chosen)
        new_logged = LoggedDatabase(chosen.db, chosen.wal_path)
        new_term = group.attach_primary(new_logged, node=report.chosen)
        group.check_primary(new_term)
        seq = new_logged.execute(Update.ins("teach", "healer", "math"))
        group.on_commit(seq)
        recovered = time.perf_counter()
        new_logged.close()

        assert len(coord.elections) == 1, "stacked elections"
        return {
            "detect_seconds": detected - killed,
            "elect_seconds": elected - killed,
            "recover_seconds": recovered - killed,
        }
    finally:
        coord.stop()
        lease.stop()
        logged.close()
        group.close()


def _percentiles(samples: list[float]) -> dict:
    ordered = sorted(samples)

    def at(q: float) -> float:
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]

    return {"p50": at(0.50), "p95": at(0.95), "max": ordered[-1]}


def test_bench_failover_mttr(benchmark, report):
    from repro.obs.hooks import OBS

    was_enabled, was_tracing = OBS.enabled, OBS.tracing
    OBS.disable()  # trials take the production fast path
    sweep: dict[float, list[dict]] = {d: [] for d in DURATIONS}
    try:
        with tempfile.TemporaryDirectory() as tmp:
            base = Path(tmp)
            for duration in DURATIONS:
                cfg = _config(duration)
                for trial in range(TRIALS):
                    sweep[duration].append(_failover_trial(
                        base / f"d{duration}-t{trial}", cfg
                    ))

            # The timed rounds: one full failover at the shortest
            # lease — the headline MTTR the comparison tracks.
            rounds = iter(range(10_000))

            def run():
                return _failover_trial(
                    base / f"timed{next(rounds)}",
                    _config(DURATIONS[0]),
                )

            timed = benchmark(run)
    finally:
        if was_enabled:
            OBS.enable(tracing=was_tracing)

    # Counted with OBS on (the runner collects): elections (one per
    # trial), the records shipped to and applied by the replicas, their
    # snapshot catch-ups, and the commits behind them. The rounds above
    # run with OBS off, so without this pass the record holds no counter
    # and a replication regression passes the comparison.
    if OBS.enabled:
        with tempfile.TemporaryDirectory() as tmp:
            for trial in range(COUNTED_TRIALS):
                _failover_trial(Path(tmp) / f"counted{trial}",
                                _config(DURATIONS[0]),
                                warm_ops=COUNTED_OPS)

    report.line(
        f"E18 -- failover MTTR ({TRIALS} trials x "
        f"{len(DURATIONS)} lease durations, {REPLICAS} in-process "
        f"replicas, sync(1), kill under live traffic)"
    )
    report.line()
    rows = []
    curve: dict[str, dict] = {}
    for duration in DURATIONS:
        cfg = _config(duration)
        trials = sweep[duration]
        stats = {
            stage: _percentiles([t[stage] for t in trials])
            for stage in ("detect_seconds", "elect_seconds",
                          "recover_seconds")
        }
        curve[f"{duration:g}"] = {
            "config": {
                "duration": cfg.duration,
                "margin": cfg.margin,
                "renew_interval": cfg.renew_interval,
                "detector_horizon": cfg.detector_horizon,
            },
            "trials": len(trials),
            **stats,
        }
        rows.append((
            f"{duration:g}s",
            f"{cfg.detector_horizon:g}s",
            *(f"{stats[stage]['p50'] * 1000:.0f}ms"
              for stage in ("detect_seconds", "elect_seconds",
                            "recover_seconds")),
            f"{stats['recover_seconds']['max'] * 1000:.0f}ms",
        ))
        # Detection cannot beat the validity window (the lease was
        # freshly renewed at the kill), and election must trail the
        # primary's demotion — the safety gap, observed.
        for t in trials:
            assert t["elect_seconds"] >= t["detect_seconds"], \
                "elected before the primary self-demoted"
            assert t["recover_seconds"] >= t["elect_seconds"]
    report.table(
        ("lease", "horizon", "detect p50", "elect p50",
         "recover p50", "recover max"),
        rows,
    )
    report.line()
    report.line(
        f"timed rounds (lease {DURATIONS[0]:g}s): full failover "
        f"recover = {timed['recover_seconds'] * 1000:.0f}ms "
        f"(detect {timed['detect_seconds'] * 1000:.0f}ms, "
        f"elect {timed['elect_seconds'] * 1000:.0f}ms)"
    )
    report.attach({"failover_mttr": curve,
                   "timed_trial": timed})
