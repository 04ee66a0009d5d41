"""E20 harness: build one workload's stack, drive one closed-loop
round through the public front door, and check the round against the
oracle.

Every round starts from fresh state in its own working directory
(inside the benchmark's directory: the contract forbids writing
outside the checkout). Clients are threads that block on each reply;
each op is timed with ``perf_counter`` around the public call. Every
``workload.burst`` ops the clients meet at a barrier and one of them
reads the machine's speed (``machine.py``); timings are reported with
that divided out.
"""

from __future__ import annotations

import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.fdb import persistence, wal
from repro.obs.hooks import OBS
from repro.replication import Replica, ReplicationGroup
from repro.service.service import DatabaseService, clusters_of
from repro.shard import ShardedDatabaseService

from machine import Meter, Reading, slowdown
from workloads import (WRITE_CLASSES, Episode, Op, Oracle, OracleError,
                       Workload, call, digest, initial_db, perform,
                       replay_committed, require_same, warmup_count)

SERVICE_KWARGS = dict(lock_timeout=5.0)
RECOVER_CALLS = 5


@dataclass
class Stack:
    """Everything one round built, kept so the epilogue can check it."""

    front: object  # DatabaseService | ShardedDatabaseService
    lanes: list[DatabaseService]
    wal_paths: list[Path] = field(default_factory=list)
    snapshot_paths: list[Path] = field(default_factory=list)
    group: ReplicationGroup | None = None
    replicas: list[Replica] = field(default_factory=list)

    def wal_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.wal_paths if p.exists())

    def replica_wal_bytes(self) -> int:
        return sum(r.wal_path.stat().st_size for r in self.replicas
                   if r.wal_path.exists())


@dataclass
class RoundResult:
    """Times are measured seconds except where "quiet" says they are
    seconds of the quiet machine: measured / ``machine.slowdown``."""

    setup_s: float  # quiet
    wall_s: float  # the bursts, first op to last reply; no probe time
    quiet_wall_s: float
    thread_s: float  # sum of the client threads' time inside bursts
    attempted: int
    failed: int
    latencies: dict[str, list[float]]  # quiet
    slowdowns: list[float] = field(default_factory=list)  # per burst
    wal_bytes: int = 0
    storage_bytes: int = 0  # primary + replica WAL growth
    writes: int = 0  # committed measured writes
    recover_s: list[float] = field(default_factory=list)
    recover_records: int = 0
    snapshot_bytes: int = 0
    scan_rows: int = 0
    ack_timeouts: int = 0
    end_lag_seq: int = 0
    lane_ops: list[int] = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)  # db.counts() at the end
    counts_start: dict = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    @property
    def ops_per_s(self) -> float:
        return (self.attempted - self.failed) / self.quiet_wall_s

    @classmethod
    def merged(cls, parts: list["RoundResult"]) -> "RoundResult":
        """A round of several episodes: times, counts and bytes add
        up, samples pool."""
        if len(parts) == 1:
            return parts[0]
        merged = {}
        for name in cls.__dataclass_fields__:
            values = [getattr(part, name) for part in parts]
            if name == "lane_ops":
                merged[name] = [sum(lane) for lane in zip(*values)]
            elif isinstance(values[0], dict):
                merged[name] = {
                    key: sum((v[key] for v in values[1:]), values[0][key])
                    for key in values[0]
                }
            else:
                merged[name] = sum(values[1:], values[0])
        return cls(**merged)


def build(workload: Workload, seed: int, workdir: Path) -> Stack:
    """Schema, population, snapshot save and service / lane / replica
    construction — everything ``setup_s`` pays for besides imports and
    warm-up."""
    workdir.mkdir(parents=True)
    if workload.sharded:
        lanes_dir = workdir / "lanes"
        probe = initial_db(workload, seed)
        clusters = sorted(set(clusters_of(probe).values()))
        front = ShardedDatabaseService(
            lambda: initial_db(workload, seed), len(clusters),
            pins={cluster: i for i, cluster in enumerate(clusters)},
            log_dir=lanes_dir, service_kwargs=SERVICE_KWARGS,
        )
        stack = Stack(front, list(front.lanes))
        for shard, lane in enumerate(front.lanes):
            stack.wal_paths.append(lanes_dir / f"shard-{shard}.wal")
            snapshot = lanes_dir / f"shard-{shard}.snap"
            persistence.save(lane.db, snapshot, wal_applied=0)
            stack.snapshot_paths.append(snapshot)
        return stack
    db = initial_db(workload, seed)
    if not workload.durable:
        service = DatabaseService(db, **SERVICE_KWARGS)
        return Stack(service, [service])
    snapshot = workdir / "snapshot.json"
    wal = workdir / "wal.log"
    persistence.save(db, snapshot, wal_applied=0)
    group = None
    if workload.replicas:
        # Zero injected delay: commit latency here is CPU plus the
        # replicas' own fsyncs, nothing a network would add.
        group = ReplicationGroup("quorum", ack_timeout=5.0,
                                 retry_interval=0.001)
    service = DatabaseService(db, log=wal, replication=group,
                              **SERVICE_KWARGS)
    stack = Stack(service, [service], [wal], [snapshot], group)
    for r in range(workload.replicas):
        replica = Replica(f"r{r}", workdir / f"replica-{r}", fsync=True)
        group.add_replica(replica.name, replica)
        stack.replicas.append(replica)
    return stack


class _Pacer:
    """The barrier action: runs in the last client to arrive, while
    the others are parked, so the probe has the process to itself."""

    def __init__(self, meter: Meter) -> None:
        self.meter = meter
        self.arrived: list[float] = []
        self.released: list[float] = []
        self.readings: list[Reading] = []

    def __call__(self) -> None:
        self.arrived.append(time.perf_counter())
        self.readings.append(self.meter.read())
        self.released.append(time.perf_counter())


def _client(front, ops: list[Op], burst: int, pace: threading.Barrier,
            out: dict, tracer) -> None:
    """One closed-loop caller. ``tracer`` (traced rounds only) opens
    the per-request root span; the untraced loop never touches it."""
    latencies: list[float] = []
    results: list = []
    busy = 0.0
    clock = time.perf_counter
    try:
        for at in range(0, len(ops), burst):
            pace.wait()
            began = clock()
            for op in ops[at:at + burst]:
                started = clock()
                try:
                    if tracer is None:
                        reply = call(front, op)
                    else:
                        with tracer.root(op.cls):
                            reply = call(front, op)
                except Exception as exc:  # noqa: BLE001 - counted, reported
                    latencies.append(clock() - started)
                    results.append(exc)
                    continue
                latencies.append(clock() - started)
                results.append(digest(op, reply))
            busy += clock() - began
        pace.wait()  # the reading that closes the last burst
    except BaseException:
        pace.abort()  # never leave the other client parked
        raise
    out.update(busy=busy, latencies=latencies, results=results)


def run_round(workload: Workload, episodes: list[Episode],
              oracles: list[Oracle], workdir: Path, *, tracer=None,
              obs: str | None = None) -> RoundResult:
    """One round: every episode on fresh state, one after the other.

    ``tracer`` (a ``tracing.Tracer`` with its wrappers installed)
    records the traced round from the first measured op to the end of
    the epilogue; ``obs`` ("metrics" | "tracing") turns ``repro.obs`` on for the
    rounds that price the telemetry itself. Raises
    :class:`OracleError` on any divergence from the sequential replay.
    """
    return RoundResult.merged([
        _run_episode(workload, episode, oracle, workdir / f"episode-{e}",
                     tracer, obs)
        for e, (episode, oracle) in enumerate(zip(episodes, oracles))
    ])


def _run_episode(workload: Workload, episode: Episode, oracle: Oracle,
                 workdir: Path, tracer, obs: str | None) -> RoundResult:
    """Build, warm up, measure, verify, tear down."""
    seed, streams = episode
    before = Meter().read()
    setup_started = time.perf_counter()
    stack = build(workload, seed, workdir)
    try:
        warm = warmup_count(len(streams[0]))
        warm_results = [[perform(stack.front, op) for op in stream[:warm]]
                        for stream in streams]
        setup_s = time.perf_counter() - setup_started
        meter = Meter(workdir / "probe.bin" if workload.durable else None)
        setup_s /= slowdown(before, meter.read(), 0.0)
        wal_before = stack.wal_bytes()
        replica_before = stack.replica_wal_bytes()
        if obs is not None:
            OBS.enable(tracing=(obs == "tracing"))
        if tracer is not None:
            tracer.enabled = True
        outs = [{} for _ in streams]
        pacer = _Pacer(meter)
        pace = threading.Barrier(len(streams), action=pacer)
        threads = [
            threading.Thread(
                target=_client,
                args=(stack.front, stream[warm:], workload.burst, pace,
                      out, tracer),
            )
            for stream, out in zip(streams, outs)
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            if obs is not None:
                OBS.disable()
                OBS.reset()
        result = _collect(workload, stack, streams, outs, warm, setup_s,
                          pacer)
        result.counts_start = oracle.start_counts
        result.wal_bytes = stack.wal_bytes() - wal_before
        result.storage_bytes = (result.wal_bytes
                                + stack.replica_wal_bytes()
                                - replica_before)
        if result.failed == 0:
            # A traced round times one recover, not five: its spans
            # (one per replayed record) are what the trace is for.
            _verify(workload, seed, stack, oracle, streams, outs,
                    warm_results, result,
                    recover_calls=RECOVER_CALLS if workload.timed_recover
                    and tracer is None else 1)
        return result
    finally:
        if tracer is not None:
            tracer.enabled = False
        stack.front.close()
        shutil.rmtree(workdir, ignore_errors=True)


def _collect(workload: Workload, stack: Stack, streams, outs, warm: int,
             setup_s: float, pacer: _Pacer) -> RoundResult:
    # Burst b ran between readings b and b + 1.
    bursts = range(len(pacer.readings) - 1)
    walls = [pacer.arrived[b + 1] - pacer.released[b] for b in bursts]
    slow = {share: [slowdown(pacer.readings[b], pacer.readings[b + 1], share)
                    for b in bursts]
            for share in (0.0, workload.io_share)}
    latencies: dict[str, list[float]] = {}
    failed = attempted = writes = scan_rows = ack_timeouts = 0
    errors: list[str] = []
    for stream, out in zip(streams, outs):
        for index, (op, seconds, result) in enumerate(
                zip(stream[warm:], out["latencies"], out["results"])):
            attempted += 1
            if isinstance(result, Exception):
                failed += 1
                ack_timeouts += type(result).__name__ == "ReplicationTimeout"
                if len(errors) < 5:
                    errors.append(f"{op.kind}({op.function}, {op.x}, "
                                  f"{op.y}): {result!r}")
                continue
            # Only writes reach the log; reads are interpreter work.
            share = workload.io_share if op.cls in WRITE_CLASSES else 0.0
            latencies.setdefault(op.cls, []).append(
                seconds / slow[share][index // workload.burst])
            writes += op.is_write
            if op.kind == "extension":
                scan_rows += result[0]
    stats = [lane.stats() for lane in stack.lanes]
    db = stack.lanes[0].db
    return RoundResult(
        setup_s=setup_s, wall_s=sum(walls),
        quiet_wall_s=sum(wall / factor for wall, factor
                         in zip(walls, slow[workload.io_share])),
        thread_s=sum(out["busy"] for out in outs),
        attempted=attempted, failed=failed, latencies=latencies,
        slowdowns=slow[workload.io_share],
        writes=writes, scan_rows=scan_rows, ack_timeouts=ack_timeouts,
        lane_ops=[len(lane.committed) for lane in stack.lanes],
        stats={key: sum(s[key] for s in stats)
               for key in ("retries", "lock_timeouts", "deadlocks", "shed")},
        counts=dict(db.counts(), next_nc_index=db.ncs.next_index),
        errors=errors,
    )


def _verify(workload: Workload, seed: int, stack: Stack, oracle: Oracle,
            streams, outs, warm_results, result: RoundResult,
            recover_calls: int) -> None:
    """The oracles of the issue, in order: reads, final state, replay
    of the committed log, recovery, replicas, lane accounting."""
    for client, (out, warmed) in enumerate(zip(outs, warm_results)):
        oracle.check_reads(client, warmed + out["results"])
    total_writes = sum(op.is_write for stream in streams for op in stream)
    if sum(result.lane_ops) != total_writes:
        raise OracleError(
            f"per-lane committed counts {result.lane_ops} do not sum "
            f"to the {total_writes} writes issued"
        )
    if workload.checkpoint:
        stack.front.checkpoint(stack.snapshot_paths[0])
    for shard, lane in enumerate(stack.lanes):
        oracle.check_state(lane.db, f"lane {shard} live state",
                           cluster=shard if workload.sharded else None)
        replayed = replay_committed(initial_db(workload, seed),
                                    lane.committed_ops())
        require_same(replayed, lane.db,
                     f"lane {shard}: replay of committed_ops() != live")
        if not workload.durable:
            continue
        meter = Meter()
        before = meter.read()
        taken = []
        for _ in range(recover_calls):
            started = time.perf_counter()
            # Through the module attribute, so a traced run sees it.
            report = wal.recover(stack.snapshot_paths[shard],
                                 stack.wal_paths[shard])
            taken.append(time.perf_counter() - started)
        quiet = slowdown(before, meter.read(), 0.0)  # reads, no fsync
        result.recover_s += [seconds / quiet for seconds in taken]
        require_same(lane.db, report.db,
                     f"lane {shard}: recover() != live state")
        result.recover_records += report.entries_applied
        if shard == 0:  # counts() below are lane 0's as well
            result.snapshot_bytes = \
                stack.snapshot_paths[0].stat().st_size
    if stack.group is not None:
        lag = stack.group.lag()
        result.end_lag_seq = max(info["lag_seq"] for info in lag.values())
        if result.end_lag_seq:
            raise OracleError(f"replicas finished lagging: {lag}")
        for replica in stack.replicas:
            require_same(stack.lanes[0].db, replica.db,
                         f"replica {replica.name} != primary")
