"""Sharded chaos soak: parallel write lanes under live load.

``python -m repro.faults --soak --shards N`` points the mixed workload
at a :class:`ShardedDatabaseService
<repro.shard.sharded.ShardedDatabaseService>` instead of one service:
N worker threads drive single-cluster reads and writes, single-shard
atomic sequences, *multi-shard* sequences through the global lane,
scatter-gather reads and read-modify-writes at a facade whose lanes
commit in parallel, while a fault controller cycles storage latency
and transient WAL errors underneath. With ``--replicas R`` each lane
gets its own replication group, and with ``--auto-failover`` shard
0's lane additionally runs lease-based leadership — the epilogue then
isolates that lane's primary and the *coordinator* must elect, fence
and promote on its own, after which the facade's lane is swapped to
the new primary.

The oracle, per the sharding contract (``docs/SHARDING.md``):

1. **Per-shard sequential replay** — every lane's final state must
   equal a fresh instance (same schema factory, same deterministic
   preload of that shard's functions) replaying that lane's
   committed-op log in order. Lanes commit concurrently, but each
   lane's history must still be sequential — that is exactly what the
   per-shard ``__write__`` token buys.
2. **Cross-shard markers are ordered** — each lane's
   ``(marker, committed-index)`` journal must be strictly increasing
   in both coordinates, and every marker must appear on at least two
   lanes (a multi-shard write involves several shards by definition).
3. **No cross-shard deadlock** — every worker joins inside the wall
   clock budget; the sorted shard-id lock order in the global lane
   must make that boring.
4. **Zero acked loss through failover** — when shard 0 fails over,
   every sequence number its old primary acked must sit at or below
   the fence, and the survivors' replicas must converge to the new
   primary's state.
5. **Telemetry is live** — a mid-soak ``/metrics`` scrape over real
   HTTP parses as Prometheus text and carries ``service_shard_*``
   series for every shard. Per-shard op journals
   (``shard-<i>.jsonl``) and the scrapes are kept as CI artifacts.
"""

from __future__ import annotations

import json
import random
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.derivation import Derivation
from repro.core.schema import FunctionDef, ObjectType, TypeFunctionality
from repro.errors import (
    CrossShardError,
    PersistenceError,
    ReplicationError,
    ReplicationTimeout,
    ReproError,
    StalePrimary,
)
from repro.faults.harness import states_diff
from repro.faults.registry import FAULTS, LatencyFault, TransientError
from repro.faults.replication import _links_by_name, _set_partition
from repro.faults.soak import _OUTCOMES, _classify
from repro.fdb import persistence
from repro.fdb.database import FunctionalDatabase
from repro.fdb.updates import (
    Update,
    UpdateSequence,
    apply_sequence,
    apply_update,
)
from repro.fdb.values import is_null
from repro.fdb.wal import UpdateLog
from repro.obs.endpoint import ExpositionError, parse_prometheus
from repro.obs.events import FileSink
from repro.obs.hooks import OBS
from repro.replication import (
    FailoverCoordinator,
    LeaseConfig,
    Replica,
    ReplicationGroup,
)
from repro.service import CircuitBreaker, DatabaseService, RetryPolicy
from repro.service.service import clusters_of
from repro.shard import ShardedDatabaseService

__all__ = ["ShardSoakConfig", "ShardSoakReport", "run_shard_soak",
           "shard_soak_database", "shard_preload"]


@dataclass(frozen=True)
class ShardSoakConfig:
    """Knobs for one sharded soak. Defaults match the CI job."""

    shards: int = 2
    threads: int = 8
    ops_per_thread: int = 24
    seed: int = 0
    clusters: int = 6
    preload_rows: int = 6
    replicas: int = 0
    mode: str = "sync(1)"
    ack_timeout: float = 2.0
    auto_failover: bool = False
    lease_duration: float = 0.5
    lease_margin: float = 0.1
    lease_renew_interval: float = 0.08
    lock_timeout: float = 0.25
    tight_deadline: float = 0.003
    loose_deadline: float = 2.0
    phase_seconds: float = 0.08
    wall_clock_limit: float = 120.0
    faults: bool = True
    serve_endpoint: bool = True
    workdir: str | None = None
    jsonl: str | None = None  # default: <workdir>/shard-events.jsonl
    scrape_dir: str | None = None


@dataclass
class ShardSoakReport:
    """Counts, per-shard facts and verdicts for one sharded soak."""

    config: ShardSoakConfig
    duration: float = 0.0
    counts: dict = field(default_factory=dict)
    committed: dict = field(default_factory=dict)   # shard -> count
    markers: dict = field(default_factory=dict)     # shard -> count
    multi_writes: int = 0
    failover: dict | None = None
    failures: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    scrape_paths: list = field(default_factory=list)
    jsonl_path: str = ""
    shard_jsonl: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def lines(self) -> list[str]:
        out = [
            f"shard soak: {self.config.shards} shards x "
            f"{self.config.threads} threads x "
            f"{self.config.ops_per_thread} ops, "
            f"{self.config.replicas} replicas/lane, seed "
            f"{self.config.seed}, {self.duration:.2f}s",
            "ops: " + ", ".join(
                f"{k}={v}" for k, v in sorted(self.counts.items()) if v
            ),
            "committed per shard: " + ", ".join(
                f"{shard}={count}"
                for shard, count in sorted(self.committed.items())
            ) + f"; multi-shard writes {self.multi_writes}",
        ]
        if self.markers:
            out.append("cross-shard markers per shard: " + ", ".join(
                f"{shard}={count}"
                for shard, count in sorted(self.markers.items())
            ))
        if self.failover:
            out.append(
                f"failover on shard 0: promoted "
                f"{self.failover['chosen']} at fence "
                f"{self.failover['fence_seq']}"
                + (" via automatic election"
                   if self.failover.get("elections") else "")
            )
        out.extend(f"note: {note}" for note in self.notes)
        out.extend(f"FAILED: {failure}" for failure in self.failures)
        out.append("shard soak: " + ("ok" if self.ok else "FAILED"))
        return out


# -- the instance -------------------------------------------------------------


def shard_soak_database(clusters: int = 6) -> FunctionalDatabase:
    """An *empty* multi-cluster schema: ``clusters`` independent
    chains ``s<i>a . s<i>b -> s<i>v``. Every lane gets the full schema
    (routing needs it everywhere); data arrives per shard through
    :func:`shard_preload` and the workload itself."""
    db = FunctionalDatabase()
    mm = TypeFunctionality.MANY_MANY
    for index in range(clusters):
        prefix = f"s{index}"
        types = [ObjectType(f"S{index}_{j}") for j in range(3)]
        first = FunctionDef(f"{prefix}a", types[0], types[1], mm)
        second = FunctionDef(f"{prefix}b", types[1], types[2], mm)
        db.declare_base(first)
        db.declare_base(second)
        db.declare_derived(
            FunctionDef(f"{prefix}v", types[0], types[2], mm),
            Derivation.of(first, second),
        )
    return db


def _balanced_pins(config: ShardSoakConfig) -> dict[str, int]:
    """Round-robin cluster -> shard pins: the soak must have every
    lane populated (the failover epilogue writes to shard 0 and shard
    1 by name) and real multi-shard traffic, which a pure hash
    placement cannot promise for a handful of clusters."""
    if config.clusters < config.shards:
        raise ValueError(
            f"shard soak needs at least one cluster per shard "
            f"({config.clusters} clusters < {config.shards} shards)"
        )
    clusters = sorted(set(
        clusters_of(shard_soak_database(config.clusters)).values()
    ))
    return {cluster: index % config.shards
            for index, cluster in enumerate(clusters)}


def shard_preload(db: FunctionalDatabase, names, rows: int = 6) -> None:
    """Deterministically load ``rows`` true facts into each *base*
    function in ``names``. Loads bypass the update machinery (plain
    stored facts, no NCs, no nulls), so a replay oracle seeds its
    fresh instance with the same call and the same names."""
    for name in sorted(names):
        if db.is_base(name):
            db.load(name, [(f"{name}_x{j}", f"{name}_y{j}")
                           for j in range(rows)])


# -- workload -----------------------------------------------------------------


def _plan_worker(service: ShardedDatabaseService, worker: int,
                 config: ShardSoakConfig) -> list[tuple]:
    """Pre-generate one worker's ops against the routing map (no map
    lookups once threads are live). Single-shard traffic dominates;
    multi-shard sequences and scatter reads exercise the global lane
    and the gather path."""
    rng = random.Random(config.seed * 7919 + worker)
    shard_map = service.map
    db = service.lanes[0].db
    bases = sorted(db.base_names)
    deriveds = sorted(db.derived_names)
    by_shard: dict[int, list[str]] = {}
    for name in bases:
        by_shard.setdefault(shard_map.shard_of(name), []).append(name)
    multi_ready = len(by_shard) >= 2
    shard_ids = sorted(by_shard)

    def deadline() -> float:
        return config.tight_deadline if rng.random() < 0.1 \
            else config.loose_deadline

    ops: list[tuple] = []
    for index in range(config.ops_per_thread):
        roll = rng.random()
        tag = f"w{worker}i{index}"
        if roll < 0.35:
            name = rng.choice(bases)
            ops.append(("write",
                        Update.ins(name, f"{tag}x", f"{tag}y"),
                        deadline()))
        elif roll < 0.45:
            name = rng.choice(deriveds)
            ops.append(("write",
                        Update.ins(name, f"{tag}dx", f"{tag}dy"),
                        deadline()))
        elif roll < 0.55:
            # Single-shard atomic sequence within one cluster.
            prefix = rng.choice(bases).rstrip("ab")
            ops.append(("seq", UpdateSequence((
                Update.ins(f"{prefix}a", f"{tag}sx", f"{tag}sm"),
                Update.ins(f"{prefix}b", f"{tag}sm", f"{tag}sy"),
            ), label=f"seq-{tag}"), deadline()))
        elif roll < 0.67 and multi_ready:
            # Multi-shard sequence: one insert on each of two shards.
            first, second = rng.sample(shard_ids, 2)
            ops.append(("multi", UpdateSequence((
                Update.ins(rng.choice(by_shard[first]),
                           f"{tag}mx", f"{tag}my"),
                Update.ins(rng.choice(by_shard[second]),
                           f"{tag}nx", f"{tag}ny"),
            ), label=f"multi-{tag}"), deadline()))
        elif roll < 0.77:
            ops.append(("read", rng.choice(bases + deriveds),
                        deadline()))
        elif roll < 0.87 and multi_ready:
            first, second = rng.sample(shard_ids, 2)
            ops.append(("scatter",
                        (rng.choice(by_shard[first]),
                         rng.choice(by_shard[second])),
                        deadline()))
        elif roll < 0.95:
            ops.append(("rmw", rng.choice(bases), deadline()))
        else:
            # Delete a preloaded fact (may already be gone: noop path).
            name = rng.choice(bases)
            row = rng.randrange(config.preload_rows)
            ops.append(("write",
                        Update.delete(name, f"{name}_x{row}",
                                      f"{name}_y{row}"),
                        deadline()))
    return ops


_SHARD_OUTCOMES = _OUTCOMES + ("cross_shard", "repl_timeout", "fenced")


def _classify_shard(exc: BaseException) -> str:
    if isinstance(exc, CrossShardError):
        return "cross_shard"
    if isinstance(exc, ReplicationTimeout):
        return "repl_timeout"
    if isinstance(exc, StalePrimary):
        return "fenced"
    return _classify(exc)


def _run_worker(service: ShardedDatabaseService, ops: list[tuple],
                counts: dict, counts_lock: threading.Lock,
                errors: list) -> None:
    local = dict.fromkeys(_SHARD_OUTCOMES, 0)
    for kind, payload, deadline in ops:
        try:
            if kind == "read":
                name = payload
                service.read((name,),
                             lambda db, n=name: db.extension(n),
                             deadline=deadline)
                local["applied"] += 1
            elif kind == "scatter":
                service.scatter_read(
                    payload,
                    lambda db, names: {n: len(db.table(n))
                                       for n in names},
                    deadline=deadline,
                )
                local["applied"] += 1
            elif kind == "rmw":
                name = payload

                def build(db, n=name):
                    pairs = sorted(
                        p for p in db.table(n).pairs()
                        if not (is_null(p[0]) or is_null(p[1]))
                    )
                    if not pairs:
                        return None
                    x, y = pairs[0]
                    return Update.rep(n, (x, y), (x, f"{y}~r"))

                applied = service.read_modify_write((name,), build,
                                                    deadline=deadline)
                local["applied" if applied is not None else "noop"] += 1
            else:  # "write" | "seq" | "multi"
                service.execute(payload, deadline=deadline)
                local["applied"] += 1
        except ReproError as exc:
            local[_classify_shard(exc)] += 1
        except (RuntimeError, OSError) as exc:
            local[_classify_shard(exc)] += 1
        except BaseException as exc:  # pragma: no cover - harness bug
            errors.append(exc)
            raise
    with counts_lock:
        for key, value in local.items():
            counts[key] = counts.get(key, 0) + value


def _fault_controller(config: ShardSoakConfig,
                      stop: threading.Event) -> None:
    """Cycle storage latency and transient WAL errors under the
    workload (the full outage/breaker choreography lives in the
    single-node soak; here the oracle is about lanes, not breakers)."""
    seed = config.seed
    phases = [
        ("quiet", []),
        ("latency", [
            ("storage.append.payload",
             LatencyFault(0.002, jitter=0.004, seed=seed)),
            ("storage.atomic.payload",
             LatencyFault(0.002, jitter=0.004, seed=seed + 1)),
        ]),
        ("transient", [
            ("wal.append.before", TransientError(times=2)),
        ]),
    ]
    index = 0
    while not stop.is_set():
        name, arms = phases[index % len(phases)]
        for point, fault in arms:
            FAULTS.arm(point, fault)
        if OBS.enabled:
            OBS.action("soak.phase", phase=name)
        stop.wait(config.phase_seconds)
        for point, _ in arms:
            FAULTS.disarm(point)
        index += 1
    for _, arms in phases:
        for point, _ in arms:
            FAULTS.disarm(point)


# -- verification -------------------------------------------------------------


def _verify_shard_replay(report: ShardSoakReport,
                         config: ShardSoakConfig,
                         service: ShardedDatabaseService,
                         skip: set[int]) -> None:
    """Oracle 1: lane state ≡ sequential replay of the lane's log."""
    for shard in range(config.shards):
        if shard in skip:
            report.notes.append(
                f"shard {shard}: replay equality skipped (its log "
                f"includes the fenced-away tail); covered by the "
                f"acked-loss and replica-convergence checks"
            )
            continue
        expected = shard_soak_database(config.clusters)
        shard_preload(expected, service.map.names_on(shard),
                      config.preload_rows)
        for op in service.committed_ops(shard):
            if isinstance(op, UpdateSequence):
                apply_sequence(expected, op)
            else:
                apply_update(expected, op)
        diff = states_diff(expected, service.lane(shard).db)
        if diff:
            report.failures.append(
                f"shard {shard} diverged from its sequential replay: "
                f"{diff}"
            )


def _verify_markers(report: ShardSoakReport,
                    service: ShardedDatabaseService,
                    shards: int, swapped: set[int]) -> None:
    """Oracle 2: marker journals strictly increasing per lane, every
    marker on >= 2 lanes. A failed-over lane's journal restarts empty
    (the swap installs a fresh service), so with a swap in the run the
    pairing check only covers markers minted after it."""
    seen: dict[int, list[int]] = {}
    for shard in range(shards):
        journal = service.cross_markers(shard)
        report.markers[shard] = len(journal)
        markers = [marker for marker, _ in journal]
        indices = [index for _, index in journal]
        if markers != sorted(set(markers)):
            report.failures.append(
                f"shard {shard} marker journal not strictly "
                f"increasing: {markers[:10]}"
            )
        if indices != sorted(set(indices)):
            report.failures.append(
                f"shard {shard} marker commit indices not strictly "
                f"increasing: {indices[:10]}"
            )
        committed = len(service.committed_ops(shard))
        bad = [index for index in indices if index >= committed]
        if bad:
            report.failures.append(
                f"shard {shard} marker indices past its committed "
                f"log: {bad[:10]}"
            )
        for marker in markers:
            seen.setdefault(marker, []).append(shard)
    floor = 0
    if swapped:
        # Markers minted before the swap may have lost their partner
        # with the old lane's journal; only markers the new lane
        # itself recorded (and everything after) are fully paired.
        post_swap = [marker for shard in swapped
                     for marker, _ in service.cross_markers(shard)]
        floor = min(post_swap) if post_swap \
            else max(seen, default=0) + 1
        report.notes.append(
            f"marker pairing checked from marker {floor} on (lanes "
            f"{sorted(swapped)} restarted their journals at failover)"
        )
    lonely = {marker: lanes for marker, lanes in seen.items()
              if len(lanes) < 2 and marker >= floor}
    if lonely:
        report.failures.append(
            f"cross-shard markers on a single lane (a multi-shard "
            f"write involves >= 2): {dict(list(lonely.items())[:5])}"
        )


def _scrape(report: ShardSoakReport, service: ShardedDatabaseService,
            dest: Path, label: str, shards: int) -> None:
    """Oracle 5: /metrics over real HTTP parses and carries every
    lane's service_shard_<i>_* series; /health folds all lanes."""
    import urllib.error
    import urllib.request

    endpoint = service.endpoint
    if endpoint is None or not endpoint.running:
        report.failures.append(f"scrape {label}: endpoint not running")
        return
    try:
        url = endpoint.url
        with urllib.request.urlopen(url + "/metrics", timeout=5) as resp:
            body = resp.read().decode("utf-8")
        families = parse_prometheus(body)
        for shard in range(shards):
            prefix = f"service_shard_{shard}_"
            if not any(name.startswith(prefix) for name in families):
                report.failures.append(
                    f"scrape {label}: no {prefix}* series in /metrics"
                )
        path = dest / f"metrics-{label}.prom"
        path.write_text(body, encoding="utf-8")
        report.scrape_paths.append(str(path))
        try:
            with urllib.request.urlopen(url + "/health",
                                        timeout=5) as resp:
                health_body = resp.read().decode("utf-8")
        except urllib.error.HTTPError as exc:
            health_body = exc.read().decode("utf-8")
        verdict = json.loads(health_body)
        if len(verdict.get("lanes", {})) != shards:
            report.failures.append(
                f"scrape {label}: /health lacks the per-lane verdicts"
            )
        health_path = dest / f"health-{label}.json"
        health_path.write_text(health_body, encoding="utf-8")
        report.scrape_paths.append(str(health_path))
    except (OSError, ValueError, ExpositionError) as exc:
        report.failures.append(f"scrape {label}: {exc}")


def _dump_shard_journals(report: ShardSoakReport,
                         service: ShardedDatabaseService,
                         dest: Path, shards: int) -> None:
    """Per-shard JSONL artifacts: one line per committed op, with the
    cross-shard marker where one applies."""
    for shard in range(shards):
        by_index = {index: marker for marker, index
                    in service.cross_markers(shard)}
        path = dest / f"shard-{shard}.jsonl"
        with path.open("w", encoding="utf-8") as handle:
            for index, op in enumerate(service.committed_ops(shard)):
                handle.write(json.dumps({
                    "index": index,
                    "op": str(op),
                    "marker": by_index.get(index),
                }, sort_keys=True) + "\n")
        report.shard_jsonl.append(str(path))


# -- failover epilogue --------------------------------------------------------


def _failover_epilogue(report: ShardSoakReport,
                       config: ShardSoakConfig,
                       service: ShardedDatabaseService,
                       group: ReplicationGroup, lane_dir: Path,
                       coordinator) -> bool:
    """Oracle 4: isolate shard 0's primary mid-commit, fail the lane
    over (by coordinator election under --auto-failover, by explicit
    promote otherwise), assert zero acked loss, swap the facade's
    lane to the new primary and write through it. The other lanes
    must stay writable throughout. Returns True when the swap
    happened (so the caller skips replay equality on shard 0)."""
    lane = service.lane(0)
    victim = sorted(service.map.names_on(0))[0]
    links = _links_by_name(group)
    for link in links.values():
        _set_partition(link, True)
    if OBS.enabled:
        OBS.action("soak.partition", replica="*", shard=0)
    old_term = group.term
    old_timeout = group.ack_timeout
    group.ack_timeout = 0.2
    timed_out = False
    try:
        lane.insert(victim, "tail_x", "tail_y", deadline=5.0)
    except ReplicationTimeout:
        timed_out = True
    except ReproError as exc:
        report.failures.append(
            f"isolated shard-0 write failed unexpectedly: {exc!r}"
        )
    finally:
        group.ack_timeout = old_timeout
    if not timed_out:
        report.failures.append(
            "isolated shard-0 commit did not raise ReplicationTimeout"
        )
    acked = lane.acked_ops()

    # The other lanes must not notice shard 0's outage.
    for shard in range(1, config.shards):
        other = sorted(service.map.names_on(shard))[0]
        try:
            service.insert(other, "during_failover_x",
                           f"during_failover_y{shard}", deadline=5.0)
        except ReproError as exc:
            report.failures.append(
                f"shard {shard} write failed during shard 0's "
                f"failover: {exc!r}"
            )

    elections = 0
    if coordinator is not None:
        lease = group.lease
        horizon = lease.config.detector_horizon if lease is not None \
            else 2.0
        deadline = time.monotonic() + horizon + 5.0
        while not group.leaderless() and time.monotonic() < deadline:
            time.sleep(0.01)
        if not group.leaderless():
            report.failures.append(
                "isolated shard-0 primary never self-demoted"
            )
            return False
        deadline = time.monotonic() + horizon + 5.0
        while not coordinator.elections \
                and time.monotonic() < deadline:
            time.sleep(0.01)
        if not coordinator.elections:
            report.failures.append(
                "no automatic election on shard 0 inside the window"
            )
            return False
        promotion = coordinator.elections[-1]
        elections = len(coordinator.elections)
    else:
        for link in links.values():
            _set_partition(link, False)
        try:
            promotion = group.promote()
        except ReplicationError as exc:
            report.failures.append(f"shard 0 promotion failed: {exc!r}")
            return False
    fence = group.fence_seq(old_term)
    lost = [seq for seq, _ in acked if seq > fence]
    if lost:
        report.failures.append(
            f"shard 0 acked commits past the fence (lost): {lost}"
        )
    try:
        lane.insert(victim, "deposed_x", "deposed_y", deadline=5.0)
        report.failures.append(
            "deposed shard-0 primary wrote after promotion (no fence)"
        )
    except StalePrimary:
        pass
    except ReproError as exc:
        report.failures.append(
            f"deposed shard-0 write raised {exc!r}, wanted StalePrimary"
        )
    lane.close(timeout=10.0)

    for link in _links_by_name(group).values():
        _set_partition(link, False)
    chosen = group.replica(promotion.chosen)
    group.remove_replica(promotion.chosen)
    new_lane = DatabaseService(
        chosen.db,
        log=UpdateLog(chosen.wal_path),
        lock_timeout=config.lock_timeout,
        shard=0,
        replication=group,
        node=chosen.name,
        seed=config.seed + 1,
    )
    service.swap_lane(0, new_lane)
    report.failover = {
        "chosen": promotion.chosen,
        "fence_seq": fence,
        "old_term": old_term,
        "new_term": group.term,
        "elections": elections,
    }
    # The facade routes to the new lane; both single- and multi-shard
    # paths must work across the swap.
    try:
        service.insert(victim, "post_failover_x", "post_failover_y",
                       deadline=5.0)
        if config.shards > 1:
            other = sorted(service.map.names_on(1))[0]
            service.execute(UpdateSequence((
                Update.ins(victim, "post_multi_x", "post_multi_y"),
                Update.ins(other, "post_multi_p", "post_multi_q"),
            ), label="post-failover-multi"), deadline=5.0)
    except ReproError as exc:
        report.failures.append(
            f"post-failover write through the facade failed: {exc!r}"
        )
    try:
        verdict = group.sync_all(timeout=10.0)
        if verdict["lagging"]:
            report.failures.append(
                f"shard 0 replicas never settled: {verdict['lagging']}"
            )
        else:
            for name in group.replica_names():
                try:
                    replica = group.replica(name)
                except ReplicationError:
                    continue
                diff = states_diff(new_lane.db, replica.db)
                if diff:
                    report.failures.append(
                        f"shard 0 replica {name} diverged after "
                        f"failover: {diff}"
                    )
    except ReproError as exc:
        report.failures.append(f"shard 0 settling failed: {exc!r}")
    return True


# -- the run ------------------------------------------------------------------


def run_shard_soak(
    config: ShardSoakConfig = ShardSoakConfig(),
) -> ShardSoakReport:
    """Run one sharded soak; see the module docstring for the oracle."""
    workdir = Path(config.workdir
                   or tempfile.mkdtemp(prefix="fdb-shard-soak-"))
    workdir.mkdir(parents=True, exist_ok=True)
    jsonl = Path(config.jsonl or workdir / "shard-events.jsonl")
    scrape_dir = Path(config.scrape_dir or workdir)
    scrape_dir.mkdir(parents=True, exist_ok=True)
    report = ShardSoakReport(config=config, jsonl_path=str(jsonl))
    sink = FileSink(jsonl)
    was_enabled = OBS.enabled
    OBS.events.add_sink(sink)
    OBS.enable()
    started = time.monotonic()

    groups: dict[int, ReplicationGroup] = {}
    lease_mgr = None
    coordinator = None
    lane_dirs: dict[int, Path] = {}

    def factory() -> FunctionalDatabase:
        return shard_soak_database(config.clusters)

    def replication_factory(shard: int):
        if config.replicas < 1:
            return None
        group = ReplicationGroup(
            config.mode, ack_timeout=config.ack_timeout,
            retry_interval=0.01, journal=True,
        )
        groups[shard] = group
        return group

    service: ShardedDatabaseService | None = None
    try:
        # Lane layout mirrors the replication soak's primary: each
        # lane directory holds snapshot.json + wal.log so it can
        # rejoin a group as a follower after being deposed.
        log_dir = workdir / "lanes"
        log_dir.mkdir(parents=True, exist_ok=True)
        if config.auto_failover and config.replicas > 0:
            # The lease must exist before the lane service attaches to
            # the group (the first term should be lease-granted), so
            # hook it in through the replication factory.
            base_factory = replication_factory

            def replication_factory(shard, _base=base_factory):
                group = _base(shard)
                if group is not None and shard == 0:
                    group.enable_lease(LeaseConfig(
                        duration=config.lease_duration,
                        margin=config.lease_margin,
                        renew_interval=config.lease_renew_interval,
                        check_interval=0.02,
                    ))
                return group

        pins = _balanced_pins(config)
        service = ShardedDatabaseService(
            factory, config.shards,
            pins=pins,
            log_dir=log_dir,
            replication_factory=None,
            service_kwargs=dict(
                lock_timeout=config.lock_timeout,
                retry=RetryPolicy(
                    max_attempts=4, base_delay=0.004, max_delay=0.05,
                    jitter=0.004,
                    retryable=RetryPolicy().retryable
                    + (PersistenceError,),
                ),
                breaker=CircuitBreaker(failure_threshold=4,
                                       reset_timeout=0.1),
                seed=config.seed,
            ),
        ) if config.replicas < 1 else _build_replicated(
            config, factory, replication_factory, workdir, groups,
            lane_dirs, _balanced_pins(config),
        )

        # Preload each lane with its own functions' facts (the replay
        # oracle seeds its fresh instances identically).
        for shard in range(config.shards):
            shard_preload(service.lane(shard).db,
                          service.map.names_on(shard),
                          config.preload_rows)
            if shard in groups:
                # The preload predates the WAL: refresh the bootstrap
                # snapshot so replicas catch up from the same floor.
                persistence.save(service.lane(shard).db,
                                 lane_dirs[shard] / "snapshot.json",
                                 wal_applied=0)

        for shard, group in groups.items():
            for index in range(config.replicas):
                name = f"s{shard}r{index}"
                group.add_replica(
                    name, Replica(name, workdir / "replicas" / name)
                )
        if config.auto_failover and 0 in groups:
            lease_mgr = groups[0].lease
            if lease_mgr is not None:
                coordinator = FailoverCoordinator(groups[0],
                                                  lease_mgr.config)
                for name in groups[0].replica_names():
                    coordinator.watch(groups[0].replica(name))
                lease_mgr.start()
                coordinator.start()

        plans = [_plan_worker(service, worker, config)
                 for worker in range(config.threads)]
        counts: dict[str, int] = {}
        counts_lock = threading.Lock()
        harness_errors: list = []
        stop = threading.Event()
        controller = None
        if config.faults:
            controller = threading.Thread(
                target=_fault_controller, args=(config, stop),
                name="shard-soak-controller", daemon=True,
            )
        workers = [
            threading.Thread(
                target=_run_worker,
                args=(service, plans[i], counts, counts_lock,
                      harness_errors),
                name=f"shard-worker-{i}", daemon=True,
            )
            for i in range(config.threads)
        ]
        if controller is not None:
            controller.start()
        for worker in workers:
            worker.start()
        if config.serve_endpoint:
            service.serve_metrics()
            time.sleep(min(0.2, config.wall_clock_limit / 10))
            _scrape(report, service, scrape_dir, "mid", config.shards)
        budget = started + config.wall_clock_limit
        for worker in workers:
            worker.join(max(budget - time.monotonic(), 0.1))
        hung = sum(1 for worker in workers if worker.is_alive())
        if hung:
            report.failures.append(
                f"{hung} workers hung (cross-shard deadlock?)"
            )
        stop.set()
        if controller is not None:
            controller.join(config.phase_seconds * 4 + 1.0)
        report.counts = counts
        for exc in harness_errors:
            report.failures.append(f"harness error: {exc!r}")
        if hung or harness_errors:
            return report

        skip: set[int] = set()
        if config.replicas > 0 and 0 in groups:
            if _failover_epilogue(report, config, service, groups[0],
                                  lane_dirs.get(0, workdir),
                                  coordinator):
                skip.add(0)

        report.multi_writes = service.stats()["multi_writes"]
        for shard in range(config.shards):
            report.committed[shard] = len(service.committed_ops(shard))
        _verify_shard_replay(report, config, service, skip)
        _verify_markers(report, service, config.shards, skip)
        _dump_shard_journals(report, service, scrape_dir,
                             config.shards)
        if config.serve_endpoint:
            _scrape(report, service, scrape_dir, "final",
                    config.shards)
        return report
    finally:
        FAULTS.disarm_all()
        if coordinator is not None:
            coordinator.stop()
        if lease_mgr is not None:
            lease_mgr.stop()
        if service is not None:
            try:
                service.close(timeout=5.0)
            except ReproError:
                pass
        for group in groups.values():
            group.close()
        if not was_enabled:
            OBS.disable()
        OBS.events.remove_sink(sink)
        sink.close()
        report.duration = time.monotonic() - started


def _build_replicated(config: ShardSoakConfig, factory,
                      replication_factory, workdir: Path,
                      groups: dict, lane_dirs: dict,
                      pins: dict) -> ShardedDatabaseService:
    """A replicated facade needs each lane's WAL inside a directory a
    deposed primary can rejoin from (snapshot.json + wal.log), so the
    lanes are laid out by hand instead of the facade's flat
    ``log_dir`` naming."""
    lanes_dir = workdir / "lanes"
    for shard in range(config.shards):
        lane_dir = lanes_dir / f"shard-{shard}"
        lane_dir.mkdir(parents=True, exist_ok=True)
        lane_dirs[shard] = lane_dir

    def log_path_factory(shard: int) -> Path:
        return lane_dirs[shard] / "wal.log"

    service = ShardedDatabaseService.__new__(ShardedDatabaseService)
    # Re-run __init__ with per-lane construction inlined: simplest way
    # to keep one code path would widen the facade's ctor; the harness
    # instead builds lanes itself and hands them over.
    import itertools as _itertools
    import threading as _threading

    service.factory = factory
    service.lanes = []
    for shard in range(config.shards):
        db = factory()
        persistence.save(db, lane_dirs[shard] / "snapshot.json",
                         wal_applied=0)
        service.lanes.append(DatabaseService(
            db,
            log=log_path_factory(shard),
            lock_timeout=config.lock_timeout,
            shard=shard,
            retry=RetryPolicy(
                max_attempts=4, base_delay=0.004, max_delay=0.05,
                jitter=0.004,
                retryable=RetryPolicy().retryable + (PersistenceError,),
            ),
            breaker=CircuitBreaker(failure_threshold=4,
                                   reset_timeout=0.1),
            replication=replication_factory(shard),
            node=f"shard-{shard}-primary",
            seed=config.seed,
        ))
    from repro.shard.map import ShardMap

    service.map = ShardMap(service.lanes[0].db, config.shards,
                           pins=pins)
    service._marker = _itertools.count(1)
    service._marker_lock = _threading.Lock()
    service._multi_lock_timeout = config.lock_timeout
    service._multi_retries = 3
    service._stats_lock = _threading.Lock()
    service._multi_writes = 0
    service._scatter_reads = 0
    service.endpoint = None
    return service
