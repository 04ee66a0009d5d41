"""Replication chaos soak: failover and partitions under live load.

The single-node soak (:mod:`repro.faults.soak`) proves one service
degrades gracefully; this harness points the same mixed workload at a
*replicated* service and attacks the replication layer instead. It
runs a matrix of cells — commit mode x scenario — and inside each
cell N worker threads drive reads, writes, atomic sequences,
read-modify-writes, bounded-staleness replica reads and checkpoints
through a :class:`DatabaseService
<repro.service.service.DatabaseService>` wired to a
:class:`ReplicationGroup <repro.replication.group.ReplicationGroup>`
while a controller thread injects the scenario's faults underneath:

* ``partition`` — replica links flap (one at a time, periodically all
  at once) via the in-process transport's partition switch; commits
  must keep meeting their ack quota through the survivors and the
  healed replicas must converge.
* ``replica_crash`` — replicas die mid-apply (the
  ``repl.replica.apply`` fault point raises :class:`SimulatedCrash
  <repro.faults.registry.SimulatedCrash>` between the local
  write-ahead append and the state change) and restart from their own
  disk, catching up by delta or snapshot as the log floor dictates.
* ``primary_kill`` — after the workers finish, the primary is
  isolated from every replica and forced to commit an op nobody acks
  (:class:`ReplicationTimeout <repro.errors.ReplicationTimeout>`),
  then deposed: :meth:`promote
  <repro.replication.group.ReplicationGroup.promote>` elects the
  longest applied prefix, the deposed primary's next write must raise
  :class:`StalePrimary <repro.errors.StalePrimary>`, a new service is
  built on the chosen replica's working directory, and the old
  primary rejoins as a follower — truncating its unacked tail.

Every cell ends with the same verdicts:

1. **No acked loss** — after a failover, every sequence number the
   old primary acknowledged to a caller sits at or below the fence
   (it survived into the new history); replica state equals the
   primary's exactly (:func:`states_diff
   <repro.faults.harness.states_diff>`).
2. **The stream is the history** — replaying the shipped-record
   journal (every record that entered the replication stream, minus
   compensated aborts) over an identically seeded fresh instance
   reproduces the live primary, across the failover boundary.
3. **Fencing fired** — the deposed primary's write raised
   :exc:`StalePrimary`, and the rejoin dropped at least the
   deliberately unacknowledged tail record.
4. **Telemetry is live** — a mid-soak ``/metrics`` scrape over real
   HTTP parses as Prometheus text and contains the per-replica
   ``replication.lag.seq.*`` gauges; ``/health`` carries the
   replication block. Snapshots are kept as CI artifacts.
5. **The trace is the pipeline** — each cell's own event stream
   (``<cell>/events.jsonl``) must show every acked sequence number
   covered by the commit mode's ack quota of ``replica.apply`` spans
   (or a subsuming snapshot install); the folded
   :func:`replication_timeline
   <repro.obs.events.replication_timeline>` must pass its
   fence-ordering audit and, after a failover, contain the fence,
   promote and rejoin entries. The last acked commit's cross-node
   propagation DAG (``pipeline-<cell>.dot``) and the timeline
   (``timeline-<cell>.jsonl``) are kept as CI artifacts.

With ``--auto-failover`` every cell additionally runs lease-based
leadership (:mod:`repro.replication.lease`): the primary holds a
quorum-renewed lease, each replica runs a failure detector, and a
:class:`FailoverCoordinator
<repro.replication.lease.FailoverCoordinator>` elects on expiry —
while :class:`ClockSkewFault <repro.faults.registry.ClockSkewFault>`
drifts the participants' clocks apart by the full configured margin
and :class:`HeartbeatDropFault
<repro.faults.registry.HeartbeatDropFault>` drops renewal beats
underneath. The ``primary_kill`` *and* ``partition`` cells then end
with :func:`_auto_failover_epilogue` instead of the manual one: the
primary is isolated mid-commit and the harness only *observes* —
self-demotion must land before the WAL (``StalePrimary``), exactly
one election must run, no acked write may cross the fence, and the
``promote()`` call count must equal the election count (nothing
promoted by hand).

Run it: ``python -m repro.faults --soak --replicas 2``
(add ``--auto-failover`` for the lease/election matrix).
"""

from __future__ import annotations

import json
import random
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import (
    PersistenceError,
    ReplicationError,
    ReplicationTimeout,
    ReproError,
    StalenessUnserved,
    StalePrimary,
)
from repro.faults.harness import states_diff
from repro.faults.registry import (
    FAULTS,
    ClockSkewFault,
    CrashFault,
    HeartbeatDropFault,
    LatencyFault,
)
from repro.faults.soak import (
    _OUTCOMES,
    SoakConfig,
    _classify,
    _plan_worker_ops,
    soak_database,
)
from repro.fdb import persistence
from repro.fdb.updates import (
    Update,
    UpdateSequence,
    apply_sequence,
    apply_update,
)
from repro.fdb.values import is_null
from repro.fdb.wal import UpdateLog, _decode_entry
from repro.obs.endpoint import ExpositionError, parse_prometheus
from repro.obs.events import (
    FileSink,
    propagation_dag,
    read_jsonl,
    replication_timeline,
)
from repro.obs.hooks import OBS
from repro.replication import (
    CommitMode,
    FailoverCoordinator,
    LeaseConfig,
    Replica,
    ReplicationGroup,
)
from repro.service import CircuitBreaker, DatabaseService, RetryPolicy

__all__ = [
    "ReplicationSoakConfig",
    "ReplicationCellReport",
    "ReplicationSoakReport",
    "run_replication_soak",
]


@dataclass(frozen=True)
class ReplicationSoakConfig:
    """Knobs for one replication soak. Defaults match the CI job."""

    replicas: int = 2
    threads: int = 4
    ops_per_thread: int = 24
    seed: int = 0
    rows_per_function: int = 8
    value_pool: int = 12
    modes: tuple = ("sync(1)", "quorum")
    scenarios: tuple = ("partition", "replica_crash", "primary_kill")
    ack_timeout: float = 2.0
    phase_seconds: float = 0.08
    lock_timeout: float = 0.25
    tight_deadline: float = 0.003
    loose_deadline: float = 2.0
    wall_clock_limit: float = 120.0
    # Fraction of planned reads redirected to replicas, and how many
    # of those demand zero staleness (exercising StalenessUnserved).
    replica_read_rate: float = 0.5
    tight_read_rate: float = 0.2
    workdir: str | None = None
    jsonl: str | None = None  # default: <workdir>/replication-events.jsonl
    serve_endpoint: bool = True
    scrape_dir: str | None = None
    # Lease-based leadership: when set, every cell runs with a
    # quorum-renewed lease and a live FailoverCoordinator, clock skew
    # (±margin) and heartbeat loss are injected underneath, and the
    # primary_kill / partition epilogues expect the *coordinator* to
    # elect the new primary — the harness never calls promote().
    auto_failover: bool = False
    lease_duration: float = 0.5
    lease_margin: float = 0.1
    lease_renew_interval: float = 0.08
    heartbeat_drop_rate: float = 0.15


@dataclass
class ReplicationCellReport:
    """One mode x scenario cell: counts, failover facts, verdicts."""

    mode: str
    scenario: str
    duration: float = 0.0
    counts: dict = field(default_factory=dict)
    committed: int = 0
    acked: int = 0
    fence_seq: int | None = None
    promotion: dict | None = None
    elections: int = 0
    rejoin: dict | None = None
    failures: list = field(default_factory=list)
    scrape_paths: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def lines(self) -> list[str]:
        head = f"[{self.mode} / {self.scenario}]"
        out = [
            f"{head} {self.duration:.2f}s, committed {self.committed}, "
            f"acked {self.acked}"
            + (f", fence {self.fence_seq}" if self.fence_seq is not None
               else ""),
            f"{head} ops: " + ", ".join(
                f"{k}={v}" for k, v in sorted(self.counts.items()) if v
            ),
        ]
        if self.promotion:
            out.append(
                f"{head} promoted {self.promotion['chosen']} at seq "
                f"{self.promotion['applied_seq']} (term "
                f"{self.promotion['old_term']} -> "
                f"{self.promotion['new_term']})"
                + (f" via automatic election" if self.elections else "")
            )
        if self.rejoin:
            out.append(
                f"{head} rejoin dropped "
                f"{self.rejoin['records_dropped']} records at fence "
                f"{self.rejoin['fence_seq']}"
                + (" (rebootstrapped)" if self.rejoin["rebootstrapped"]
                   else "")
            )
        out.extend(f"{head} note: {note}" for note in self.notes)
        out.extend(f"{head} FAILED: {failure}"
                   for failure in self.failures)
        out.append(f"{head} " + ("ok" if self.ok else "FAILED"))
        return out


@dataclass
class ReplicationSoakReport:
    """The whole matrix plus the cross-cell event-log checks."""

    config: ReplicationSoakConfig
    duration: float = 0.0
    cells: list = field(default_factory=list)
    jsonl_path: str = ""
    promotions: int = 0
    elections: int = 0
    fenced_writes: int = 0
    rejoins: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures and all(cell.ok for cell in self.cells)

    def lines(self) -> list[str]:
        out = [
            f"replication soak: {len(self.cells)} cells "
            f"({' | '.join(self.config.modes)}) x "
            f"({' | '.join(self.config.scenarios)}), "
            f"{self.config.replicas} replicas, seed "
            f"{self.config.seed}, {self.duration:.2f}s",
        ]
        for cell in self.cells:
            out.extend(cell.lines())
        out.append(
            f"events: {self.promotions} promotions "
            f"({self.elections} by election), "
            f"{self.fenced_writes} fenced writes, {self.rejoins} "
            f"rejoins in {self.jsonl_path}"
        )
        out.extend(f"FAILED: {failure}" for failure in self.failures)
        out.append("replication soak: " + ("ok" if self.ok else "FAILED"))
        return out


# -- workload -----------------------------------------------------------------


_REPL_OUTCOMES = _OUTCOMES + ("repl_timeout", "fenced", "stale_read")


def _classify_repl(exc: BaseException) -> str:
    if isinstance(exc, ReplicationTimeout):
        return "repl_timeout"
    if isinstance(exc, StalePrimary):
        return "fenced"
    if isinstance(exc, StalenessUnserved):
        return "stale_read"
    return _classify(exc)


def _cell_plans(db, config: ReplicationSoakConfig) -> list[list[tuple]]:
    """The single-node soak's op plans with a slice of the reads
    redirected to replicas under a staleness bound."""
    shim = SoakConfig(
        threads=config.threads,
        ops_per_thread=config.ops_per_thread,
        seed=config.seed,
        rows_per_function=config.rows_per_function,
        value_pool=config.value_pool,
        tight_deadline=config.tight_deadline,
        loose_deadline=config.loose_deadline,
    )
    plans: list[list[tuple]] = []
    for worker in range(config.threads):
        rng = random.Random(config.seed * 6151 + worker)
        ops: list[tuple] = []
        for kind, payload, deadline in _plan_worker_ops(db, worker, shim):
            if kind == "read" and rng.random() < config.replica_read_rate:
                bound = 0 if rng.random() < config.tight_read_rate \
                    else None
                ops.append(("replica_read", (payload, bound), deadline))
            else:
                ops.append((kind, payload, deadline))
        plans.append(ops)
    return plans


def _run_worker(service: DatabaseService, ops: list[tuple],
                snapshot_path: Path, counts: dict,
                counts_lock: threading.Lock, errors: list) -> None:
    local = dict.fromkeys(_REPL_OUTCOMES, 0)
    for kind, payload, deadline in ops:
        try:
            if kind == "replica_read":
                name, bound = payload
                service.read_replica(
                    lambda db, n=name: db.extension(n),
                    max_lag_seq=bound,
                )
                local["applied"] += 1
            elif kind == "read":
                name = payload
                service.read((name,),
                             lambda db, n=name: db.extension(n),
                             deadline=deadline)
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
            elif kind == "checkpoint":
                service.checkpoint(snapshot_path)
                local["applied"] += 1
            else:  # "write" | "seq"
                service.execute(payload, deadline=deadline)
                local["applied"] += 1
        except ReproError as exc:
            local[_classify_repl(exc)] += 1
        except (RuntimeError, OSError) as exc:
            local[_classify_repl(exc)] += 1
        except BaseException as exc:  # pragma: no cover - harness bug
            errors.append(exc)
            raise
    with counts_lock:
        for key, value in local.items():
            counts[key] = counts.get(key, 0) + value


# -- fault controllers --------------------------------------------------------


def _links_by_name(group: ReplicationGroup) -> dict:
    shipper = group.shipper
    if shipper is None:
        return {}
    return {link.name: link for link in shipper.links()}


def _set_partition(link, value: bool) -> None:
    if hasattr(link.transport, "partitioned"):
        link.transport.partitioned = value


def _partition_controller(group: ReplicationGroup, names: list[str],
                          config: ReplicationSoakConfig,
                          stop: threading.Event) -> None:
    """Flap one link per cycle; every fourth cycle cut them all at
    once (the ack quota must wait it out, not lose anything)."""
    index = 0
    while not stop.is_set():
        links = _links_by_name(group)
        if index % 4 == 3:
            targets = [links[n] for n in names if n in links]
            label = "*"
        else:
            name = names[index % len(names)]
            targets = [links[name]] if name in links else []
            label = name
        for link in targets:
            _set_partition(link, True)
        if targets and OBS.enabled:
            OBS.action("soak.partition", replica=label)
        stop.wait(config.phase_seconds)
        for link in targets:
            _set_partition(link, False)
        if targets and OBS.enabled:
            OBS.action("soak.heal", replica=label)
        stop.wait(config.phase_seconds)
        index += 1


def _crash_controller(group: ReplicationGroup, names: list[str],
                      config: ReplicationSoakConfig,
                      stop: threading.Event,
                      rng: random.Random) -> None:
    """Kill replicas mid-stream — half the cycles through the
    ``repl.replica.apply`` crash point (dying *between* the local
    write-ahead append and the apply), half by dropping the process
    outright — then restart them from their own disk."""
    index = 0
    while not stop.is_set():
        if rng.random() < 0.5:
            FAULTS.arm("repl.replica.apply", CrashFault())
            stop.wait(config.phase_seconds / 2)
            FAULTS.disarm("repl.replica.apply")
        else:
            name = names[index % len(names)]
            try:
                group.replica(name).crash()
                if OBS.enabled:
                    OBS.action("soak.replica_crash", replica=name)
            except ReplicationError:
                pass
        stop.wait(config.phase_seconds)
        _restart_crashed(group, names)
        stop.wait(config.phase_seconds)
        index += 1
    FAULTS.disarm("repl.replica.apply")


def _restart_crashed(group: ReplicationGroup, names: list[str]) -> None:
    for name in names:
        try:
            replica = group.replica(name)
        except ReplicationError:
            continue
        if replica.crashed:
            try:
                replica.restart()
            except (ReproError, OSError):
                pass  # settle-time sync will surface it as a failure


def _heal(group: ReplicationGroup, names: list[str]) -> None:
    for link in _links_by_name(group).values():
        _set_partition(link, False)
    _restart_crashed(group, names)


# -- verification -------------------------------------------------------------


def _verify_replay(cell: ReplicationCellReport,
                   config: ReplicationSoakConfig, committed,
                   primary_db) -> None:
    expected = soak_database(config.seed, config.rows_per_function,
                             config.value_pool)
    for op in committed:
        if isinstance(op, UpdateSequence):
            apply_sequence(expected, op)
        else:
            apply_update(expected, op)
    diff = states_diff(expected, primary_db)
    if diff:
        cell.failures.append(f"committed replay diverged: {diff}")


def _verify_journal(cell: ReplicationCellReport,
                    config: ReplicationSoakConfig,
                    group: ReplicationGroup, primary_db) -> None:
    """The shipped-stream oracle: replaying every journalled record
    (minus compensated aborts) over a fresh seeded instance must equal
    the live primary — across a failover, this is the proof that the
    surviving history and only the surviving history was applied."""
    shipper = group.shipper
    if shipper is None:
        cell.failures.append("no shipper to read the journal from")
        return
    journal = shipper.journal()
    aborted: set[int] = set()
    entries: list[tuple[int, dict]] = []
    for _, line in journal:
        payload = json.loads(line)
        if "abort_of" in payload:
            aborted.add(payload["abort_of"])
        elif "entry" in payload:
            entries.append((payload["seq"], payload["entry"]))
    expected = soak_database(config.seed, config.rows_per_function,
                             config.value_pool)
    for seq, raw in entries:
        if seq in aborted:
            continue
        entry = _decode_entry(raw)
        if isinstance(entry, UpdateSequence):
            apply_sequence(expected, entry)
        else:
            apply_update(expected, entry)
    diff = states_diff(expected, primary_db)
    if diff:
        cell.failures.append(f"journal replay diverged: {diff}")


def _verify_replicas(cell: ReplicationCellReport,
                     group: ReplicationGroup, primary_db) -> None:
    checked = 0
    for name in group.replica_names():
        try:
            replica = group.replica(name)
        except ReplicationError:
            continue  # a remote link: not inspectable from here
        if replica.db is None:
            cell.failures.append(
                f"replica {name} has no state after settling"
            )
            continue
        diff = states_diff(primary_db, replica.db)
        if diff:
            cell.failures.append(f"replica {name} diverged: {diff}")
        checked += 1
    if checked == 0:
        cell.failures.append("no replica state was checked")


def _scrape(service: DatabaseService, group: ReplicationGroup,
            dest: Path, label: str,
            cell: ReplicationCellReport) -> None:
    """Scrape ``/metrics`` + ``/health`` over real HTTP; the metrics
    body must parse and carry the per-replica lag gauges, the health
    body the replication block. Snapshots are kept as artifacts."""
    import urllib.error
    import urllib.request

    endpoint = service.endpoint
    if endpoint is None or not endpoint.running:
        cell.failures.append(f"scrape {label}: endpoint not running")
        return
    try:
        group.lag()  # refresh the gauges the scrape must contain
    except ReproError:
        pass
    try:
        url = endpoint.url
        with urllib.request.urlopen(url + "/metrics", timeout=5) as resp:
            body = resp.read().decode("utf-8")
        families = parse_prometheus(body)
        if not any(name.startswith("replication_lag_seq_")
                   for name in families):
            cell.failures.append(
                f"scrape {label}: no replication.lag.seq.* gauges in "
                f"/metrics"
            )
        if group.lease is not None and not any(
                name.startswith("replication_lease_")
                for name in families):
            cell.failures.append(
                f"scrape {label}: lease enabled but no "
                f"replication_lease_* gauges in /metrics"
            )
        metrics_path = dest / f"metrics-{label}.prom"
        metrics_path.write_text(body, encoding="utf-8")
        cell.scrape_paths.append(str(metrics_path))
        try:
            with urllib.request.urlopen(url + "/health",
                                        timeout=5) as resp:
                health_body = resp.read().decode("utf-8")
        except urllib.error.HTTPError as exc:
            # 503 == unservable-but-well-formed; still validated below.
            health_body = exc.read().decode("utf-8")
        verdict = json.loads(health_body)
        replication = verdict.get("replication")
        if not isinstance(replication, dict) \
                or "term" not in replication:
            cell.failures.append(
                f"scrape {label}: /health lacks the replication block"
            )
        health_path = dest / f"health-{label}.json"
        health_path.write_text(health_body, encoding="utf-8")
        cell.scrape_paths.append(str(health_path))
    except (OSError, ValueError, ExpositionError) as exc:
        cell.failures.append(f"scrape {label}: {exc}")


def _attr_int(record, key: str) -> int | None:
    try:
        return int(str(record.attrs.get(key)))
    except (TypeError, ValueError):
        return None


def _verify_pipeline_coverage(cell: ReplicationCellReport, mode: str,
                              replicas: int, records,
                              acked: list) -> None:
    """The span-stream oracle for the commit pipeline: every sequence
    number the primary acked must be covered by at least the commit
    mode's ack quota of ``replica.apply`` spans (their
    ``[from_seq, applied_to]`` interval contains it) or by a snapshot
    install whose ``wal_applied`` floor subsumes it."""
    needed = CommitMode.parse(mode).required_acks(replicas)
    if needed == 0 or not acked:
        return
    applied: dict[str, list[tuple[int, int]]] = {}
    floors: dict[str, int] = {}
    for record in records:
        if record.kind != "span.end":
            continue
        if record.name == "replica.apply":
            name = str(record.attrs.get("replica"))
            low = _attr_int(record, "from_seq")
            high = _attr_int(record, "applied_to")
            if low is not None and high is not None and high >= low:
                applied.setdefault(name, []).append((low, high))
        elif record.name == "replica.snapshot_install":
            name = str(record.attrs.get("replica"))
            wal = _attr_int(record, "wal_applied")
            if wal is not None:
                floors[name] = max(floors.get(name, 0), wal)
    uncovered = []
    for seq, _ in acked:
        covering = {
            name for name, spans in applied.items()
            if any(low <= seq <= high for low, high in spans)
        }
        covering |= {name for name, floor in floors.items()
                     if floor >= seq}
        if len(covering) < needed:
            uncovered.append((seq, sorted(covering)))
    if uncovered:
        cell.failures.append(
            f"acked commits lacking {needed} replica applies in the "
            f"span stream: {uncovered[:5]}"
            + (f" (+{len(uncovered) - 5} more)"
               if len(uncovered) > 5 else "")
        )


def _verify_timeline(cell: ReplicationCellReport, failover: bool,
                     records, dest: Path, label: str) -> None:
    """Fold the cell's event stream into the audit timeline, keep it
    as a JSONL artifact, and audit the fence ordering: every acked
    old-term commit at or below the fence must precede the fence
    record, every new-term commit must follow it."""
    timeline = replication_timeline(records)
    path = dest / f"timeline-{label}.jsonl"
    path.write_text(timeline.to_jsonl() + "\n", encoding="utf-8")
    cell.scrape_paths.append(str(path))
    problems = timeline.fence_violations()
    if problems:
        cell.failures.append(
            f"timeline fence ordering violated: {problems[:3]}"
        )
    if not failover:
        return
    if cell.elections:
        # An automatic failover must leave the lease lifecycle in the
        # audit trail: the expiry that triggered it and the election
        # that resolved it.
        if not timeline.of_kind("lease_expire"):
            cell.failures.append(
                "no lease_expire entry in the auto-failover timeline"
            )
        if not timeline.of_kind("elect"):
            cell.failures.append(
                "no elect entry in the auto-failover timeline"
            )
    fences = timeline.of_kind("fence")
    if not fences:
        cell.failures.append("no fence entry in the failover timeline")
        return
    fence = fences[-1]
    if cell.fence_seq is not None and fence.fence_seq != cell.fence_seq:
        cell.failures.append(
            f"timeline fence at seq {fence.fence_seq}, promotion "
            f"reported {cell.fence_seq}"
        )
    if not timeline.of_kind("promote"):
        cell.failures.append("no promote entry in the failover timeline")
    if not timeline.of_kind("rejoin"):
        cell.failures.append("no rejoin entry in the failover timeline")


def _write_pipeline_dot(cell: ReplicationCellReport, records,
                        acked: list, dest: Path, label: str) -> None:
    """Fold the last acked commit's cross-node trace — the
    ``service.request`` root down through ship, receive, WAL append,
    apply and ack spans on every replica — into a DOT artifact."""
    if not acked:
        return
    last_seq = acked[-1][0]
    spans = {record.span_id: record for record in records
             if record.kind == "span.end"
             and record.span_id is not None}
    def _root_of(record):
        while record.parent_span is not None \
                and record.parent_span in spans:
            record = spans[record.parent_span]
        return record

    target = None
    for record in spans.values():
        if record.name != "replication.ship":
            continue
        low = _attr_int(record, "from_seq")
        high = _attr_int(record, "through_seq")
        if low is not None and high is not None \
                and low <= last_seq <= high:
            # Prefer the commit-path ship (rooted in the request that
            # carried the commit) over later catch-up re-ships.
            if target is None \
                    or _root_of(record).name == "service.request":
                target = record
    if target is None:
        cell.notes.append(
            f"no ship span covering acked seq {last_seq}; pipeline "
            f"DOT skipped"
        )
        return
    root = _root_of(target)
    children: dict[int, list[int]] = {}
    for record in spans.values():
        if record.parent_span is not None:
            children.setdefault(record.parent_span,
                                []).append(record.span_id)
    keep: set[int] = set()
    stack = [root.span_id]
    while stack:
        span_id = stack.pop()
        if span_id in keep:
            continue
        keep.add(span_id)
        stack.extend(children.get(span_id, ()))
    subset = [record for record in records if record.span_id in keep]
    dag = propagation_dag(subset)
    path = dest / f"pipeline-{label}.dot"
    path.write_text(dag.to_dot(name="pipeline") + "\n",
                    encoding="utf-8")
    cell.scrape_paths.append(str(path))


# -- the failover epilogue ----------------------------------------------------


def _failover_epilogue(cell: ReplicationCellReport,
                       config: ReplicationSoakConfig,
                       group: ReplicationGroup,
                       service: DatabaseService,
                       primary_dir: Path) -> DatabaseService | None:
    """Kill the primary mid-commit and fail over.

    Isolate the primary from every replica, force one commit through
    (durable locally, acked by nobody — the deterministic unacked
    tail), promote the longest applied prefix, prove the deposed
    primary is fenced, stand a new service up on the chosen replica's
    working directory, write through it, and rejoin the old primary
    as a follower. Returns the new primary service (or ``None`` when
    the failover could not even start)."""
    links = _links_by_name(group)
    for link in links.values():
        _set_partition(link, True)
    if OBS.enabled:
        OBS.action("soak.partition", replica="*", phase="primary_kill")
    old_timeout = group.ack_timeout
    group.ack_timeout = 0.3
    timed_out = False
    try:
        service.insert("c", "C0_tail", "C1_tail", deadline=5.0)
    except ReplicationTimeout:
        timed_out = True
    except ReproError as exc:
        cell.failures.append(
            f"isolated-primary write failed unexpectedly: {exc!r}"
        )
    finally:
        group.ack_timeout = old_timeout
    if not timed_out:
        cell.failures.append(
            "isolated-primary commit did not raise ReplicationTimeout"
        )
    for link in links.values():
        _set_partition(link, False)

    acked = service.acked_ops()
    old_term = group.term
    try:
        promotion = group.promote()
    except ReplicationError as exc:
        cell.failures.append(f"promotion failed: {exc!r}")
        return None
    cell.promotion = promotion.as_dict()
    fence = group.fence_seq(old_term)
    cell.fence_seq = fence
    lost = [seq for seq, _ in acked if seq > fence]
    if lost:
        cell.failures.append(
            f"acked commits past the fence (lost by failover): {lost}"
        )

    # The deposed primary must be turned away at the door.
    try:
        service.insert("c", "C0_deposed", "C1_deposed", deadline=5.0)
        cell.failures.append(
            "deposed primary wrote after promotion (no fence)"
        )
    except StalePrimary:
        pass
    except ReproError as exc:
        cell.failures.append(
            f"deposed write raised {exc!r}, wanted StalePrimary"
        )
    service.close(timeout=10.0)

    chosen = group.replica(promotion.chosen)
    group.remove_replica(promotion.chosen)
    new_service = DatabaseService(
        chosen.db,
        log=UpdateLog(chosen.wal_path),
        lock_timeout=config.lock_timeout,
        replication=group,
        node=chosen.name,
        seed=config.seed + 1,
    )
    for index in range(5):
        try:
            new_service.insert("c", "C0_post", f"C1_post{index}",
                               deadline=5.0)
        except ReproError as exc:
            cell.failures.append(f"post-failover write failed: {exc!r}")
            break

    old_primary = Replica("old-primary", primary_dir)
    try:
        rejoin = group.rejoin(old_primary, old_term)
        cell.rejoin = rejoin.as_dict()
        if rejoin.records_dropped < 1 and not rejoin.rebootstrapped:
            cell.failures.append(
                "rejoin dropped no records despite the unacked tail"
            )
    except ReproError as exc:
        cell.failures.append(f"rejoin failed: {exc!r}")
    return new_service


def _auto_failover_epilogue(cell: ReplicationCellReport,
                            config: ReplicationSoakConfig,
                            group: ReplicationGroup,
                            service: DatabaseService,
                            primary_dir: Path,
                            coordinator) -> DatabaseService | None:
    """Kill the primary mid-commit and let the lease machinery fail
    over on its own — the harness never calls ``promote()``.

    Isolate the primary, force one commit through that nobody acks,
    then *wait*: the primary must self-demote the instant its lease
    lapses (its next write raises :exc:`StalePrimary` before touching
    its WAL), the replica-side failure detectors must expire, and the
    :class:`FailoverCoordinator
    <repro.replication.lease.FailoverCoordinator>` must elect and
    promote unprompted. A new service is stood up on the elected
    replica, written through under the new term, and the old primary
    rejoins as a follower."""
    lease = group.lease
    assert lease is not None
    links = _links_by_name(group)
    for link in links.values():
        _set_partition(link, True)
    if OBS.enabled:
        OBS.action("soak.partition", replica="*",
                   phase="auto_failover")
    old_term = group.term
    old_timeout = group.ack_timeout
    # Time the ack wait out well inside the lease validity window so
    # the mid-commit kill surfaces as ReplicationTimeout (durable
    # locally, acked by nobody) rather than the later self-demotion.
    group.ack_timeout = min(0.2, lease.config.primary_validity / 2)
    timed_out = False
    try:
        service.insert("c", "C0_tail", "C1_tail", deadline=5.0)
    except ReplicationTimeout:
        timed_out = True
    except ReproError as exc:
        cell.failures.append(
            f"isolated-primary write failed unexpectedly: {exc!r}"
        )
    finally:
        group.ack_timeout = old_timeout
    if not timed_out:
        cell.failures.append(
            "isolated-primary commit did not raise ReplicationTimeout"
        )
    acked = service.acked_ops()

    # Self-demotion: once a quorum can no longer renew the lease, the
    # primary must refuse writes *before* any election has run and
    # *before* the update reaches its WAL.
    horizon = lease.config.detector_horizon
    deadline = time.monotonic() + horizon + 5.0
    while not group.leaderless() and time.monotonic() < deadline:
        time.sleep(0.01)
    if not group.leaderless():
        cell.failures.append("isolated primary never self-demoted")
        return None
    wal_before = (service.logged.log.last_seq()
                  if service.logged is not None else None)
    try:
        service.insert("c", "C0_deposed", "C1_deposed", deadline=5.0)
        cell.failures.append(
            "deposed primary wrote after lease expiry "
            "(no self-demotion)"
        )
    except StalePrimary:
        pass
    except ReproError as exc:
        cell.failures.append(
            f"deposed write raised {exc!r}, wanted StalePrimary"
        )
    if wal_before is not None and service.logged is not None \
            and service.logged.log.last_seq() != wal_before:
        cell.failures.append(
            "deposed write reached the old primary's WAL"
        )

    # The election: the coordinator must run it unprompted.
    deadline = time.monotonic() + horizon + 5.0
    while not coordinator.elections \
            and time.monotonic() < deadline:
        time.sleep(0.01)
    if not coordinator.elections:
        cell.failures.append(
            "no automatic election inside the detection window"
        )
        return None
    promotion = coordinator.elections[-1]
    cell.promotion = promotion.as_dict()
    cell.elections = len(coordinator.elections)
    if cell.elections != 1:
        cell.failures.append(
            f"{cell.elections} elections ran, expected exactly one"
        )
    fence = group.fence_seq(old_term)
    cell.fence_seq = fence
    lost = [seq for seq, _ in acked if seq > fence]
    if lost:
        cell.failures.append(
            f"acked commits past the fence (lost by failover): {lost}"
        )

    # Post-election the old term stays fenced (StalePrimary from the
    # term check now, not just the lapsed lease) — exactly one writer.
    try:
        service.insert("c", "C0_deposed2", "C1_deposed2", deadline=5.0)
        cell.failures.append(
            "deposed primary wrote after the election (no fence)"
        )
    except StalePrimary:
        pass
    except ReproError as exc:
        cell.failures.append(
            f"post-election deposed write raised {exc!r}, wanted "
            f"StalePrimary"
        )
    service.close(timeout=10.0)

    chosen = group.replica(promotion.chosen)
    group.remove_replica(promotion.chosen)
    new_service = DatabaseService(
        chosen.db,
        log=UpdateLog(chosen.wal_path),
        lock_timeout=config.lock_timeout,
        replication=group,
        node=chosen.name,
        seed=config.seed + 1,
    )
    for index in range(5):
        try:
            new_service.insert("c", "C0_post", f"C1_post{index}",
                               deadline=5.0)
        except ReproError as exc:
            cell.failures.append(f"post-failover write failed: {exc!r}")
            break

    old_primary = Replica("old-primary", primary_dir)
    try:
        rejoin = group.rejoin(old_primary, old_term)
        cell.rejoin = rejoin.as_dict()
        if rejoin.records_dropped < 1 and not rejoin.rebootstrapped:
            cell.failures.append(
                "rejoin dropped no records despite the unacked tail"
            )
    except ReproError as exc:
        cell.failures.append(f"rejoin failed: {exc!r}")
    return new_service


# -- one cell -----------------------------------------------------------------


def _slug(mode: str, scenario: str) -> str:
    return f"{mode.replace('(', '').replace(')', '')}-{scenario}"


def _run_cell(mode: str, scenario: str,
              config: ReplicationSoakConfig, cell_dir: Path,
              scrape_dir: Path, serve: bool) -> ReplicationCellReport:
    cell = ReplicationCellReport(mode=mode, scenario=scenario)
    started = time.monotonic()
    primary_dir = cell_dir / "primary"
    primary_dir.mkdir(parents=True, exist_ok=True)
    # The primary keeps the same file layout a Replica expects
    # (snapshot.json + wal.log), so after a failover its directory
    # rejoins the group as a follower unchanged.
    snapshot_path = primary_dir / "snapshot.json"
    wal_path = primary_dir / "wal.log"

    db = soak_database(config.seed, config.rows_per_function,
                       config.value_pool)
    persistence.save(db, snapshot_path, wal_applied=0)
    group = ReplicationGroup(
        mode, ack_timeout=config.ack_timeout, retry_interval=0.01,
        journal=True,
    )
    lease_mgr = None
    coordinator = None
    if config.auto_failover:
        # Enabled before the service attaches so the very first term
        # is lease-granted; the coordinator starts once the replicas
        # exist below.
        lease_mgr = group.enable_lease(LeaseConfig(
            duration=config.lease_duration,
            margin=config.lease_margin,
            renew_interval=config.lease_renew_interval,
            check_interval=0.02,
        ))
    service = DatabaseService(
        db,
        log=wal_path,
        lock_timeout=config.lock_timeout,
        retry=RetryPolicy(
            max_attempts=4, base_delay=0.004, max_delay=0.05,
            jitter=0.004,
            retryable=RetryPolicy().retryable + (PersistenceError,),
        ),
        breaker=CircuitBreaker(failure_threshold=4, reset_timeout=0.1),
        replication=group,
        node="primary",
        seed=config.seed,
    )
    names = [f"r{i}" for i in range(config.replicas)]
    for name in names:
        group.add_replica(name, Replica(name, cell_dir / name))
    if config.auto_failover:
        assert lease_mgr is not None
        coordinator = FailoverCoordinator(group, lease_mgr.config)
        for name in names:
            coordinator.watch(group.replica(name))
        lease_mgr.start()
        coordinator.start()
        # Clock skew out to the configured drift margin — the primary
        # runs fast, one replica slow — plus lossy heartbeats: lease
        # safety must not depend on comparable clocks or a reliable
        # beat stream.
        FAULTS.arm("repl.lease.clock", ClockSkewFault(offsets={
            "primary": config.lease_margin,
            names[0]: -config.lease_margin,
        }))
        FAULTS.arm("repl.lease.heartbeat", HeartbeatDropFault(
            rate=config.heartbeat_drop_rate, seed=config.seed,
        ))

    # A per-cell record stream: the process-wide soak JSONL interleaves
    # every cell (and the primary's WAL seq restarts between them), so
    # the span-coverage and timeline oracles fold this file instead.
    cell_sink = FileSink(cell_dir / "events.jsonl")
    OBS.events.add_sink(cell_sink)
    acked_pairs: list = []
    verify_events = False

    FAULTS.arm("repl.transport.deliver",
               LatencyFault(0.0005, jitter=0.002, seed=config.seed))
    plans = _cell_plans(db, config)
    counts: dict[str, int] = {}
    counts_lock = threading.Lock()
    harness_errors: list = []
    stop = threading.Event()
    controller = None
    if scenario == "partition":
        controller = threading.Thread(
            target=_partition_controller,
            args=(group, names, config, stop),
            name=f"repl-ctl-{_slug(mode, scenario)}", daemon=True,
        )
    elif scenario == "replica_crash":
        controller = threading.Thread(
            target=_crash_controller,
            args=(group, names, config, stop,
                  random.Random(config.seed * 48611 + 7)),
            name=f"repl-ctl-{_slug(mode, scenario)}", daemon=True,
        )
    workers = [
        threading.Thread(
            target=_run_worker,
            args=(service, plans[i], snapshot_path, counts,
                  counts_lock, harness_errors),
            name=f"repl-worker-{i}", daemon=True,
        )
        for i in range(config.threads)
    ]
    new_service: DatabaseService | None = None
    try:
        if controller is not None:
            controller.start()
        for worker in workers:
            worker.start()
        if serve:
            service.serve_metrics()
            # Mid-soak scrape with the workers (and the scenario's
            # faults) live: the lag gauges must be present while the
            # stream is actually lagging, not just at rest.
            time.sleep(min(0.2, config.wall_clock_limit / 10))
            _scrape(service, group, scrape_dir,
                    f"{_slug(mode, scenario)}-mid", cell)
        budget = started + config.wall_clock_limit
        for worker in workers:
            worker.join(max(budget - time.monotonic(), 0.1))
        hung = sum(1 for worker in workers if worker.is_alive())
        if hung:
            cell.failures.append(f"{hung} workers hung")
        stop.set()
        if controller is not None:
            controller.join(config.phase_seconds * 4 + 1.0)
        FAULTS.disarm("repl.transport.deliver")
        FAULTS.disarm("repl.replica.apply")
        for exc in harness_errors:
            cell.failures.append(f"harness error: {exc!r}")
        if hung or harness_errors:
            return cell

        _heal(group, names)
        cell.committed = len(service.committed_ops())
        acked_pairs = list(service.acked_ops())
        cell.acked = len(acked_pairs)
        active = service
        primary_db = db
        # With auto-failover on, the partition cells fail over too —
        # the kill then happens on a group whose links just spent the
        # whole workload flapping.
        failover = scenario == "primary_kill" or (
            config.auto_failover and scenario == "partition"
        )
        if failover:
            if config.auto_failover:
                # Deterministic epilogue timing: stop dropping beats,
                # but leave the clock skew in — expiry, election and
                # fencing must hold under drift up to the margin.
                FAULTS.disarm("repl.lease.heartbeat")
                new_service = _auto_failover_epilogue(
                    cell, config, group, service, primary_dir,
                    coordinator,
                )
            else:
                new_service = _failover_epilogue(cell, config, group,
                                                 service, primary_dir)
            if new_service is None:
                return cell
            active = new_service
            primary_db = new_service.db
            cell.committed += len(new_service.committed_ops())
            new_acked = list(new_service.acked_ops())
            acked_pairs.extend(new_acked)
            cell.acked += len(new_acked)
        for attempt in range(2):
            _heal(group, names + ["old-primary"])
            try:
                verdict = group.sync_all(timeout=10.0)
            except ReproError as exc:
                cell.failures.append(f"settling failed: {exc!r}")
                break
            if not verdict["lagging"]:
                break
        else:
            cell.failures.append(
                f"replicas never settled: {verdict['lagging']}"
            )
        if cell.promotion is None:
            # Valid only without a failover: after one, the old
            # primary's committed log includes the fenced-away tail.
            _verify_replay(cell, config, service.committed_ops(),
                           primary_db)
        _verify_journal(cell, config, group, primary_db)
        _verify_replicas(cell, group, primary_db)
        if serve:
            if new_service is not None:
                new_service.serve_metrics()
            _scrape(active, group, scrape_dir,
                    f"{_slug(mode, scenario)}-final", cell)
        verify_events = True
    finally:
        stop.set()
        FAULTS.disarm("repl.transport.deliver")
        FAULTS.disarm("repl.replica.apply")
        if coordinator is not None:
            coordinator.stop()
        if lease_mgr is not None:
            lease_mgr.stop()
        FAULTS.disarm("repl.lease.clock")
        FAULTS.disarm("repl.lease.heartbeat")
        try:
            service.close(timeout=5.0)
        except ReproError:
            pass
        if new_service is not None:
            try:
                new_service.close(timeout=5.0)
            except ReproError:
                pass
        group.close()
        OBS.events.remove_sink(cell_sink)
        cell_sink.close()
        cell.duration = time.monotonic() - started
        cell.counts = counts
    if verify_events:
        if not cell_sink.path.exists():
            cell.notes.append(
                "no cell event stream (collection disabled); span "
                "oracles skipped"
            )
            return cell
        label = _slug(mode, scenario)
        try:
            records = read_jsonl(cell_sink.path)
        except (OSError, ValueError) as exc:
            cell.failures.append(f"cell event stream unreadable: {exc}")
            return cell
        _verify_pipeline_coverage(cell, mode, config.replicas, records,
                                  acked_pairs)
        _verify_timeline(cell, cell.promotion is not None, records,
                         scrape_dir, label)
        _write_pipeline_dot(cell, records, acked_pairs, scrape_dir,
                            label)
    return cell


# -- the run ------------------------------------------------------------------


def run_replication_soak(
    config: ReplicationSoakConfig = ReplicationSoakConfig(),
) -> ReplicationSoakReport:
    """Run the full matrix; see the module docstring for the checks."""
    workdir = Path(config.workdir
                   or tempfile.mkdtemp(prefix="fdb-repl-soak-"))
    workdir.mkdir(parents=True, exist_ok=True)
    jsonl = Path(config.jsonl or workdir / "replication-events.jsonl")
    scrape_dir = Path(config.scrape_dir or workdir)
    scrape_dir.mkdir(parents=True, exist_ok=True)
    report = ReplicationSoakReport(config=config,
                                   jsonl_path=str(jsonl))
    sink = FileSink(jsonl)
    was_enabled = OBS.enabled
    OBS.events.add_sink(sink)
    OBS.enable()
    started = time.monotonic()
    try:
        for mode in config.modes:
            for scenario in config.scenarios:
                cell_dir = workdir / _slug(mode, scenario)
                cell_dir.mkdir(parents=True, exist_ok=True)
                report.cells.append(
                    _run_cell(mode, scenario, config, cell_dir,
                              scrape_dir, config.serve_endpoint)
                )
    finally:
        FAULTS.disarm_all()
        if not was_enabled:
            OBS.disable()
        OBS.events.remove_sink(sink)
    report.duration = time.monotonic() - started

    records = read_jsonl(jsonl)

    def actions(name: str) -> int:
        return sum(1 for r in records
                   if r.kind == "action" and r.name == name)

    report.promotions = actions("replication.promote")
    report.elections = actions("replication.elected")
    report.fenced_writes = actions("replication.write_fenced")
    report.rejoins = actions("replication.rejoin")
    if config.auto_failover:
        expected = sum(1 for _ in config.modes
                       for s in config.scenarios
                       if s in ("primary_kill", "partition"))
        if report.elections < expected:
            report.failures.append(
                f"event log shows {report.elections} elections for "
                f"{expected} auto-failover cells"
            )
        if report.promotions != report.elections:
            report.failures.append(
                f"{report.promotions} promotions vs {report.elections}"
                f" elections: a promotion ran outside the coordinator"
            )
    if "primary_kill" in config.scenarios:
        kills = sum(1 for mode in config.modes
                    for s in config.scenarios if s == "primary_kill")
        if report.promotions < kills:
            report.failures.append(
                f"event log shows {report.promotions} promotions for "
                f"{kills} primary_kill cells"
            )
        if report.fenced_writes < kills:
            report.failures.append(
                f"event log shows {report.fenced_writes} fenced "
                f"writes for {kills} primary_kill cells"
            )
        if report.rejoins < kills:
            report.failures.append(
                f"event log shows {report.rejoins} rejoins for "
                f"{kills} primary_kill cells"
            )
    return report
