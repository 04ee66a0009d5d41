"""The chaos harness: concurrent mixed traffic against live faults, on
any topology.

The crash matrix (:mod:`repro.faults.harness`) proves every *single*
failure point recovers to exactly the committed prefix. This harness
is its concurrency analogue, and it is one harness: a run is a list of
**cells** over ``(shards, replicas, auto_failover, commit mode,
scenario)``. Every cell builds the same front door — a
:class:`ShardedDatabaseService <repro.shard.sharded.
ShardedDatabaseService>`; ``shards=1, replicas=0`` is simply the
one-lane facade — drives N worker threads of reads, writes, atomic
sequences, contended read-modify-writes and checkpoints through
it (plus multi-shard sequences and scatter reads when ``shards > 1``,
bounded-staleness replica reads when ``replicas > 0``) while a
controller thread cycles the scenario's fault phases underneath, runs
the scenario's epilogues, and then folds one table of checks over the
run it recorded.

Scenarios (:data:`SCENARIOS`):

* ``storage`` — latency inside the storage critical sections,
  transient I/O errors, a full outage that trips the circuit breaker,
  apply-time failures that exercise the compensating abort. Epilogue:
  a forced breaker open/close cycle and a forced SLO raise/clear cycle;
  on a replicated topology lane 0's primary is then killed as well.
* ``partition`` — replica links flap one at a time, periodically all
  at once; commits must keep meeting their ack quota through the
  survivors. Under ``auto_failover`` the cell ends with a failover.
* ``replica_crash`` — replicas die mid-apply (the
  ``repl.replica.apply`` crash point) or outright, and restart from
  their own disk.
* ``primary_kill`` — no faults under the workload; lane 0's primary is
  killed afterwards.

The failover epilogue isolates lane 0's primary, forces one commit
nobody acks, and fails the lane over. Only two things vary: *who
elects* — ``group.promote()``, or under ``auto_failover`` the
:class:`FailoverCoordinator <repro.replication.lease.
FailoverCoordinator>` once the leased primary has self-demoted (the
harness only watches) — and nothing else: the promoted replica's
service is swapped into the facade and written through, the deposed
primary's files rejoin the group as a follower.

The checks are one table, :data:`CHECKS <repro.faults.rundir.CHECKS>`
(``docs/ROBUSTNESS.md`` prints it). They read nothing the services
keep about themselves, only the cell's **run directory**, which
:meth:`Cell.verify` writes once (:mod:`repro.faults.rundir`): the
**client record** (every op and the outcome its caller saw, kept by
:meth:`Cell.run_op`, which workers, epilogues and hand-driven tests
share), each lane's **disk history** (its committed WAL records:
captured by a fault armed at ``wal.checkpoint.before-snapshot``,
which fires under the lane's ``__write__`` token before the fold, and
the tail read at verify), the **delivered frames** (what each replica
accepted, noted by a :class:`Replica` subclass), the **event stream**
(the cell's own JSONL: spans and ``replication.*`` actions, acked
commits included) and every node's state. The failover epilogue and
the two ``/metrics`` + ``/health`` scrapes record their own verdicts
(``failover``, ``scrape``) where they observe them.

A run's :class:`SoakConfig` is what the command line chooses: the
topology, the matrix, the load and the workdir. Every other value
every cell shares is a constant of this module.

Run it: ``python -m repro.faults --soak [--shards N] [--replicas R]
[--auto-failover] [--modes ...] [--scenarios ...] [--workdir DIR]``;
fold the checks over a stored run again with ``python -m repro.faults
--check DIR``.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import json
import random
import tempfile
import threading
import time
import urllib.error
import urllib.request
from collections import Counter
from contextlib import ExitStack, suppress
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

from repro.errors import (
    CrossShardError,
    LockTimeout,
    OperationCancelled,
    PersistenceError,
    ReplicationError,
    ReplicationTimeout,
    ReproError,
    ServiceClosed,
    ServiceOverloaded,
    ServiceReadOnly,
    StalenessUnserved,
    StalePrimary,
)
from repro.faults.registry import (
    FAULTS,
    ClockSkewFault,
    CrashFault,
    ErrorFault,
    Fault,
    HeartbeatDropFault,
    LatencyFault,
    TransientError,
)
from repro.faults.rundir import (
    CHAIN_PREFIXES,
    VALUE_POOL,
    Disk,
    Lane,
    Run,
    fold,
    seed_lane,
    soak_database,
    soak_schema,
)
from repro.fdb import persistence
from repro.fdb.database import FunctionalDatabase
from repro.fdb.updates import Update, UpdateSequence
from repro.fdb.values import is_null
from repro.fdb.wal import UpdateLog
from repro.obs.endpoint import ExpositionError, parse_prometheus
from repro.obs.events import FileSink
from repro.obs.hooks import OBS
from repro.obs.slo import ERROR_RATE, Objective, replication_lag_objective
from repro.replication import (
    CommitMode,
    FailoverCoordinator,
    LeaseConfig,
    Replica,
    ReplicationGroup,
)
from repro.service import CircuitBreaker, DatabaseService, RetryPolicy
from repro.service.service import clusters_of
from repro.shard import ShardedDatabaseService
from repro.workloads.generator import WorkloadConfig, random_updates

__all__ = ["SCENARIOS", "Cell", "SoakConfig", "SoakReport", "check",
           "run_soak", "soak_database"]


# -- configuration and report -------------------------------------------------


# What every cell shares, named where more than one place reads it or
# the suite-sized runs shorten it: how long the fault controller holds
# a phase, each lane's lock wait, how long workers may run before the
# cell calls them hung, and the replication ack wait.
PHASE_SECONDS = 0.08
LOCK_TIMEOUT = 0.25
WALL_CLOCK_LIMIT = 120.0
ACK_TIMEOUT = 2.0
# Short windows, so the forced breach/clear epilogue completes within
# a CI smoke budget.
ERROR_OBJECTIVE = Objective("soak-error-rate", ERROR_RATE, 0.35,
                            window=1.5, fast_fraction=1 / 3)


@dataclass(frozen=True)
class SoakConfig:
    """One run: a topology, a cell matrix over it, the load, and the
    directory each cell's run directory goes under. ``modes`` /
    ``scenarios`` left ``None`` take the topology's defaults (see
    :meth:`matrix`)."""

    shards: int = 1
    replicas: int = 0
    # Lane 0's group runs lease-based leadership and the failover
    # epilogue expects the *coordinator* to elect — the harness never
    # calls promote().
    auto_failover: bool = False
    modes: tuple | None = None
    scenarios: tuple | None = None
    threads: int = 8
    ops_per_thread: int = 30
    seed: int = 0
    faults: bool = True
    workdir: str | None = None
    # Serve /metrics + /health during each cell and scrape them mid-
    # and post-run into the cell's run directory.
    serve_endpoint: bool = True

    def __post_init__(self) -> None:
        if not 1 <= self.shards <= len(CHAIN_PREFIXES) // 2:
            raise ValueError(
                f"shards must be 1..{len(CHAIN_PREFIXES) // 2}"
            )
        if self.threads < 1 or self.ops_per_thread < 1:
            raise ValueError(
                "threads and ops per thread must be at least 1"
            )
        if self.replicas < 0:
            raise ValueError("replicas cannot be negative")
        if self.replicas == 0:
            if self.auto_failover:
                raise ValueError(
                    "auto_failover needs replicas to elect from "
                    "(replicas is 0)"
                )
            if self.modes is not None:
                raise ValueError(
                    "commit modes need replicas to wait for "
                    "(replicas is 0)"
                )
        for mode in self.modes or ():
            CommitMode.parse(mode)
        for scenario in self.scenarios or ():
            if scenario not in SCENARIOS:
                raise ValueError(
                    f"unknown scenario {scenario!r}; known: "
                    f"{', '.join(SCENARIOS)}"
                )
            if SCENARIOS[scenario].needs_replicas and not self.replicas:
                raise ValueError(
                    f"scenario {scenario!r} needs replicas "
                    f"(replicas is 0)"
                )

    def matrix(self) -> list[tuple[str | None, str]]:
        """The run's cells as ``(commit mode, scenario)`` pairs. The
        defaults reproduce the three historical jobs: an unreplicated
        or sharded topology runs one ``storage`` cell, a replicated
        lane the commit-mode x failover-scenario matrix."""
        matrix_lane = self.replicas > 0 and self.shards == 1
        if self.replicas == 0:
            modes: tuple = (None,)
        else:
            modes = self.modes or (("sync(1)", "quorum") if matrix_lane
                                   else ("sync(1)",))
        scenarios = self.scenarios or (
            ("partition", "replica_crash", "primary_kill")
            if matrix_lane else ("storage",)
        )
        return [(mode, scenario) for mode in modes
                for scenario in scenarios]


@dataclass
class SoakReport:
    """One node of the result: the run (``cells`` holds one child per
    matrix cell, ``failures`` the cross-cell checks) or one cell.
    ``failures`` are ``"<check>: <what>"`` strings, ``facts`` what
    happened (committed per lane, fence, promotion, event counts)."""

    config: SoakConfig
    mode: str | None = None
    scenario: str | None = None
    duration: float = 0.0
    counts: Counter = field(default_factory=Counter)
    facts: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    cells: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures and all(c.ok for c in self.cells)

    def fail(self, check: str, message: str) -> None:
        self.failures.append(f"{check}: {message}")

    def failed(self, check: str) -> list[str]:
        """This node's failures of one check (see :data:`CHECKS
        <repro.faults.rundir.CHECKS>`)."""
        return [f for f in self.failures if f.startswith(check + ":")]

    def lines(self) -> list[str]:
        config = self.config
        if self.scenario is None:
            out = [
                f"soak: {len(self.cells)} cell(s) on {config.shards} "
                f"shard(s) x {config.replicas} replica(s)"
                + (" (leased)" if config.auto_failover else "")
                + f", {config.threads} threads x "
                f"{config.ops_per_thread} ops, seed {config.seed}, "
                f"{self.duration:.2f}s",
            ]
            for cell in self.cells:
                out.extend(cell.lines())
            if self.facts.get("events"):
                out.append("events: " + ", ".join(
                    f"{name}={count}" for name, count
                    in sorted(self.facts["events"].items())
                ))
            out.extend(f"FAILED: {f}" for f in self.failures)
            out.append("soak: " + ("ok" if self.ok else "FAILED"))
            return out
        head = "[" + " / ".join(
            part for part in (self.mode, self.scenario) if part
        ) + "]"
        facts = self.facts
        out = [
            f"{head} {self.duration:.2f}s, committed per lane "
            f"{facts.get('committed', {})}"
            + (f", acked {facts['acked']}" if "acked" in facts else "")
            + (f", fence {facts['fence_seq']}"
               if "fence_seq" in facts else ""),
            f"{head} ops: " + ", ".join(
                f"{k}={v}" for k, v in sorted(self.counts.items()) if v
            ),
        ]
        for key in ("breaker", "slo", "spans", "markers"):
            if facts.get(key):
                out.append(f"{head} {key}: {facts[key]}")
        promotion = facts.get("promotion")
        if promotion:
            out.append(
                f"{head} lane 0 promoted {promotion['chosen']} at seq "
                f"{promotion['applied_seq']} (term "
                f"{promotion['old_term']} -> {promotion['new_term']})"
                + (" via automatic election"
                   if facts.get("elections") else "")
            )
        rejoin = facts.get("rejoin")
        if rejoin:
            out.append(
                f"{head} rejoin dropped {rejoin['records_dropped']} "
                f"records at fence {rejoin['fence_seq']}"
                + (" (rebootstrapped)" if rejoin["rebootstrapped"]
                   else "")
            )
        out.extend(f"{head} note: {note}" for note in self.notes)
        out.extend(f"{head} FAILED: {f}" for f in self.failures)
        out.append(f"{head} " + ("ok" if self.ok else "FAILED"))
        return out


# -- workload -----------------------------------------------------------------


def _plan_worker(config: SoakConfig, full: FunctionalDatabase,
                 shard_of: Callable[[str], int],
                 worker: int) -> list[tuple]:
    """Pre-generate one worker's ``(kind, payload, deadline)`` list
    against the *initial* state and the routing map (no unlocked table
    walks or map lookups once threads are live). Each op carries its
    own deadline decided up front, so a run's pressure profile is a
    function of the seed. The mix follows the topology: replica reads
    only with replicas, multi-shard sequences and scatter reads only
    with more than one shard."""
    rng = random.Random(config.seed * 7919 + worker)
    stream = random_updates(
        full, config.ops_per_thread,
        WorkloadConfig(seed=config.seed * 104729 + worker,
                       value_pool=VALUE_POOL,
                       fresh_value_rate=0.4),
    )
    read_targets = tuple(full.base_names) + tuple(full.derived_names)
    # Read-modify-write goes to a contended chain base: its read and
    # write hold the cluster exclusively, so they queue on each other.
    rmw_targets = tuple(name for name in full.base_names
                        if name.endswith("1"))

    def read_op(deadline) -> tuple:
        name = rng.choice(read_targets)
        elsewhere = [other for other in read_targets
                     if shard_of(other) != shard_of(name)]
        # Half the reads go to replicas, a fifth of those demanding
        # zero staleness (exercising StalenessUnserved).
        if config.replicas and rng.random() < 0.5:
            bound = 0 if rng.random() < 0.2 else None
            return "replica_read", (name, bound), deadline
        if elsewhere and rng.random() < 0.3:
            return "scatter", (name, rng.choice(elsewhere)), deadline
        return "read", name, deadline

    ops: list[tuple] = []
    for index in range(config.ops_per_thread):
        roll = rng.random()
        deadline = 0.003 if roll < 0.1 else 2.0 if roll < 0.9 else None
        kind_roll = rng.random()
        if worker == 0 and index and index % 10 == 0:
            ops.append(("checkpoint", (index // 10) % config.shards,
                        deadline))
        elif kind_roll < 0.30:
            ops.append(read_op(deadline))
        elif kind_roll < 0.45:
            ops.append(("rmw", rng.choice(rmw_targets), deadline))
        elif kind_roll < 0.55 and len(stream) >= 2:
            first = stream.pop(rng.randrange(len(stream)))
            # On several shards, half the sequences span two of them
            # (the facade's global lane), half stay on one.
            spanning = config.shards > 1 and rng.random() < 0.5
            fits = [i for i, update in enumerate(stream)
                    if (shard_of(update.function)
                        != shard_of(first.function)) == spanning]
            second = stream.pop(rng.choice(fits or range(len(stream))))
            ops.append(("seq",
                        UpdateSequence((first, second),
                                       label=f"w{worker}.{index}"),
                        deadline))
        elif stream:
            ops.append(("write", stream.pop(rng.randrange(len(stream))),
                        deadline))
        else:
            ops.append(read_op(deadline))
    return ops


# First match wins: the replication errors come before their bases
# (LeaseExpired is a StalePrimary *and* a ServiceReadOnly).
_OUTCOMES = (
    (CrossShardError, "cross_shard"),
    (ReplicationTimeout, "repl_timeout"),
    (StalePrimary, "fenced"),
    (StalenessUnserved, "stale_read"),
    (ServiceOverloaded, "shed"),
    (ServiceReadOnly, "readonly"),
    (OperationCancelled, "cancelled"),
    (LockTimeout, "contended"),
    (ServiceClosed, "closed"),
    ((PersistenceError, OSError), "storage_failed"),
    (RuntimeError, "failed_apply"),  # the apply-phase ErrorFault
)


def _classify(exc: BaseException) -> str:
    return next((outcome for kinds, outcome in _OUTCOMES
                 if isinstance(exc, kinds)), "other")


def _rmw_build(name: str):
    def build(db):
        # Only plain (non-null) pairs: NVC facts carry indexed nulls,
        # which are not REP targets here.
        pairs = sorted(
            p for p in db.table(name).pairs()
            if not (is_null(p[0]) or is_null(p[1]))
        )
        if not pairs:
            return None
        x, y = pairs[0]
        return Update.rep(name, (x, y), (x, f"{y}~r"))

    return build


def _run_worker(cell: "Cell", ops: list[tuple]) -> None:
    """The one worker loop: every planned op through
    :meth:`Cell.run_op`; the outcomes are the cell's counts."""
    local = Counter(cell.run_op(*op) for op in ops)
    with cell.client_lock:
        cell.report.counts.update(local)


# -- fault phases -------------------------------------------------------------

# A phase is (name, enter, leave); a scenario's ``phases(cell)`` returns
# ``phase_at(index)``, which the controller calls once per cycle.


def _noop() -> None:
    return None


def _storage_phases(cell: "Cell"):
    seed = cell.config.seed
    schedule = [
        ("quiet", []),
        ("latency", [
            ("storage.append.payload",
             LatencyFault(0.002, jitter=0.004, seed=seed)),
            ("storage.atomic.payload",
             LatencyFault(0.002, jitter=0.004, seed=seed + 1)),
        ]),
        ("transient", [("wal.append.before", TransientError(times=2))]),
        ("quiet", []),
        ("outage", [("wal.append.before",
                     TransientError(times=10 ** 6))]),
        ("apply_error", [("wal.apply.before", ErrorFault(times=3))]),
    ]

    def phase_at(index: int):
        name, arms = schedule[index % len(schedule)]
        return (name,
                lambda: [FAULTS.arm(point, fault)
                         for point, fault in arms],
                lambda: [FAULTS.disarm(point) for point, _ in arms])

    return phase_at


def _partition_phases(cell: "Cell"):
    """Cut one replica slot's link on every lane per cycle, every
    fourth cycle all of them at once (the ack quota must wait it out,
    not lose anything); a healed phase follows each cut."""

    def phase_at(index: int):
        if index % 2:
            return "healed", _noop, _noop
        turn = index // 2
        slot = None if turn % 4 == 3 else turn % cell.config.replicas
        targets = [
            link for lane in cell.replicated()
            for name, link in _links(lane.group).items()
            if slot is None or name == lane.replicas[slot]
        ]
        return (f"partition:{'*' if slot is None else slot}",
                lambda: _cut(targets, True),
                lambda: _cut(targets, False))

    return phase_at


def _crash_phases(cell: "Cell"):
    """Kill replicas mid-stream — half the cycles through the
    ``repl.replica.apply`` crash point (dying *between* the local
    write-ahead append and the apply), half by dropping one replica
    slot outright — then restart them from their own disk; a quiet
    phase follows each."""
    rng = random.Random(cell.config.seed * 48611 + 7)

    def phase_at(index: int):
        if index % 2:
            return "recovered", _noop, _noop
        slot = (index // 2) % cell.config.replicas

        def drop() -> None:
            for lane in cell.replicated():
                try:
                    lane.group.replica(lane.replicas[slot]).crash()
                except ReplicationError:
                    pass

        def recover_all() -> None:
            FAULTS.disarm("repl.replica.apply")
            for lane in cell.replicated():
                _restart_crashed(lane.group)

        if rng.random() < 0.5:
            return ("crash:apply",
                    lambda: FAULTS.arm("repl.replica.apply",
                                       CrashFault()),
                    recover_all)
        return f"crash:{slot}", drop, recover_all

    return phase_at


def _controller(cell: "Cell", phase_at, stop: threading.Event) -> None:
    """The one fault controller: enter a phase, hold it, leave it."""
    index = 0
    while not stop.is_set():
        name, enter, leave = phase_at(index)
        enter()
        if OBS.enabled:
            OBS.action("soak.phase", phase=name)
        stop.wait(PHASE_SECONDS)
        leave()
        index += 1


@dataclass(frozen=True)
class Scenario:
    """What a cell does to the system: the phases cycled under the
    workload (``None``: none) and the epilogues that follow it.
    ``failover`` is ``"always"``, ``"leased"`` (only under
    ``auto_failover``) or ``"never"``; it needs replicas either way."""

    phases: Callable | None
    breathe: bool = False
    failover: str = "never"
    needs_replicas: bool = False

    def fails_over(self, config: SoakConfig) -> bool:
        return config.replicas > 0 and (
            self.failover == "always"
            or (self.failover == "leased" and config.auto_failover))


SCENARIOS = {
    "storage": Scenario(_storage_phases, breathe=True,
                        failover="always"),
    "partition": Scenario(_partition_phases, failover="leased",
                          needs_replicas=True),
    "replica_crash": Scenario(_crash_phases, needs_replicas=True),
    "primary_kill": Scenario(None, failover="always",
                             needs_replicas=True),
}


# -- replication plumbing -----------------------------------------------------


def _links(group: ReplicationGroup) -> dict:
    shipper = group.shipper
    return {} if shipper is None else {
        link.name: link for link in shipper.links()
    }


def _cut(links, value: bool) -> None:
    for link in links:
        if hasattr(link.transport, "partitioned"):
            link.transport.partitioned = value


def _restart_crashed(group: ReplicationGroup) -> None:
    for name in group.replica_names():
        try:
            replica = group.replica(name)
        except ReplicationError:
            continue
        if replica.crashed:
            try:
                replica.restart()
            except (ReproError, OSError):
                pass  # settle-time sync will surface it as a failure


# -- one cell -----------------------------------------------------------------


# Fires under the checkpointing lane's write token, every record still
# in its log: where the disk history captures what the fold removes.
CHECKPOINT = "wal.checkpoint.before-snapshot"


@dataclass
class _Disk(Disk):
    """A live primary's disk: its WAL, read up to ``through`` before
    each checkpoint folds the records away, then to the tail."""

    log: UpdateLog | None = None
    through: int = 0

    def capture(self) -> None:
        """Keep the records written since the last capture."""
        last = self.log.last_seq()
        self.lines.extend(line for _, line
                          in self.log.records_between(self.through, last))
        self.through = max(self.through, last)


class _DiskRecorder(Fault):
    """Armed at :data:`CHECKPOINT` for a cell's life: captures the
    checkpointing primary's records before the fold."""

    def __init__(self, lanes: list) -> None:
        self.lanes = lanes

    def trigger(self, point: str, log=None, **context) -> None:
        for lane in self.lanes:
            for disk in lane.disks:
                if disk.log is log:
                    disk.capture()


class _RecordingReplica(Replica):
    """A follower that notes every record it accepts in ``delivered``,
    a list the harness owns. The group builds a link's transport from
    ``handle`` (``add_replica`` and ``rejoin`` alike), so recording
    here reaches every link a replica ever had."""

    def __init__(self, name: str, workdir: Path, delivered: list) -> None:
        super().__init__(name, workdir)
        self.delivered = delivered

    def handle(self, message: dict) -> dict:
        reply = super().handle(message)
        if message.get("type") == "append" and reply.get("ok"):
            self.delivered.extend(message["records"])
        return reply


@dataclass
class _Lane(Lane):
    """A live lane: the record :meth:`Cell.verify` saves, plus its
    replication group. ``snapshot`` and ``wal`` are where its files
    live *now* (a failover moves them to the promoted replica's
    directory); ``replicas`` holds the slots' names until verify
    records the group's members."""

    group: ReplicationGroup | None = None

    def replica(self, name: str, workdir: Path) -> _RecordingReplica:
        """A new follower of the lane, one more node that served it."""
        self.nodes.append(name)
        return _RecordingReplica(name, workdir,
                                 self.delivered.setdefault(name, []))


class Cell:
    """One ``(mode, scenario)`` cell on the config's topology, its run
    directory ``workdir``, as a context manager: entering builds the
    front door and everything behind it, leaving closes all of it —
    the facade and every lane's WAL, every group, the coordinator, the
    lease manager, the cell's event sink. :meth:`run` is workload +
    epilogues + :meth:`verify`; a test may instead drive the front door
    by hand through :meth:`run_op` and call :meth:`verify` to see the
    oracles judge a state it planted."""

    def __init__(self, config: SoakConfig, mode: str | None,
                 scenario: str, workdir: Path) -> None:
        self.config = config
        self.scenario = SCENARIOS[scenario]
        self.workdir = Path(workdir)
        # What the workers and epilogues observe live (outcome counts;
        # facts, failures and notes), until verify puts its verdict here.
        self.report = SoakReport(config, mode=mode, scenario=scenario)
        # The client record: (kind, payload, outcome) per op, the
        # payload of a committed read-modify-write the update it built.
        self.client: list[tuple] = []
        self.client_lock = threading.Lock()
        self.harness_errors: list = []
        self.plans: list[list[tuple]] = []
        self.hung = 0
        self.coordinator: FailoverCoordinator | None = None
        self._stack = ExitStack()

    def __enter__(self) -> "Cell":
        try:
            self._build()
        except BaseException:
            self._stack.close()  # a failed build still closes its part
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._stack.close()

    # -- construction -------------------------------------------------------

    def _build(self) -> None:
        config, stack = self.config, self._stack
        self.workdir.mkdir(parents=True, exist_ok=True)
        lanes_dir = self.workdir / "lanes"
        # The cell's own event stream, part of its run directory.
        self._sink = FileSink(self.workdir / "events.jsonl")
        was_enabled = OBS.enabled
        OBS.events.add_sink(self._sink)
        OBS.enable()
        stack.callback(self._end_events)
        if not was_enabled:
            stack.callback(OBS.disable)

        chains = 2 * config.shards
        self.full = soak_database(config.seed, chains)
        self.lanes = [
            _Lane(shard, [f"shard-{shard}-primary"], f"shard-{shard}-primary",
                  [], lanes_dir / f"shard-{shard}.snap",
                  lanes_dir / f"shard-{shard}.wal", [])
            for shard in range(config.shards)
        ]

        def replication_factory(shard: int) -> ReplicationGroup:
            group = ReplicationGroup(
                self.report.mode, ack_timeout=ACK_TIMEOUT,
                retry_interval=0.01,
            )
            stack.callback(group.close)
            if config.auto_failover and shard == 0:
                # Enabled before the lane service attaches, so the very
                # first term is lease-granted.
                group.enable_lease(LeaseConfig(
                    duration=0.5, margin=0.1, renew_interval=0.08,
                    check_interval=0.02,
                ))
            self.lanes[shard].group = group
            return group

        objectives = (ERROR_OBJECTIVE,) + (
            (replication_lag_objective(),) if config.replicas else ())
        # Round-robin cluster -> shard pins: every lane must be
        # populated (the epilogues write to lanes by name) and see real
        # multi-shard traffic, which a pure hash placement cannot
        # promise for a handful of clusters.
        clusters = sorted(set(clusters_of(self.full).values()))
        self.front = front = ShardedDatabaseService(
            lambda: soak_schema(chains), config.shards,
            pins={cluster: index % config.shards
                  for index, cluster in enumerate(clusters)},
            log_dir=lanes_dir,
            replication_factory=(replication_factory
                                 if config.replicas else None),
            service_kwargs=dict(
                lock_timeout=LOCK_TIMEOUT,
                retry=RetryPolicy(
                    max_attempts=4, base_delay=0.004, max_delay=0.05,
                    jitter=0.004,
                ),
                max_concurrent=6,
                max_queue=32,
                queue_timeout=0.5,
                objectives=objectives,
                seed=config.seed,
            ),
        )
        stack.callback(self._close_front)
        for lane in self.lanes:
            service = front.lane(lane.index)
            # service_kwargs would hand every lane the *same* breaker;
            # a breaker is one lane's storage verdict.
            service.breaker = CircuitBreaker(failure_threshold=3,
                                             reset_timeout=0.1)
            seed_lane(service.db, self.full, front.map.names_on(lane.index))
            # Baseline snapshot (after the seed rows, which predate the
            # WAL) so strict recovery works even if no worker
            # checkpoint lands before a failure.
            persistence.save(service.db, lane.snapshot, wal_applied=0)
            lane.disks.append(_Disk(log=service.logged.log))
            for slot in range(config.replicas):
                name = f"s{lane.index}r{slot}"
                lane.replicas.append(name)
                lane.group.add_replica(
                    name, lane.replica(name, self.workdir / "replicas" / name)
                )
        FAULTS.arm(CHECKPOINT, _DiskRecorder(self.lanes))
        stack.callback(FAULTS.disarm, CHECKPOINT)
        lease = self.lanes[0].group.lease if config.replicas else None
        if lease is not None:
            group = self.lanes[0].group
            self.coordinator = FailoverCoordinator(group, lease.config)
            for name in self.lanes[0].replicas:
                self.coordinator.watch(group.replica(name))
            lease.start()
            self.coordinator.start()
            stack.callback(lease.stop)
            stack.callback(self.coordinator.stop)

    def _close_front(self) -> None:
        try:
            self.front.close(timeout=5.0)
        except ReproError:
            pass

    def _end_events(self) -> None:
        with suppress(ValueError):  # already ended by verify
            OBS.events.remove_sink(self._sink)

    def replicated(self) -> list[_Lane]:
        return [lane for lane in self.lanes if lane.group is not None]

    def run_op(self, kind: str, payload, deadline=None, door=None) -> str:
        """Issue one op as a client: through the front door (or
        ``door``, one lane's service), lane-scoped verbs through the
        lane the op names. The outcome — ``applied``, ``noop`` or the
        error's class — goes into the client record and is returned."""
        door, outcome = door or self.front, "applied"
        try:
            if kind == "read":
                door.read((payload,), lambda db: db.extension(payload),
                          deadline=deadline)
            elif kind == "replica_read":
                name, bound = payload
                door.lane(door.shard_of(name)).read_replica(
                    lambda db: db.extension(name), max_lag_seq=bound)
            elif kind == "scatter":
                door.scatter_read(payload, lambda db, names: {
                    n: len(db.extension(n)) for n in names},
                    deadline=deadline)
            elif kind == "rmw":
                built = door.read_modify_write(
                    (payload,), _rmw_build(payload), deadline=deadline)
                if built is None:
                    outcome = "noop"
                else:
                    payload = built
            elif kind == "checkpoint":
                door.lane(payload).checkpoint(self.lanes[payload].snapshot)
            else:  # "write" | "seq"
                door.execute(payload, deadline=deadline)
        except (ReproError, RuntimeError, OSError) as exc:
            outcome = _classify(exc)
        except BaseException as exc:  # pragma: no cover - harness bug
            self.harness_errors.append(exc)
            raise
        with self.client_lock:
            self.client.append((kind, payload, outcome))
        return outcome

    def _quiet_name(self, shard: int) -> str:
        """The base function on ``shard`` the epilogues write to: the
        lone base ``c`` where it lives, a chain's tail elsewhere."""
        names = [name for name in self.front.map.names_on(shard)
                 if self.full.is_base(name)]
        return "c" if "c" in names else max(names)

    # -- the run ------------------------------------------------------------

    def run(self) -> SoakReport:
        started = time.monotonic()
        try:
            self._workload(started)
            # Past a hung worker the state is still moving: the run
            # records that and nothing else.
            if not (self.hung or self.harness_errors):
                self._epilogues()
        finally:
            FAULTS.disarm_all()
            self.report.duration = time.monotonic() - started
        self.verify()
        return self.report

    def _workload(self, started: float) -> None:
        config, front = self.config, self.front
        self.plans = [
            _plan_worker(config, self.full, front.shard_of, worker)
            for worker in range(config.threads)
        ]
        stop = threading.Event()
        self._stack.callback(stop.set)
        controller = None
        if config.faults:
            if config.replicas:
                FAULTS.arm("repl.transport.deliver", LatencyFault(
                    0.0005, jitter=0.002, seed=config.seed))
            if self.coordinator is not None:
                # Clock skew out to the lease's drift margin — the
                # primary runs fast, one replica slow — plus lossy
                # heartbeats: lease safety must not depend on
                # comparable clocks or a reliable beat stream.
                lease = self.lanes[0].group.lease
                margin = lease.config.margin
                FAULTS.arm("repl.lease.clock", ClockSkewFault(offsets={
                    lease.clock.node: margin,
                    self.lanes[0].replicas[0]: -margin,
                }))
                FAULTS.arm("repl.lease.heartbeat", HeartbeatDropFault(
                    rate=0.15, seed=config.seed,
                ))
            if self.scenario.phases is not None:
                controller = threading.Thread(
                    target=_controller,
                    args=(self, self.scenario.phases(self), stop),
                    name="soak-controller", daemon=True,
                )
                controller.start()
        workers = [
            threading.Thread(target=_run_worker, args=(self, plan),
                             name=f"soak-worker-{i}", daemon=True)
            for i, plan in enumerate(self.plans)
        ]
        for worker in workers:
            worker.start()
        if config.serve_endpoint:
            front.serve_metrics()
            # Mid-soak scrape over real HTTP, with the workers and the
            # scenario's faults live: the exposition must be
            # well-formed — and the lag gauges present — while the
            # registry is being hammered, not just at rest.
            time.sleep(min(0.25, WALL_CLOCK_LIMIT / 10))
            self.scrape("mid")
        budget = started + WALL_CLOCK_LIMIT
        for worker in workers:
            worker.join(max(budget - time.monotonic(), 0.1))
        self.hung = sum(1 for worker in workers if worker.is_alive())
        stop.set()
        if controller is not None:
            controller.join(PHASE_SECONDS * 4 + 1.0)
        # Deterministic epilogue timing: every injected fault stops
        # here except the clock skew — expiry, election and fencing
        # must hold under drift up to the margin — and the recorder.
        for name in FAULTS:
            if name not in ("repl.lease.clock", CHECKPOINT):
                FAULTS.disarm(name)
        for lane in self.replicated():
            self._heal(lane)

    def _heal(self, lane: _Lane) -> None:
        _cut(_links(lane.group).values(), False)
        _restart_crashed(lane.group)

    def _epilogues(self) -> None:
        config, scenario = self.config, self.scenario
        if scenario.breathe:
            self._breathe(config.shards - 1)
        if scenario.fails_over(config):
            self._failover()
        for lane in self.replicated():
            self._settle(lane)
        if config.serve_endpoint and not self.report.failed("scrape"):
            self.scrape("final")
        self.front.drain(timeout=10.0)

    def scrape(self, stage: str) -> None:
        """The one scrape: ``/metrics`` over real HTTP must parse as
        Prometheus text and carry every lane's series (the lag series
        with replicas, the lease's under one); ``/health`` must hold a
        boolean verdict, one entry per lane, and a replication block
        per replicated lane. Both bodies are kept in the run
        directory."""
        fail, front = partial(self.report.fail, "scrape"), self.front
        prefixes = [f"service_shard_{lane.index}_"
                    for lane in self.lanes]
        for lane in self.replicated():
            try:
                lane.group.lag()  # refresh the gauges the scrape wants
            except ReproError:
                pass
        if self.config.replicas:
            prefixes.append("replication_lag_seq_")
        if self.coordinator is not None:
            prefixes.append("replication_lease_")
        endpoint = front.endpoint
        if endpoint is None or not endpoint.running:
            fail(f"{stage}: endpoint not running")
            return
        try:
            with urllib.request.urlopen(endpoint.url + "/metrics",
                                        timeout=5) as resp:
                body = resp.read().decode("utf-8")
            families = parse_prometheus(body)
            for prefix in prefixes:
                if not any(name.startswith(prefix) for name in families):
                    fail(f"{stage}: no {prefix}* series in /metrics")
            (self.workdir / f"metrics-{stage}.prom").write_text(
                body, encoding="utf-8")
            try:
                with urllib.request.urlopen(endpoint.url + "/health",
                                            timeout=5) as resp:
                    health_body = resp.read().decode("utf-8")
            except urllib.error.HTTPError as exc:
                # 503 == unhealthy-but-well-formed; still validated.
                health_body = exc.read().decode("utf-8")
            verdict = json.loads(health_body)
            if not isinstance(verdict.get("healthy"), bool):
                fail(f"{stage}: /health lacks a boolean 'healthy' key")
            lanes = verdict.get("lanes", {})
            if len(lanes) != front.shards:
                fail(f"{stage}: /health lacks the per-lane verdicts")
            for lane in self.replicated():
                block = lanes.get(str(lane.index), {}).get("replication")
                if not isinstance(block, dict) or "term" not in block:
                    fail(f"{stage}: /health lane {lane.index} lacks the "
                         f"replication block")
            (self.workdir / f"health-{stage}.json").write_text(
                health_body, encoding="utf-8")
        except (OSError, ValueError, ExpositionError) as exc:
            fail(f"{stage}: {exc}")

    # -- epilogue: breaker and SLO breathe-cycles ---------------------------

    def _breathe(self, shard: int) -> None:
        """Deterministically produce, on lane ``shard``, one breaker
        OPEN -> CLOSED cycle (unless the random schedule already did)
        and one SLO raise -> clear cycle: arm a hard storage outage and
        write until the breaker has tripped and the error-rate alert is
        active (breaker rejections are errors burning the budget; an
        alert the trip already raised counts), disarm, and write until
        the breaker has closed and the fast window is healthy again.
        The writes are client ops like any others."""
        lane, name = self.front.lane(shard), self._quiet_name(shard)
        breaker, slo = lane.breaker, lane.slo
        serial = itertools.count()

        def until(stage: str, done, seconds: float, pause: float) -> bool:
            budget = time.monotonic() + seconds
            while not done():
                if time.monotonic() >= budget:
                    self.report.fail("breathe", (
                        f"{stage} never completed (breaker trips "
                        f"{breaker.trips}, resets {breaker.resets}; "
                        f"alerts={list(slo.alerts)})"))
                    return False
                self.run_op("write", Update.ins(
                    name, f"{stage}_x", f"{stage}_y{next(serial)}"), 2.0)
                slo.evaluate()
                time.sleep(pause)
            return True

        with FAULTS.injected("wal.append.before",
                             TransientError(times=10 ** 6)):
            raised = until("outage", lambda: breaker.trips
                           and not slo.healthy, 10.0, 0.01)
        # Clear: successes push the fast-window error rate back under
        # the threshold once the breach ages past the fast horizon.
        if raised:
            until("recovery", lambda: breaker.resets and slo.healthy,
                  10.0 + ERROR_OBJECTIVE.window, breaker.reset_timeout / 2)

    # -- epilogue: kill lane 0's primary ------------------------------------

    def _failover(self) -> None:
        """Kill lane 0's primary mid-commit and fail the lane over.

        Isolate the primary from every replica and force one commit
        through (durable locally, acked by nobody — the deterministic
        unacked tail) while the other lanes keep writing. Then the
        election: under ``auto_failover`` the harness only *watches* —
        the primary must self-demote the instant its lease lapses (its
        next write raises :exc:`StalePrimary` before touching its WAL)
        and the coordinator must elect unprompted, exactly once;
        otherwise ``group.promote()`` picks the longest applied
        prefix. Either way the deposed primary is turned away at the
        door, its disk is read before anything moves it, the promoted
        replica's service is swapped into the facade and written
        through, and the deposed primary's files rejoin as a follower,
        truncating the unacked tail. That no acked seq sits past the
        fence is the ``timeline`` audit's."""
        config, front, facts = self.config, self.front, self.report.facts
        fail = partial(self.report.fail, "failover")
        lane = self.lanes[0]
        group, old, name = lane.group, front.lane(0), self._quiet_name(0)
        lease = group.lease if self.coordinator is not None else None
        old_term, disk = group.term, lane.disks[-1]

        def expect_fenced(tag: str, why: str) -> None:
            wal_before = disk.log.last_seq()
            outcome = self.run_op("write", Update.ins(
                name, f"{tag}_x", f"{tag}_y"), 5.0, door=old)
            if outcome == "applied":
                fail(f"deposed primary wrote {why}")
            elif outcome != "fenced":
                fail(f"deposed write {why} ended {outcome}, wanted "
                     f"StalePrimary")
            if disk.log.last_seq() != wal_before:
                fail(f"deposed write {why} reached the old primary's "
                     f"WAL")

        def wait_for(condition) -> bool:
            horizon = lease.config.detector_horizon
            deadline = time.monotonic() + horizon + 5.0
            while not condition() and time.monotonic() < deadline:
                time.sleep(0.01)
            return bool(condition())

        _cut(_links(group).values(), True)
        if OBS.enabled:
            OBS.action("soak.phase", phase="primary_kill")
        # Time the ack wait out well inside the lease validity window,
        # so the kill surfaces as ReplicationTimeout (durable locally,
        # acked by nobody) rather than the later self-demotion.
        ack_timeout, group.ack_timeout = group.ack_timeout, (
            0.2 if lease is None
            else min(0.2, lease.config.primary_validity / 2))
        try:
            outcome = self.run_op("write", Update.ins(
                name, "tail_x", "tail_y"), 5.0, door=old)
        finally:
            group.ack_timeout = ack_timeout
        if outcome != "repl_timeout":
            fail(f"isolated-primary commit ended {outcome}, wanted "
                 f"ReplicationTimeout")
        # The other lanes must not notice lane 0's outage.
        for shard in range(1, config.shards):
            outcome = self.run_op("write", Update.ins(
                self._quiet_name(shard), "during_x", f"during_y{shard}"),
                5.0)
            if outcome != "applied":
                fail(f"lane {shard} write ended {outcome} during lane "
                     f"0's failover")

        if lease is not None:
            if not wait_for(group.leaderless):
                fail("isolated primary never self-demoted")
                return
            expect_fenced("demoted", "after lease expiry, before any "
                                     "election")
            if not wait_for(lambda: self.coordinator.elections):
                fail("no automatic election inside the detection "
                     "window")
                return
            promotion = self.coordinator.elections[-1]
            facts["elections"] = len(self.coordinator.elections)
            if facts["elections"] != 1:
                fail(f"{facts['elections']} elections ran, expected "
                     f"exactly one")
            _cut(_links(group).values(), False)
        else:
            _cut(_links(group).values(), False)
            try:
                promotion = group.promote()
            except ReplicationError as exc:
                fail(f"promotion failed: {exc!r}")
                return
        facts["promotion"] = promotion.as_dict()
        facts["fence_seq"] = fence = group.fence_seq(old_term)
        # The old term stays fenced (StalePrimary from the term check
        # now, not just a lapsed lease) — exactly one writer.
        expect_fenced("deposed", "after the promotion")
        # Its disk as it stands, before rejoin cuts the tail.
        disk.capture()
        disk.end = fence
        old.close(timeout=10.0)

        chosen = group.replica(promotion.chosen)
        group.remove_replica(promotion.chosen)
        new = DatabaseService(
            chosen.db, log=UpdateLog(chosen.wal_path),
            lock_timeout=LOCK_TIMEOUT, shard=0,
            replication=group, node=chosen.name, seed=config.seed + 1,
        )
        front.swap_lane(0, new)
        lane.disks.append(_Disk(start=fence, log=new.logged.log))
        deposed_files = (lane.snapshot, lane.wal)
        lane.snapshot, lane.wal = chosen.snapshot_path, chosen.wal_path
        # The facade routes to the new primary; both the single- and
        # the multi-shard path must work across the swap.
        posts = [("write", Update.ins(name, "post_x", f"post_y{index}"))
                 for index in range(5)]
        if config.shards > 1:
            posts.append(("seq", UpdateSequence((
                Update.ins(name, "post_multi_x", "post_multi_y"),
                Update.ins(self._quiet_name(1), "post_multi_p",
                           "post_multi_q"),
            ), label="post-failover-multi")))
        for kind, update in posts:
            outcome = self.run_op(kind, update, 5.0)
            if outcome != "applied":
                fail(f"post-failover write through the facade ended "
                     f"{outcome}")
                break

        # The deposed primary's files, laid out the way a follower
        # keeps them (snapshot.json + wal.log), rejoin the group.
        rejoined = lane.replica(f"s{lane.index}old",
                                self.workdir / "replicas" / "old-primary")
        for source, target in zip(deposed_files, (rejoined.snapshot_path,
                                                  rejoined.wal_path)):
            source.replace(target)
        try:
            rejoin = group.rejoin(rejoined, old_term)
            facts["rejoin"] = rejoin.as_dict()
            if rejoin.records_dropped < 1 and not rejoin.rebootstrapped:
                fail("rejoin dropped no records despite the unacked "
                     "tail")
        except ReproError as exc:
            fail(f"rejoin failed: {exc!r}")

    def _settle(self, lane: _Lane) -> None:
        for _ in range(2):
            self._heal(lane)
            try:
                lagging = lane.group.sync_all(timeout=10.0)["lagging"]
            except ReproError as exc:
                self.report.fail(
                    "replicas",
                    f"lane {lane.index} settling failed: {exc!r}")
                return
            if not lagging:
                return
        self.report.fail(
            "replicas", f"lane {lane.index} never settled: {lagging}")

    # -- verification -------------------------------------------------------

    def verify(self) -> None:
        """Record the run directory, load it, and fold :data:`CHECKS
        <repro.faults.rundir.CHECKS>` over it. The cell's event stream
        ends here: nothing the cell does afterwards is part of its
        run."""
        self._end_events()
        front, stalled = self.front, bool(self.hung or self.harness_errors)
        states = {}
        for lane in self.lanes:
            if not stalled:
                lane.disks[-1].capture()
            lane.primary = front.lane(lane.index).node
            lane.replicas = lane.group.replica_names() if lane.group else []
            states[lane.primary] = front.lane(lane.index).db
            states.update((name, lane.group.replica(name).db)
                          for name in lane.replicas)
        names = (*self.full.base_names, *self.full.derived_names)
        Run(dataclasses.asdict(self.config), self.report.mode,
            self.report.scenario, self.scenario.breathe,
            {name: front.shard_of(name) for name in names}, self.lanes,
            sum(map(len, self.plans)), self.hung,
            [repr(exc) for exc in self.harness_errors],
            {key: getattr(self.report, key) for key in (
                "duration", "counts", "facts", "failures", "notes")},
            self.client, {node: db for node, db in states.items()
                          if db is not None}).save(self.workdir)
        self.report = _judge(self.config, Run.load(self.workdir))


# -- the run ------------------------------------------------------------------


def _judge(config: SoakConfig, run: Run) -> SoakReport:
    """A cell's report: what was observed live, then :func:`fold
    <repro.faults.rundir.fold>` over the stored run."""
    report = SoakReport(config, run.mode, run.scenario,
                        **copy.deepcopy(run.observed))
    fold(run, report)
    return report


def _summarize(config: SoakConfig, cells: list,
               duration: float) -> SoakReport:
    """The run's report over its cells, and the cross-cell check: the
    failovers, counted from the event log."""
    events = sum((Counter(cell.facts.get("events", {})) for cell in cells),
                 Counter())
    report = SoakReport(config, duration=duration, cells=cells,
                        facts={"events": dict(events)})
    promotions = events["replication.promote"]
    failovers = sum(SCENARIOS[cell.scenario].fails_over(config)
                    for cell in cells)
    for name in ("replication.promote", "replication.write_fenced",
                 "replication.rejoin"):
        if events[name] < failovers:
            report.fail("events", f"event log shows {events[name]} "
                                  f"{name} for {failovers} failover "
                                  f"cells")
    if config.auto_failover \
            and promotions != events["replication.elected"]:
        report.fail("events",
                    f"{promotions} promotions vs "
                    f"{events['replication.elected']} elections: a "
                    f"promotion ran outside the coordinator")
    return report


def run_soak(config: SoakConfig = SoakConfig()) -> SoakReport:
    """Run every cell of ``config.matrix()``, each in its own run
    directory under ``config.workdir`` (default: a fresh temporary
    one); see the module docstring for the checks."""
    workdir = Path(config.workdir or tempfile.mkdtemp(prefix="fdb-soak-"))
    cells = []
    started = time.monotonic()
    for mode, scenario in config.matrix():
        slug = "-".join(part for part in (
            (mode or "").replace("(", "").replace(")", ""), scenario,
        ) if part)
        with Cell(config, mode, scenario, workdir / slug) as cell:
            cells.append(cell.run())
    return _summarize(config, cells, time.monotonic() - started)


def check(path: str | Path) -> SoakReport:
    """Fold the checks over a stored run: one cell's run directory, or
    a whole soak workdir (every cell's, in matrix order)."""
    path = Path(path)
    dirs = [path] if (path / "run.json").exists() else sorted(
        run_json.parent for run_json in path.glob("*/run.json"))
    if not dirs:
        raise ValueError(f"no run.json in {path} or its subdirectories")
    runs = [Run.load(directory) for directory in dirs]
    config = SoakConfig(**{
        key: tuple(value) if isinstance(value, list) else value
        for key, value in runs[0].config.items()})
    matrix = config.matrix()
    runs.sort(key=lambda run: matrix.index((run.mode, run.scenario))
              if (run.mode, run.scenario) in matrix else len(matrix))
    cells = [_judge(config, run) for run in runs]
    return _summarize(config, cells, sum(cell.duration for cell in cells))
