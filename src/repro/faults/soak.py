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
the scenario's epilogues, and then walks one table of checks.

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

The checks are one table, :data:`CHECKS`: each row names a check, the
topology predicate under which it applies, and the one function that
verifies it (whose docstring says what must hold) — sequential-replay
equality, strict recovery, span accounting and label pairing on every
topology; the breaker/SLO breathe-cycles after ``storage``; delivered-
frame agreement, replica convergence, pipeline coverage and the
failover timeline wherever there are replicas. The failover epilogue
and the two ``/metrics`` + ``/health`` scrapes record their own
verdicts (``failover``, ``scrape``) where they observe them.
``docs/ROBUSTNESS.md`` prints the table.

The checks read nothing the services keep about themselves. Their
inputs are recorded by the harness: the **client record** (every op
and the outcome its caller saw, kept by :meth:`Cell.run_op`, which
workers, epilogues and hand-driven tests share), each lane's **disk
history** (its committed WAL records: captured by a fault armed at
``wal.checkpoint.before-snapshot``, which fires under the lane's
``__write__`` token before the fold, and the tail read at verify),
the **delivered frames** (what each replica accepted, noted by a
:class:`Replica` subclass) and the **event stream** (the cell's own
JSONL: spans and ``replication.*`` actions, acked commits included).

A run's :class:`SoakConfig` is what the command line chooses: the
topology, the matrix, the load and the paths. Every other value every
cell shares is a constant of this module.

Run it: ``python -m repro.faults --soak [--shards N] [--replicas R]
[--auto-failover] [--modes ...] [--scenarios ...]``.
"""

from __future__ import annotations

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

from repro.core.derivation import Derivation
from repro.core.schema import FunctionDef
from repro.core.types import (
    ObjectType,
    TypeFunctionality,
    compose_functionalities,
)
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
from repro.faults.harness import replay, states_diff
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
from repro.fdb import persistence, worlds
from repro.fdb.database import FunctionalDatabase
from repro.fdb.evaluate import derived_extension
from repro.fdb.logic import Truth
from repro.fdb.updates import Update, UpdateSequence
from repro.fdb.values import is_null
from repro.fdb.wal import UpdateLog, committed, decode_frame, recover
from repro.obs.endpoint import ExpositionError, parse_prometheus
from repro.obs.events import FileSink, fence_violations, read_jsonl
from repro.obs.hooks import OBS
from repro.obs.slo import ERROR_RATE, Objective, replication_lag_objective
from repro.obs.tracing import Tracer
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
from repro.workloads.generator import (
    WorkloadConfig,
    random_instance,
    random_updates,
)

__all__ = ["CHECKS", "SCENARIOS", "Cell", "SoakConfig", "SoakReport",
           "run_soak", "soak_database"]


# -- configuration and report -------------------------------------------------


# What every cell shares, named where more than one place reads it or
# the suite-sized runs shorten it: the value pool the instance's rows
# and the workload's updates draw from, how long the fault controller
# holds a phase, each lane's lock wait, how long workers may run
# before the cell calls them hung, and the replication ack wait.
VALUE_POOL = 12
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
    """One run: a topology, a cell matrix over it, the load, and where
    the artifacts go. ``modes`` / ``scenarios`` left ``None`` take the
    topology's defaults (see :meth:`matrix`)."""

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
    jsonl: str | None = None  # default: <workdir>/soak-events.jsonl
    # Serve /metrics + /health during each cell and scrape them mid-
    # and post-run, saving snapshots under scrape_dir (default:
    # <workdir>).
    serve_endpoint: bool = True
    scrape_dir: str | None = None

    def __post_init__(self) -> None:
        if not 1 <= self.shards <= len(_CHAIN_PREFIXES) // 2:
            raise ValueError(
                f"shards must be 1..{len(_CHAIN_PREFIXES) // 2}"
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
        """This node's failures of one check (see :data:`CHECKS`)."""
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
                ) + f" in {self.facts.get('jsonl', '')}")
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


# -- the instance -------------------------------------------------------------

# One derivation chain per prefix; "c" is the lone base function.
_CHAIN_PREFIXES = "abdefghijklmnopqrstuwxyz"


def _soak_schema(chains: int) -> FunctionalDatabase:
    """``chains`` independent derivation clusters (``a1 . a2 -> va``,
    ``b1 . b2 -> vb``, ...) plus a lone base ``c``, no data."""
    db = FunctionalDatabase()
    mm = TypeFunctionality.MANY_MANY
    for prefix in _CHAIN_PREFIXES[:chains]:
        types = [ObjectType(f"{prefix.upper()}{i}") for i in range(3)]
        functions = []
        for i in range(2):
            definition = FunctionDef(
                f"{prefix}{i + 1}", types[i], types[i + 1], mm
            )
            db.declare_base(definition)
            functions.append(definition)
        db.declare_derived(
            FunctionDef(
                f"v{prefix}", types[0], types[2],
                compose_functionalities(f.functionality for f in functions),
            ),
            Derivation.of(*functions),
        )
    db.declare_base(FunctionDef("c", ObjectType("C0"), ObjectType("C1"),
                                mm))
    return db


def soak_database(seed: int, chains: int = 2) -> FunctionalDatabase:
    """A deterministic multi-cluster instance: reads and writes on
    different clusters are concurrent, writes within one contend, and
    the lone base gives the epilogues a quiet corner. On a sharded
    front door this is the *planning* instance; each lane holds the
    rows of its own functions only (:meth:`Cell.fresh_lane`)."""
    db = _soak_schema(chains)
    random_instance(db, rows_per_function=10, seed=seed,
                    value_pool=VALUE_POOL)
    return db


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


def _on_lanes(update: Update | UpdateSequence,
              shard_of: Callable[[str], int]) -> dict:
    """What each lane's WAL records for a committed write: a simple
    update on its lane; a sequence on every lane it touches, as one
    slice per lane labelled like the write. docs/SHARDING.md's
    contract, restated here so the checks hold the facade to it."""
    if isinstance(update, Update):
        return {shard_of(update.function): update}
    slices: dict[int, list] = {}
    for simple in update:
        slices.setdefault(shard_of(simple.function), []).append(simple)
    return {shard: UpdateSequence(tuple(part), label=update.label)
            for shard, part in slices.items()}


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


def _scrape(front: ShardedDatabaseService, path_for, stage: str,
            prefixes: list[str], replicated: list[int],
            fail) -> None:
    """The one scrape: ``/metrics`` over real HTTP must parse as
    Prometheus text and carry a series under every prefix in
    ``prefixes``; ``/health`` must hold a boolean verdict, one entry
    per lane, and a replication block for every lane in
    ``replicated``. Both bodies are kept as artifacts."""
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
        path_for("metrics", stage, ".prom").write_text(
            body, encoding="utf-8")
        try:
            with urllib.request.urlopen(endpoint.url + "/health",
                                        timeout=5) as resp:
                health_body = resp.read().decode("utf-8")
        except urllib.error.HTTPError as exc:
            # 503 == unhealthy-but-well-formed; still validated below.
            health_body = exc.read().decode("utf-8")
        verdict = json.loads(health_body)
        if not isinstance(verdict.get("healthy"), bool):
            fail(f"{stage}: /health lacks a boolean 'healthy' key")
        lanes = verdict.get("lanes", {})
        if len(lanes) != front.shards:
            fail(f"{stage}: /health lacks the per-lane verdicts")
        for shard in replicated:
            block = lanes.get(str(shard), {}).get("replication")
            if not isinstance(block, dict) or "term" not in block:
                fail(f"{stage}: /health lane {shard} lacks the "
                     f"replication block")
        path_for("health", stage, ".json").write_text(
            health_body, encoding="utf-8")
    except (OSError, ValueError, ExpositionError) as exc:
        fail(f"{stage}: {exc}")


# -- one cell -----------------------------------------------------------------


# Fires under the checkpointing lane's write token, every record still
# in its log: where the disk history captures what the fold removes.
CHECKPOINT = "wal.checkpoint.before-snapshot"


@dataclass
class _Disk:
    """One primary's WAL as the harness read it: the records captured
    before each checkpoint folded them away, then the tail. The
    primary's own history is its committed records in ``(start,
    end]``: a promoted replica starts past the fence it inherits, a
    deposed primary's tail past its fence was cut."""

    log: UpdateLog
    start: int = 0
    end: int | None = None
    lines: list = field(default_factory=list)
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
class _Lane:
    """One lane's moving parts outside the facade: where its snapshot
    and WAL live *now* (a failover moves them to the promoted
    replica's directory), its replication group, the names of the
    group's members, its disk history (one :class:`_Disk` per primary,
    oldest first) and the records each replica was delivered."""

    index: int
    snapshot: Path
    wal: Path
    group: ReplicationGroup | None = None
    replicas: list = field(default_factory=list)
    disks: list = field(default_factory=list)
    delivered: dict = field(default_factory=dict)

    def replica(self, name: str, workdir: Path) -> _RecordingReplica:
        return _RecordingReplica(name, workdir,
                                 self.delivered.setdefault(name, []))

    def nodes(self) -> set:
        """Every node that served the lane: its first primary and every
        replica (a promoted one included)."""
        return {f"shard-{self.index}-primary", *self.replicas}


class Cell:
    """One ``(mode, scenario)`` cell on the config's topology, as a
    context manager: entering builds the front door and everything
    behind it, leaving closes all of it — the facade and every lane's
    WAL, every group, the coordinator, the lease manager, the cell's
    event sink. :meth:`run` is workload + epilogues + :meth:`verify`;
    a test may instead drive the front door by hand through
    :meth:`run_op` and call :meth:`verify` to see the oracles judge a
    state it planted."""

    def __init__(self, config: SoakConfig, mode: str | None,
                 scenario: str, workdir: Path,
                 scrape_dir: Path | None = None, tag: str = "") -> None:
        self.config = config
        self.scenario = SCENARIOS[scenario]
        self.workdir = Path(workdir)
        self.scrape_dir = Path(scrape_dir or workdir)
        self.tag = tag
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
        self.scrape_dir.mkdir(parents=True, exist_ok=True)
        lanes_dir = self.workdir / "lanes"
        # The cell's own record stream: the run-wide JSONL interleaves
        # every cell (and WAL seqs restart between them), so the span,
        # coverage and timeline checks fold this file instead.
        sink = FileSink(self.workdir / "events.jsonl")
        self.events_path = sink.path
        was_enabled = OBS.enabled
        OBS.events.add_sink(sink)
        OBS.enable()
        stack.callback(sink.close)
        stack.callback(OBS.events.remove_sink, sink)
        if not was_enabled:
            stack.callback(OBS.disable)

        chains = 2 * config.shards
        self.full = soak_database(config.seed, chains)
        self.lanes = [
            _Lane(shard, lanes_dir / f"shard-{shard}.snap",
                  lanes_dir / f"shard-{shard}.wal")
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
            lambda: _soak_schema(chains), config.shards,
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
            self._seed(service.db, lane.index)
            # Baseline snapshot (after the seed rows, which predate the
            # WAL) so strict recovery works even if no worker
            # checkpoint lands before a failure.
            persistence.save(service.db, lane.snapshot, wal_applied=0)
            lane.disks.append(_Disk(service.logged.log))
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

    def _seed(self, db: FunctionalDatabase, shard: int) -> None:
        """Load lane ``shard``'s share of the planning instance: the
        rows of the base functions placed on it. Loads bypass the
        update machinery (plain stored facts, no NCs, no nulls)."""
        for name in self.front.map.names_on(shard):
            if db.is_base(name):
                db.load(name, self.full.table(name).pairs())

    def fresh_lane(self, shard: int) -> FunctionalDatabase:
        """What lane ``shard`` held before the first op: the replay
        oracles start from here."""
        db = _soak_schema(2 * self.config.shards)
        self._seed(db, shard)
        return db

    def replicated(self) -> list[_Lane]:
        return [lane for lane in self.lanes if lane.group is not None]

    def history(self, lane: _Lane, fenced: bool = True) -> list:
        """The committed entry frames of the lane's disk history, each
        primary's own records in turn: spliced at each fence, or
        (``fenced=False``) with a deposed primary's cut tail."""
        return [frame for disk in lane.disks
                for frame in committed(map(decode_frame, disk.lines))
                if frame.seq > disk.start and not (
                    fenced and disk.end is not None
                    and frame.seq > disk.end)]

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

    def _artifact(self, stem: str, stage: str = "",
                  suffix: str = "") -> Path:
        return self.scrape_dir / ("-".join(
            part for part in (stem, self.tag, stage) if part
        ) + suffix)

    # -- the run ------------------------------------------------------------

    def run(self) -> SoakReport:
        started = time.monotonic()
        try:
            self._workload(started)
            if self.hung or self.harness_errors:
                # Past a hung worker the state is still moving: report
                # that and nothing else.
                _check_liveness(self)
            else:
                self._epilogues()
                self.verify()
        finally:
            FAULTS.disarm_all()
            self.report.duration = time.monotonic() - started
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
        _scrape(self.front, self._artifact, stage, prefixes,
                [lane.index for lane in self.replicated()],
                partial(self.report.fail, "scrape"))

    # -- epilogue: breaker and SLO breathe-cycles ---------------------------

    def _breathe(self, shard: int) -> None:
        """Deterministically produce, on lane ``shard``, one breaker
        OPEN -> CLOSED cycle (if the random schedule did not) and one
        SLO raise -> clear cycle: arm a hard storage outage and write
        until the breaker trips / the error-rate alert fires (breaker
        rejections are errors burning the budget), disarm, write until
        it closes / the fast window is healthy again. The writes are
        client ops like any others."""
        report = self.report
        lane, name = self.front.lane(shard), self._quiet_name(shard)
        breaker, slo = lane.breaker, lane.slo
        outage = ("wal.append.before", TransientError(times=10 ** 6))
        serial = itertools.count()

        def write(tag: str, deadline: float) -> bool:
            update = Update.ins(name, f"{tag}_x", f"{tag}_y{next(serial)}")
            return self.run_op("write", update, deadline) == "applied"

        if breaker.trips == 0:
            with FAULTS.injected(*outage):
                for _ in range(20):
                    write("ep", 5.0)
                    if breaker.trips:
                        break
                else:
                    report.notes.append(
                        "forced outage never tripped the breaker")
        if breaker.resets == 0:
            for _ in range(50):
                if write("reset", 5.0):
                    break
                time.sleep(breaker.reset_timeout / 2)
            else:
                report.notes.append(
                    "breaker never closed after forced outage")

        raised_before = slo.raised
        budget = time.monotonic() + 10.0
        with FAULTS.injected(*outage):
            while slo.healthy:
                if time.monotonic() >= budget:
                    report.fail("breathe",
                                "forced outage never raised an SLO "
                                f"alert (alerts={list(slo.alerts)})")
                    return
                write("slo", 2.0)
                slo.evaluate()
                time.sleep(0.01)
        if slo.raised == raised_before:
            report.fail("breathe",
                        "alert active but raise was never recorded")
            return
        # Clear: successes push the fast-window error rate back under
        # the threshold once the breach ages past the fast horizon.
        budget = time.monotonic() + 10.0 + ERROR_OBJECTIVE.window
        while not slo.healthy:
            if time.monotonic() >= budget:
                report.fail("breathe",
                            "SLO alert never cleared after recovery "
                            f"(alerts={list(slo.alerts)})")
                return
            if not write("slo_ok", 2.0):
                time.sleep(breaker.reset_timeout / 2)
            slo.evaluate()
            time.sleep(0.02)

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
        lane.disks.append(_Disk(new.logged.log, start=fence))
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
        lane.replicas.append(rejoined.name)
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
        """Read the disks' tails and walk :data:`CHECKS` over the
        cell's records."""
        facts = self.report.facts
        self.records = read_jsonl(self.events_path) \
            if self.events_path.exists() else []
        for lane in self.lanes:
            lane.disks[-1].capture()
        facts["committed"] = {lane.index: len(self.history(lane, False))
                              for lane in self.lanes}
        if self.config.replicas:
            facts["acked"] = len(_acked(self))
        facts["events"] = dict(Counter(
            record.name for record in self.records
            if record.kind == "action" and record.name in _RUN_EVENTS
        ))
        for check in CHECKS:
            if check.applies(self):
                check.verify(self)
        self._dump_lane_histories()

    def _dump_lane_histories(self) -> None:
        """Per-lane JSONL artifacts: one line per committed record of
        the lane's disk history, with its seq, op and label."""
        for lane in self.lanes:
            path = self._artifact(f"shard-{lane.index}", suffix=".jsonl")
            with path.open("w", encoding="utf-8") as handle:
                for frame in self.history(lane):
                    handle.write(json.dumps({
                        "seq": frame.seq,
                        "op": str(frame.payload),
                        "label": getattr(frame.payload, "label", None),
                    }, sort_keys=True) + "\n")


# -- the checks ---------------------------------------------------------------

# Action records the run-level cross-cell check counts.
_RUN_EVENTS = ("replication.promote", "replication.elected",
               "replication.write_fenced", "replication.rejoin")


def _check_liveness(cell: Cell) -> None:
    if cell.hung:
        cell.report.fail("liveness", f"{cell.hung} workers hung")
    for exc in cell.harness_errors:
        cell.report.fail("liveness", f"harness error: {exc!r}")


def _check_accounting(cell: Cell) -> None:
    """Every planned op resolved to exactly one outcome, and every
    write a client saw commit is in its lane's disk history."""
    planned = sum(len(plan) for plan in cell.plans)
    outcomes = sum(cell.report.counts.values())
    if outcomes != planned:
        cell.report.fail("accounting",
                         f"workers reported {outcomes} outcomes for "
                         f"{planned} planned ops")
    on_disk = Counter((lane.index, frame.payload) for lane in cell.lanes
                      for frame in cell.history(lane, False))
    missing = Counter(
        pair for kind, update, outcome in cell.client
        if outcome == "applied" and kind in ("write", "seq", "rmw")
        for pair in _on_lanes(update, cell.front.shard_of).items()
    ) - on_disk
    if missing:
        cell.report.fail("accounting",
                         f"{sum(missing.values())} writes a client saw "
                         f"commit are not on their lane's disk: "
                         f"{[str(op) for _, op in list(missing)[:3]]}")


def _check_replay(cell: Cell) -> None:
    """Lanes commit concurrently, but each lane's disk history must
    still be sequential — exactly what the per-lane ``__write__``
    token buys: replayed over the lane's seed rows it reproduces the
    live primary, so every shed, cancelled, refused or failed request
    left no trace. Across a failover the history is spliced at the
    fence, so the surviving history and only it was applied."""
    for lane in cell.lanes:
        diff = states_diff(
            replay(cell.fresh_lane(lane.index),
                   (frame.payload for frame in cell.history(lane))),
            cell.front.lane(lane.index).db,
        )
        if diff:
            cell.report.fail("replay",
                             f"lane {lane.index} diverged from its "
                             f"sequential replay: {diff}")


def _check_recovery(cell: Cell) -> None:
    """The concurrent path must have kept the log exact too."""
    for lane in cell.lanes:
        try:
            recovered = recover(lane.snapshot, lane.wal, policy="strict")
            diff = states_diff(recovered.db,
                               cell.front.lane(lane.index).db)
        except (PersistenceError, OSError) as exc:
            diff = f"recovery failed: {exc}"
        if diff:
            cell.report.fail("recovery", f"lane {lane.index}: {diff}")


def _multi_writes(cell: Cell) -> tuple[dict, dict]:
    """The multi-shard writes of the client record, as label -> (the
    lanes the write spans, the outcome its client saw), and each
    lane's labels of them in disk order, a deposed primary's cut tail
    included."""
    writes = {}
    for _, update, outcome in cell.client:
        if isinstance(update, UpdateSequence):
            spans = set(_on_lanes(update, cell.front.shard_of))
            if len(spans) > 1:
                writes[update.label] = (spans, outcome)
    return writes, {
        lane.index: [frame.payload.label
                     for frame in cell.history(lane, False)
                     if getattr(frame.payload, "label", None) in writes]
        for lane in cell.lanes}


def _check_spans(cell: Cell) -> None:
    """Every ``service.request`` span that started also ended, and the
    spans stamped ``committed=True`` match the disk histories: one per
    single-lane commit, one per multi-shard write on every lane it
    spans."""
    starts: set[int] = set()
    ends: dict[int, dict] = {}
    for record in cell.records:
        if record.name != "service.request" or record.span_id is None:
            continue
        if record.kind == "span.start":
            starts.add(record.span_id)
        elif record.kind == "span.end":
            ends[record.span_id] = record.attrs
    is_multi = [attrs.get("family") == "multi_write"
                for attrs in ends.values()
                if attrs.get("committed") == "True"]
    multi, single = sum(is_multi), len(is_multi) - sum(is_multi)
    cell.report.facts["spans"] = {
        "request": len(ends), "committed": len(is_multi),
    }
    dangling = starts - set(ends)
    if dangling:
        cell.report.fail("spans", f"{len(dangling)} request spans "
                                  f"started but never ended")
        return
    writes, labels = _multi_writes(cell)
    singles = sum(len(cell.history(lane, False)) - len(labels[lane.index])
                  for lane in cell.lanes)
    if single != singles:
        cell.report.fail("spans",
                         f"{single} committed single-lane request "
                         f"spans for {singles} records on disk")
    paired = sum(1 for label, (spans, _) in writes.items()
                 if all(label in labels[shard] for shard in spans))
    if multi != paired:
        cell.report.fail("spans",
                         f"{multi} committed multi-shard request "
                         f"spans for {paired} labels on every lane "
                         f"they span")


def _check_markers(cell: Cell) -> None:
    """Multi-shard writes, paired by the label each slice's WAL record
    carries. Any two lanes hold the labels they share in the same
    order (the writes took the lanes' tokens in one sorted order), and
    a write sits on every lane it spans — or, only if its caller was
    told it was cut short (``CrossShardError``: cross-shard atomicity
    is not promised), on some of them."""
    report = cell.report
    writes, labels = _multi_writes(cell)
    if any(labels.values()):
        report.facts["markers"] = {shard: len(found)
                                   for shard, found in labels.items()}
    for a, b in itertools.combinations(sorted(labels), 2):
        shared = set(labels[a]) & set(labels[b])
        order = [[label for label in labels[shard] if label in shared]
                 for shard in (a, b)]
        if order[0] != order[1]:
            report.fail("markers",
                        f"lanes {a} and {b} applied their shared "
                        f"multi-shard writes in different orders: "
                        f"{order[0][:5]} vs {order[1][:5]}")
    for label, (spans, outcome) in writes.items():
        holders = {shard for shard, found in labels.items()
                   if label in found}
        if holders != spans and (outcome == "applied" or holders
                                 and outcome != "cross_shard"):
            report.fail("markers",
                        f"write {label!r} spans lanes {sorted(spans)} "
                        f"but is on {sorted(holders)}; its client saw "
                        f"{outcome}")


def _check_breathe(cell: Cell) -> None:
    """The breaker breathed and the SLO alert raised *and* cleared —
    read back from the event log, not from the objects."""
    names = Counter(record.name for record in cell.records
                    if record.kind == "action")
    facts = cell.report.facts
    facts["breaker"] = {"opens": names["breaker.open"],
                        "closes": names["breaker.closed"]}
    facts["slo"] = {"raised": names["slo.alert_raised"],
                    "cleared": names["slo.alert_cleared"]}
    for what, counts in (("breaker", facts["breaker"]),
                         ("SLO alert", facts["slo"])):
        if not all(counts.values()):
            cell.report.fail("breathe",
                             f"event log shows {what} cycle {counts}")


def _check_journal(cell: Cell) -> None:
    """The shipped stream, from the receiving end: every record a
    replica accepted is, byte for byte, the record the lane's primary
    of that term wrote at that seq."""
    for lane in cell.replicated():
        written = {(frame.term, frame.seq): frame.line
                   for disk in lane.disks
                   for frame in map(decode_frame, disk.lines)}
        for name, lines in lane.delivered.items():
            strays = [frame.seq for frame in map(decode_frame, lines)
                      if written.get((frame.term, frame.seq)) != frame.line]
            if strays:
                cell.report.fail("journal",
                                 f"replica {name} accepted records no "
                                 f"primary wrote at seqs {strays[:5]}")


def _check_replicas(cell: Cell) -> None:
    for lane in cell.replicated():
        primary = cell.front.lane(lane.index).db
        names = lane.group.replica_names()
        for name in names:
            replica = lane.group.replica(name)
            diff = ("no state after settling" if replica.db is None
                    else states_diff(primary, replica.db))
            if diff:
                cell.report.fail("replicas",
                                 f"replica {name} diverged: {diff}")
        if not names:
            cell.report.fail("replicas",
                             f"lane {lane.index}: no replica state was "
                             f"checked")


def _acked(cell: Cell, lane: _Lane | None = None) -> list[int]:
    """The seqs acked on ``lane`` (on every lane: None), from the
    ``replication.commit_acked`` records of the event stream."""
    nodes = None if lane is None else lane.nodes()
    return [record.int_attr("seq") for record in cell.records
            if record.kind == "action"
            and record.name == "replication.commit_acked"
            and (nodes is None or record.attrs.get("node") in nodes)]


def _check_pipeline(cell: Cell) -> None:
    """The span-stream oracle for the commit pipeline: every sequence
    number a lane's primary acked must be covered by at least the
    commit mode's ack quota of ``replica.apply`` spans on that lane's
    replicas (their ``[from_seq, applied_to]`` interval contains it) or
    by a snapshot install whose ``wal_applied`` floor subsumes it. The
    last acked commit's cross-node span tree is kept as a DOT
    artifact."""
    needed = CommitMode.parse(cell.report.mode).required_acks(
        cell.config.replicas)
    ends = [r for r in cell.records if r.kind == "span.end"]
    for lane in cell.replicated():
        acked = _acked(cell, lane)
        applied: dict[str, list[tuple[int, int]]] = {}
        floors: dict[str, int] = {}
        for record in ends:
            name = str(record.attrs.get("replica"))
            if name not in lane.replicas:
                continue
            if record.name == "replica.apply":
                low = record.int_attr("from_seq")
                high = record.int_attr("applied_to")
                if low is not None and high is not None and high >= low:
                    applied.setdefault(name, []).append((low, high))
            elif record.name == "replica.snapshot_install":
                wal = record.int_attr("wal_applied")
                if wal is not None:
                    floors[name] = max(floors.get(name, 0), wal)
        uncovered = []
        for seq in (acked if needed else ()):
            covering = {
                name for name, spans in applied.items()
                if any(low <= seq <= high for low, high in spans)
            } | {name for name, floor in floors.items() if floor >= seq}
            if len(covering) < needed:
                uncovered.append((seq, sorted(covering)))
        if uncovered:
            cell.report.fail(
                "pipeline",
                f"lane {lane.index} acked commits lacking {needed} "
                f"replica applies in the span stream: {uncovered[:5]}"
                + (f" (+{len(uncovered) - 5} more)"
                   if len(uncovered) > 5 else ""))
    acked = _acked(cell, cell.lanes[0])
    if acked:
        _write_pipeline_dot(cell, cell.lanes[0], acked[-1])


def _write_pipeline_dot(cell: Cell, lane: _Lane, last_seq: int) -> None:
    """Fold the last acked commit's cross-node trace — the
    ``service.request`` root down through ship, receive, WAL append,
    apply and ack spans on every replica — into a DOT artifact."""
    spans = {record.span_id: record for record in cell.records
             if record.kind == "span.end" and record.span_id is not None}

    def root_of(record):
        while record.parent_span is not None \
                and record.parent_span in spans:
            record = spans[record.parent_span]
        return record

    target = None
    for record in spans.values():
        if record.name != "replication.ship" \
                or str(record.attrs.get("replica")) not in lane.replicas:
            continue
        low = record.int_attr("from_seq")
        high = record.int_attr("through_seq")
        if low is not None and high is not None \
                and low <= last_seq <= high:
            # Prefer the commit-path ship (rooted in the request that
            # carried the commit) over later catch-up re-ships.
            if target is None \
                    or root_of(record).name == "service.request":
                target = record
    if target is None:
        cell.report.notes.append(
            f"no ship span covering acked seq {last_seq}; pipeline "
            f"DOT skipped")
        return
    root_id = root_of(target).span_id
    tracer = Tracer()
    for record in cell.records:
        tracer.consume(record)
        if record.kind == "span.end" and record.span_id == root_id:
            break
    cell._artifact("pipeline", suffix=".dot").write_text(
        tracer.last_trace.to_dot(name="pipeline") + "\n",
        encoding="utf-8")


def _check_timeline(cell: Cell) -> None:
    """Keep lane 0's replication action records (the lane that may
    fail over; other lanes' acked commits carry their own node names
    and are left out) as a JSONL artifact, and audit the fence over
    them (:func:`fence_violations`): every acked old-term commit sits
    at or below it (none lost) and precedes the fence record, every
    new-term commit follows it. After a failover the fence, promote
    and rejoin records must be there — and the lease expiry and the
    election that caused them, when it was automatic."""
    lane, report = cell.lanes[0], cell.report
    nodes = {None, *lane.nodes()}
    timeline = [record for record in cell.records
                if record.kind == "action"
                and record.name.startswith("replication.")
                and record.attrs.get("node") in nodes]
    cell._artifact("timeline", suffix=".jsonl").write_text(
        "".join(record.to_json() + "\n" for record in timeline),
        encoding="utf-8")
    problems = fence_violations(timeline)
    if problems:
        report.fail("timeline", f"fence audit failed: {problems[:3]}")
    if "promotion" not in report.facts:
        return
    wanted = ["fence", "promote", "rejoin"]
    if report.facts.get("elections"):
        wanted += ["lease_expired", "elected"]
    names = {record.name for record in timeline}
    for name in wanted:
        if f"replication.{name}" not in names:
            report.fail("timeline",
                        f"no replication.{name} record in the failover "
                        f"timeline")
    fences = [record for record in timeline
              if record.name == "replication.fence"]
    if fences and (fence_seq := fences[-1].int_attr("fence_seq")) \
            != report.facts["fence_seq"]:
        report.fail("timeline",
                    f"timeline fence at seq {fence_seq}, "
                    f"promotion reported {report.facts['fence_seq']}")


class _Abort(Exception):
    """What :func:`_check_worlds`'s doomed transaction raises."""


def _check_worlds(cell: Cell) -> None:
    """The repair oracle, in the directions that hold. On every lane's
    final state: the live NCs admit a world; the counted marginals
    agree with the three-valued verdicts (TRUE ⇒ 1, FALSE ⇒ 0) on the
    head of each derived extension and on the derived pairs the run
    deleted; a stored ambiguous fact is never certain; and a
    transaction that raises leaves the count where it was (on a copy —
    the other rows read the lane's own state)."""
    for lane in cell.lanes:
        db = cell.front.lane(lane.index).db
        fail = partial(cell.report.fail, "worlds")
        heads = [(name, *pair) for name in db.derived_names
                 for pair in list(derived_extension(db, name))[:5]]
        deleted = [
            (update.function, *update.pair)
            for frame in cell.history(lane)
            for update in (frame.payload
                           if isinstance(frame.payload, UpdateSequence)
                           else (frame.payload,))
            if update.kind == "DEL" and db.is_derived(update.function)
        ]
        for fact in dict.fromkeys(heads + deleted):
            truth, chance = db.truth_of(*fact), worlds.marginal(db, *fact)
            expected = {Truth.TRUE: 1.0, Truth.FALSE: 0.0}.get(truth)
            if expected is not None and chance != expected:
                fail(f"lane {lane.index}: {fact} is {truth} but holds "
                     f"in {chance:.3f} of the worlds")
        report = worlds.analyze(db)
        if report.world_count < 1:
            fail(f"lane {lane.index}: the live NCs admit no world")
        certain = [ref for ref, chance in report.base_marginals.items()
                   if not 0.0 <= chance < 1.0]
        if certain:
            fail(f"lane {lane.index}: ambiguous facts with marginal "
                 f"outside [0, 1): {certain[:3]}")
        scratch = persistence.loads(persistence.dumps(db))
        with suppress(_Abort), scratch.transaction():
            for fact in heads:
                scratch.delete(*fact)
            raise _Abort
        after = worlds.count_worlds(scratch)
        if after != report.world_count:
            fail(f"lane {lane.index}: an aborted transaction moved the "
                 f"world count {report.world_count} -> {after}")


@dataclass(frozen=True)
class Check:
    """One row of the table: the check's name (the prefix of its
    failures), the topology predicate under which it applies, and the
    one function that verifies it."""

    name: str
    applies: Callable[[Cell], bool]
    verify: Callable[[Cell], None]


def _always(cell: Cell) -> bool:
    return True


def _with_replicas(cell: Cell) -> bool:
    return cell.config.replicas > 0


CHECKS = (
    Check("liveness", _always, _check_liveness),
    Check("accounting", _always, _check_accounting),
    Check("replay", _always, _check_replay),
    Check("recovery", _always, _check_recovery),
    Check("spans", _always, _check_spans),
    Check("markers", _always, _check_markers),  # vacuous on one lane
    Check("worlds", _always, _check_worlds),
    Check("breathe", lambda cell: cell.scenario.breathe, _check_breathe),
    Check("journal", _with_replicas, _check_journal),
    Check("replicas", _with_replicas, _check_replicas),
    Check("pipeline", _with_replicas, _check_pipeline),
    Check("timeline", _with_replicas, _check_timeline),
)
# "failover" and "scrape" failures are recorded where they are observed:
# by the failover epilogue and by the two scrapes.


# -- the run ------------------------------------------------------------------


def run_soak(config: SoakConfig = SoakConfig()) -> SoakReport:
    """Run every cell of ``config.matrix()``; see the module docstring
    for the checks."""
    workdir = Path(config.workdir or tempfile.mkdtemp(prefix="fdb-soak-"))
    workdir.mkdir(parents=True, exist_ok=True)
    jsonl = Path(config.jsonl or workdir / "soak-events.jsonl")
    report = SoakReport(config, facts={"jsonl": str(jsonl)})
    matrix = config.matrix()
    started = time.monotonic()
    with ExitStack() as stack:
        sink = FileSink(jsonl)
        OBS.events.add_sink(sink)
        stack.callback(sink.close)
        stack.callback(OBS.events.remove_sink, sink)
        for mode, scenario in matrix:
            slug = "-".join(part for part in (
                (mode or "").replace("(", "").replace(")", ""), scenario,
            ) if part)
            # A one-cell run's artifacts carry no cell tag.
            with Cell(config, mode, scenario, workdir / slug,
                      config.scrape_dir or workdir,
                      tag=slug if len(matrix) > 1 else "") as cell:
                report.cells.append(cell.run())
    report.duration = time.monotonic() - started

    # Cross-cell: the failovers, counted from the event log.
    events: Counter = Counter()
    for cell_report in report.cells:
        events.update(cell_report.facts.get("events", {}))
    report.facts["events"] = dict(events)
    promotions = events["replication.promote"]
    failovers = sum(SCENARIOS[scenario].fails_over(config)
                    for _, scenario in matrix)
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
