"""E20 workloads: seeded op streams and the sequential oracle.

The program under test only ever sees *generated operations*: every
stream is a list of :class:`Op` built here from ``--seed``, identical
in every round of a run, and replayed once on a bare
:class:`FunctionalDatabase` (no service, no log, no threads) to get
the results a correct stack must reproduce. The seven workloads and
the reason each exists are the ``WORKLOADS`` table; sizes are the op
counts of a 10-second run and scale with ``--seconds``.
"""

from __future__ import annotations

import hashlib
import random
import zlib
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from repro.core.derivation import Derivation
from repro.core.schema import FunctionDef, ObjectType, TypeFunctionality
from repro.faults.harness import states_diff
from repro.fdb.database import FunctionalDatabase
from repro.fdb.updates import apply_update
from repro.workloads.generator import (WorkloadConfig, chain_fdb,
                                       random_instance, random_updates)

REFERENCE_SECONDS = 10  # the run length ``ops`` below is sized for

# Latency classes: every op belongs to exactly one, and percentiles
# are never pooled across them (they differ ~10x).
BASE_WRITE = "base_write"
DERIVED_INS = "derived_ins"
DERIVED_DEL = "derived_del"
POINT_READ = "point_read"
SCAN = "scan"
WRITE_CLASSES = (BASE_WRITE, DERIVED_INS, DERIVED_DEL)


class Op(NamedTuple):
    """One generated request: ``kind`` is the public front-door method
    (``insert`` / ``delete`` / ``truth_of`` / ``extension``)."""

    cls: str
    kind: str
    function: str
    x: object = None
    y: object = None

    @property
    def is_write(self) -> bool:
        return self.cls in WRITE_CLASSES


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    stream: str  # "cluster" (2-hop clusters) | "derived_update" |
    #              "derived_read" (both on chain_fdb(3))
    clients: int
    rounds: int
    ops: int  # per client per episode, at REFERENCE_SECONDS
    rows: int  # initial rows per base table
    pool: int  # values per object type in the initial instance
    burst: int  # ops per client between machine-speed readings (~0.1 s)
    io_share: float = 0.0  # of a write's time spent in durable appends,
    #                        from the traced layer table (fdb.storage)
    durable: bool = True
    sharded: bool = False
    replicas: int = 0
    timed_recover: bool = False
    checkpoint: bool = False  # fold the WAL before the timed recover
    episodes: int = 1  # fresh-state runs per round, seeds of their own
    setup_deletes: int = 0  # derived DELs applied to the initial instance


WORKLOADS = {w.name: w for w in (
    Workload(
        "durable_small_1c",
        "Tiny instance: engine and snapshot cost almost nothing, so the "
        "serial commit path (service bookkeeping, WAL encode, "
        "open/write/fsync) is nearly all of a write; the durable "
        "baseline.",
        stream="cluster", clients=1, rounds=3, ops=4000, rows=20,
        pool=10, burst=150, io_share=0.65, timed_recover=True,
    ),
    Workload(
        "durable_small_2c",
        "Adds only a second caller queuing on the one write token, so "
        "lock hand-off, GIL convoy and any commit batching show here "
        "and not in durable_small_1c.",
        stream="cluster", clients=2, rounds=5, ops=1200, rows=20,
        pool=10, burst=75, io_share=0.6,
    ),
    Workload(
        "durable_large_1c",
        "fsync cost is unchanged while the per-transaction "
        "whole-instance snapshot grows with the 6000 stored facts, so "
        "O(instance) per-commit costs dominate; the size axis.",
        stream="cluster", clients=1, rounds=3, ops=240, rows=3000,
        pool=3000, burst=12, io_share=0.05, timed_recover=True,
        checkpoint=True,
    ),
    Workload(
        "derived_update_mem",
        "No log: the paper's four procedures (chain enumeration, NC "
        "creation/dismantling, NVC creation) do all the work and "
        "storage none; derived INS and DEL are kept apart because "
        "they differ ~10x.",
        stream="derived_update", clients=1, rounds=2, ops=220, rows=150,
        pool=50, burst=20, durable=False, episodes=5,
    ),
    Workload(
        "derived_read_mem",
        "Read-path chain enumeration is nearly all the time, and 5% "
        "writes change the instance between reads, so a cache or "
        "index that speeds reads must pay for invalidation here.",
        stream="derived_read", clients=1, rounds=3, ops=5000, rows=300,
        pool=100, burst=150, durable=False, setup_deletes=20,
    ),
    Workload(
        "replicated_quorum_1c",
        "durable_small_1c traffic plus quorum shipping to two "
        "in-process replicas, zero injected delay: ship, replica WAL "
        "append, apply, ack and WAL read-back are the only additions; "
        "O(log length) work shows.",
        stream="cluster", clients=1, rounds=3, ops=360, rows=20,
        pool=10, burst=5, io_share=0.1, replicas=2,
    ),
    Workload(
        "sharded_2lane_2c",
        "durable_small_2c traffic through two pinned lanes: the "
        "callers share neither write token nor WAL, so it reads against "
        "durable_small_2c (what lanes buy) and durable_small_1c (one "
        "uncontended lane).",
        stream="cluster", clients=2, rounds=5, ops=1200, rows=20,
        pool=10, burst=75, io_share=0.6, sharded=True,
    ),
)}


def sub_seed(seed: int, label: str) -> int:
    """An independent integer seed per purpose (instance, stream of
    client i, ...), stable across processes."""
    return zlib.crc32(f"{seed}:{label}".encode())


def scaled_ops(workload: Workload, seconds: float) -> int:
    return max(40, round(workload.ops * seconds / REFERENCE_SECONDS))


def warmup_count(ops: int) -> int:
    """Leading ops of every stream that run before the clock starts
    (page in the lanes, the WAL file and the code paths)."""
    return max(5, min(50, ops // 50))


# -- schemas and initial instances ----------------------------------------


def cluster_names(i: int) -> tuple[str, str, str]:
    return f"c{i}a", f"c{i}b", f"c{i}v"


def clusters_schema(n: int) -> FunctionalDatabase:
    """``n`` independent 2-hop clusters ``c<i>v = c<i>a o c<i>b``."""
    db = FunctionalDatabase()
    mm = TypeFunctionality.MANY_MANY
    for i in range(n):
        types = [ObjectType(f"C{i}T{j}") for j in range(3)]
        a, b, v = cluster_names(i)
        first = FunctionDef(a, types[0], types[1], mm)
        second = FunctionDef(b, types[1], types[2], mm)
        db.declare_base(first)
        db.declare_base(second)
        db.declare_derived(FunctionDef(v, types[0], types[2], mm),
                           Derivation.of(first, second))
    return db


def initial_db(workload: Workload, seed: int) -> FunctionalDatabase:
    """The instance every round, the generator and the oracle start
    from. Deterministic in ``(workload, seed)``."""
    if workload.stream == "cluster":
        db = clusters_schema(workload.clients)
    else:
        db = chain_fdb(3)
    random_instance(db, workload.rows, seed=sub_seed(seed, "instance"),
                    value_pool=workload.pool)
    if workload.setup_deletes:
        # Derived DELs create NCs, so reads meet TRUE, AMBIGUOUS and
        # FALSE facts, not just TRUE ones.
        rng = random.Random(sub_seed(seed, "setup-deletes"))
        pairs = sorted(db.extension("v"))
        for x, y in rng.sample(pairs,
                               min(workload.setup_deletes, len(pairs))):
            db.delete("v", x, y)
    return db


# -- op-stream generators -------------------------------------------------


def _schedule(rng: random.Random, count: int,
              block: dict[str, int]) -> list[str]:
    """``count`` labels in shuffled blocks holding exactly ``block``'s
    proportions. A free random mix would make how hard a stream is
    depend on the seed (how early the expensive ops pile up); with a
    blocked mix the seed changes which values are touched and in what
    local order, not how much work a run is."""
    labels = [label for label, n in block.items() for _ in range(n)]
    out: list[str] = []
    while len(out) < count:
        rng.shuffle(labels)
        out.extend(labels)
    return out[:count]


def _cluster_stream(rng: random.Random, db: FunctionalDatabase, i: int,
                    count: int, pool: int) -> list[Op]:
    """90% base INS/DEL, 10% ``truth_of`` on the cluster's derived
    function. Writes are balanced so the instance stays the size it
    started: unique pairs go in and come out again (at most 16 live),
    and one write in nine takes an initial row out or puts it back, so
    the derived verdicts the reads see change over the run."""
    a, b, v = cluster_names(i)
    derivable = sorted(db.extension(v))
    initial = [(name, pair) for name in (a, b)
               for pair in db.table(name).pairs()]
    absent = None  # the one initial row currently toggled out
    live: deque = deque()
    ops: list[Op] = []
    serial = 0
    for label in _schedule(rng, count,
                           {"read": 2, "toggle": 2, "unique": 16}):
        if label == "read":
            if derivable and rng.random() < 0.7:
                x, y = rng.choice(derivable)
            else:
                x = f"C{i}T0_{rng.randrange(pool)}"
                y = f"C{i}T2_{rng.randrange(pool)}"
            ops.append(Op(POINT_READ, "truth_of", v, x, y))
        elif label == "toggle":
            if absent is None:
                absent = rng.choice(initial)
                ops.append(Op(BASE_WRITE, "delete", absent[0], *absent[1]))
            else:
                ops.append(Op(BASE_WRITE, "insert", absent[0], *absent[1]))
                absent = None
        elif len(live) >= 16 or (live and rng.random() < 0.5):
            name, pair = live.popleft()
            ops.append(Op(BASE_WRITE, "delete", name, *pair))
        else:
            name = rng.choice((a, b))
            pair = (f"u{i}_{serial}", f"w{i}_{serial}")
            serial += 1
            live.append((name, pair))
            ops.append(Op(BASE_WRITE, "insert", name, *pair))
    return ops


def _derived_update_stream(rng: random.Random, db: FunctionalDatabase,
                           count: int, pool: int) -> list[Op]:
    """The derived-heavy mix (25/15/30/30 base INS / base DEL /
    derived INS / derived DEL): each class's updates come from the
    repo's ``random_updates`` against the initial state, interleaved
    on a blocked schedule."""
    block = {"base_insert": 5, "base_delete": 3,
             "derived_insert": 6, "derived_delete": 6}
    labels = _schedule(rng, count, block)
    supply = {}
    for label in block:
        config = WorkloadConfig(
            seed=rng.randrange(2 ** 32), value_pool=pool,
            **{kind: float(kind == label) for kind in block},
        )
        supply[label] = iter(
            random_updates(db, labels.count(label), config)
        )
    ops = []
    for label in labels:
        update = next(supply[label], None)
        if update is None:  # no derivable pair left to delete
            continue
        if label.startswith("base"):
            cls = BASE_WRITE
        else:
            cls = DERIVED_INS if update.kind == "INS" else DERIVED_DEL
        kind = "insert" if update.kind == "INS" else "delete"
        ops.append(Op(cls, kind, update.function, *update.pair))
    return ops


def _derived_read_stream(rng: random.Random, db: FunctionalDatabase,
                         count: int, pool: int) -> list[Op]:
    """93% ``truth_of`` (70% on pairs derivable at setup, 30% random),
    2% ``extension``, 5% base INS/DEL. ``db`` is a private copy the
    writes are applied to as they are generated, so deletes hit rows
    that exist at that point of the stream."""
    derivable = sorted(db.extension("v"))
    bases = db.base_names
    ops: list[Op] = []
    for label in _schedule(rng, count,
                           {"read": 93, "scan": 2, "write": 5}):
        if label == "read":
            if rng.random() < 0.7:
                x, y = rng.choice(derivable)
            else:
                x = f"T0_{rng.randrange(pool)}"
                y = f"T3_{rng.randrange(pool)}"
            ops.append(Op(POINT_READ, "truth_of", "v", x, y))
        elif label == "scan":
            ops.append(Op(SCAN, "extension", "v"))
        else:
            name = rng.choice(bases)
            definition = db.schema[name]
            pairs = tuple(db.table(name).pairs())
            if pairs and rng.random() < 0.5:
                op = Op(BASE_WRITE, "delete", name, *rng.choice(pairs))
            else:
                op = Op(BASE_WRITE, "insert", name,
                        f"{definition.domain.name}_{rng.randrange(pool)}",
                        f"{definition.range.name}_{rng.randrange(pool)}")
            perform(db, op)
            ops.append(op)
    return ops


class Episode(NamedTuple):
    """One fresh-state run of a round: its own instance seed and one
    op stream per client. Every workload but ``derived_update_mem``
    has a single episode per round."""

    seed: int
    streams: list[list[Op]]


def plan(workload: Workload, seed: int,
         seconds: float = REFERENCE_SECONDS) -> list[Episode]:
    """The episodes of one round (every round replays the same plan)."""
    count = scaled_ops(workload, seconds)
    episodes = []
    for e in range(workload.episodes):
        episode_seed = sub_seed(seed, f"episode-{e}")
        db = initial_db(workload, episode_seed)
        if workload.stream == "cluster":
            streams = [
                _cluster_stream(
                    random.Random(sub_seed(episode_seed, f"stream-{i}")),
                    db, i, count, workload.pool)
                for i in range(workload.clients)
            ]
        else:
            generator = (_derived_update_stream
                         if workload.stream == "derived_update"
                         else _derived_read_stream)
            rng = random.Random(sub_seed(episode_seed, "stream"))
            streams = [generator(rng, db, count, workload.pool)]
        episodes.append(Episode(episode_seed, streams))
    return episodes


def stream_digest(episodes: list[Episode]) -> str:
    digest = hashlib.sha256()
    for episode in episodes:
        for stream in episode.streams:
            for op in stream:
                digest.update(repr(tuple(op)).encode())
            digest.update(b"|")
    return digest.hexdigest()


# -- executing ops (shared by the clients and the oracle) -----------------


def call(front, op: Op):
    """Run one op against any front door — a bare database, a
    ``DatabaseService`` or the sharded facade share these method
    names — and return its raw reply."""
    if op.kind == "truth_of":
        return front.truth_of(op.function, op.x, op.y)
    if op.kind == "extension":
        return front.extension(op.function)
    return getattr(front, op.kind)(op.function, op.x, op.y)


def digest(op: Op, reply):
    """What the oracle compares: a ``truth_of`` verdict as is, an
    ``extension`` as (rows, order-independent hash). The hash is only
    ever compared inside one process, so ``hash()`` is stable enough
    and ~20x cheaper than formatting and sorting 2000 rows — the
    clients digest between timed calls."""
    if op.kind == "extension":
        return len(reply), hash(frozenset(reply.items()))
    return reply


def perform(front, op: Op):
    return digest(op, call(front, op))


# -- the sequential oracle ------------------------------------------------


class OracleError(AssertionError):
    """The stack's output diverged from the sequential replay."""


class Oracle:
    """Replays one episode's streams on a bare database, once per run.

    Clients own disjoint derivation clusters, so replaying client 0's
    stream then client 1's is *the* sequential history for every
    table: no interleaving of the two can change a result.
    """

    def __init__(self, workload: Workload, episode: Episode) -> None:
        self.streams = streams = episode.streams
        self.db = initial_db(workload, episode.seed)
        self.start_counts = dict(self.db.counts(),
                                 next_nc_index=self.db.ncs.next_index)
        self.expected = [[perform(self.db, op) for op in stream]
                         for stream in streams]

    def check_reads(self, client: int, results: list) -> None:
        """Every ``truth_of`` verdict and ``extension`` digest."""
        expected = self.expected[client]
        if len(results) != len(expected):
            raise OracleError(
                f"client {client}: {len(results)} results for "
                f"{len(expected)} ops (an op was dropped)"
            )
        for index, (want, got) in enumerate(zip(expected, results)):
            if want != got:
                op = self.streams[client][index]
                raise OracleError(
                    f"client {client} op {index} {op.kind}"
                    f"({op.function}, {op.x}, {op.y}): expected "
                    f"{want!r}, got {got!r}"
                )

    def check_state(self, live: FunctionalDatabase, what: str,
                    cluster: int | None = None) -> None:
        """Final state against the replay: the whole instance, or one
        cluster's tables for a lane that owns only that cluster."""
        what = f"{what} diverged from the sequential replay"
        if cluster is None:
            require_same(self.db, live, what)
            return
        for name in cluster_names(cluster)[:2]:
            want = self.db.table(name).rows()
            got = live.table(name).rows()
            if want != got:
                raise OracleError(f"{what}: table {name}: expected "
                                  f"{want!r}, got {got!r}")


def replay_committed(base: FunctionalDatabase, committed) -> FunctionalDatabase:
    """Apply a service's ``committed_ops()`` to ``base`` in order."""
    for update in committed:
        apply_update(base, update)
    return base


def require_same(expected: FunctionalDatabase, actual: FunctionalDatabase,
                 what: str) -> None:
    diff = states_diff(expected, actual)
    if diff is not None:
        raise OracleError(f"{what}: {diff}")
