"""A soak cell's run directory, and the one table of checks folded over
it.

A :class:`Cell <repro.faults.soak.Cell>` writes its run directory once,
at verify time, beside its event stream (``events.jsonl``), the lanes'
and replicas' snapshot and WAL files and the scrapes:

* ``run.json`` — the run's :class:`SoakConfig
  <repro.faults.soak.SoakConfig>`, mode, scenario (and whether it
  breathes), function -> shard map, each lane's nodes, disk windows and
  current snapshot and WAL, the planned op count, hung workers,
  harness errors, and what was observed live (outcome counts; the
  epilogues' facts, verdicts and notes);
* ``client.jsonl`` — one op a line: ``kind``, ``payload`` (a write's
  through the WAL's entry codec), ``outcome``;
* ``disk.jsonl`` — each primary's WAL lines: ``lane``, ``disk``,
  ``line``; ``delivered.jsonl`` — what each replica accepted:
  ``lane``, ``replica``, ``line``;
* ``state/<node>.json`` — :func:`persistence.dumps` of every live
  primary and replica.

:class:`Run` loads one; every row of :data:`CHECKS` is ``check(run) ->
list[str]``, so no check reads a service, a replica or a thread, and
:func:`fold` folds the table over a run into its report.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.core.derivation import Derivation
from repro.core.schema import FunctionDef
from repro.core.types import (
    ObjectType,
    TypeFunctionality,
    compose_functionalities,
)
from repro.errors import PersistenceError
from repro.faults.harness import replay, states_diff
from repro.fdb import persistence, worlds
from repro.fdb.database import FunctionalDatabase
from repro.fdb.evaluate import derived_extension
from repro.fdb.logic import Truth
from repro.fdb.updates import Update, UpdateSequence
from repro.fdb.wal import (
    committed,
    decode_entry,
    decode_frame,
    encode_entry,
    recover,
)
from repro.obs.events import fence_violations, read_jsonl
from repro.replication import CommitMode
from repro.workloads.generator import random_instance

__all__ = ["CHECKS", "Run", "fold", "soak_database"]


# One derivation chain per prefix; "c" is the lone base function.
CHAIN_PREFIXES = "abdefghijklmnopqrstuwxyz"
# The value pool the instance's rows and the workload's updates draw from.
VALUE_POOL = 12


# -- the instance -------------------------------------------------------------


def soak_schema(chains: int) -> FunctionalDatabase:
    """``chains`` independent derivation clusters (``a1 . a2 -> va``,
    ``b1 . b2 -> vb``, ...) plus a lone base ``c``, no data."""
    db = FunctionalDatabase()
    mm = TypeFunctionality.MANY_MANY
    for prefix in CHAIN_PREFIXES[:chains]:
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
    rows of its own functions only (:func:`seed_lane`)."""
    db = soak_schema(chains)
    random_instance(db, rows_per_function=10, seed=seed,
                    value_pool=VALUE_POOL)
    return db


def seed_lane(db: FunctionalDatabase, full: FunctionalDatabase,
              names) -> FunctionalDatabase:
    """Load the planning instance's rows of the base functions among
    ``names`` into ``db``: plain stored facts (no NCs, no nulls), what
    a lane holds before the first op."""
    for name in names:
        if db.is_base(name):
            db.load(name, full.table(name).pairs())
    return db


# -- a stored run -------------------------------------------------------------


@dataclass
class Disk:
    """One primary's WAL lines; its own history is its committed
    records in ``(start, end]`` — a promoted replica starts past the
    fence it inherits, a deposed primary's tail past its fence was
    cut."""

    start: int = 0
    end: int | None = None
    lines: list = field(default_factory=list)


@dataclass
class Lane:
    """One lane of a run. Loaded, ``logged`` is every committed entry
    frame each primary wrote, a deposed primary's cut tail included,
    and ``history`` the same spliced at each fence."""

    index: int
    nodes: list  # every node that served the lane, its first primary first
    primary: str  # the node serving it at verify
    replicas: list  # its group's members at verify
    snapshot: Path
    wal: Path
    disks: list  # one Disk per primary, oldest first
    delivered: dict = field(default_factory=dict)  # replica -> lines
    logged: list = field(default_factory=list)
    history: list = field(default_factory=list)


def _read_lines(path: Path) -> list[dict]:
    if not path.exists():
        return []
    return [json.loads(line) for line
            in path.read_text(encoding="utf-8").splitlines() if line]


def _write_lines(path: Path, items) -> None:
    path.write_text("".join(json.dumps(item, sort_keys=True) + "\n"
                            for item in items), encoding="utf-8")


@dataclass
class Run:
    """One cell's run, as :meth:`save` writes it to a run directory and
    :meth:`load` reads it back. ``stalled``: a worker hung or the
    harness failed, the state was still moving, so only ``run.json``
    is written."""

    config: dict  # the SoakConfig's fields
    mode: str | None
    scenario: str
    breathes: bool  # the scenario forces a breaker and SLO cycle
    shards: dict  # function -> the lane it is placed on
    lanes: list
    planned: int
    hung: int
    errors: list  # harness errors, as reprs
    observed: dict  # SoakReport fields the run filled in live
    client: list = field(default_factory=list)  # (kind, payload, outcome)
    states: dict = field(default_factory=dict)  # node -> its database
    records: list = field(default_factory=list)  # events.jsonl

    def __post_init__(self) -> None:
        self.stalled = bool(self.hung or self.errors)
        self.shard_of = self.shards.__getitem__
        self.actions = Counter(record.name for record in self.records
                               if record.kind == "action")

    def save(self, root: Path) -> None:
        """Write the run directory ``root``, beside the event stream
        and the lanes' files the cell already keeps there."""
        meta = {key: getattr(self, key) for key in (
            "config", "mode", "scenario", "breathes", "shards", "planned",
            "hung", "errors", "observed")}
        meta["lanes"] = [{
            "index": lane.index, "nodes": lane.nodes,
            "primary": lane.primary, "replicas": lane.replicas,
            "snapshot": str(lane.snapshot.relative_to(root)),
            "wal": str(lane.wal.relative_to(root)),
            "disks": [[disk.start, disk.end] for disk in lane.disks],
        } for lane in self.lanes]
        (root / "run.json").write_text(json.dumps(
            meta, indent=1, sort_keys=True, default=str), encoding="utf-8")
        if self.stalled:
            return
        _write_lines(root / "client.jsonl", (
            {"kind": kind, "outcome": outcome, "payload": encode_entry(
                payload) if isinstance(payload, (Update, UpdateSequence))
             else payload} for kind, payload, outcome in self.client))
        _write_lines(root / "disk.jsonl", (
            {"lane": lane.index, "disk": index, "line": line}
            for lane in self.lanes
            for index, disk in enumerate(lane.disks)
            for line in disk.lines))
        _write_lines(root / "delivered.jsonl", (
            {"lane": lane.index, "replica": name, "line": line}
            for lane in self.lanes
            for name, lines in lane.delivered.items() for line in lines))
        (root / "state").mkdir(exist_ok=True)
        for node, db in self.states.items():
            (root / "state" / f"{node}.json").write_text(
                persistence.dumps(db), encoding="utf-8")

    @classmethod
    def load(cls, root: str | Path) -> "Run":
        root = Path(root)
        with (root / "run.json").open(encoding="utf-8") as handle:
            meta = json.load(handle)
        meta["lanes"] = lanes = [
            Lane(**{**lane, "snapshot": root / lane["snapshot"],
                    "wal": root / lane["wal"],
                    "disks": [Disk(*window) for window in lane["disks"]]})
            for lane in meta["lanes"]]
        for line in _read_lines(root / "disk.jsonl"):
            lanes[line["lane"]].disks[line["disk"]].lines.append(
                line["line"])
        for line in _read_lines(root / "delivered.jsonl"):
            lanes[line["lane"]].delivered.setdefault(
                line["replica"], []).append(line["line"])
        for lane in lanes:
            for disk in lane.disks:
                frames = [frame for frame
                          in committed(map(decode_frame, disk.lines))
                          if frame.seq > disk.start]
                lane.logged += frames
                lane.history += [frame for frame in frames
                                 if disk.end is None
                                 or frame.seq <= disk.end]
        events = root / "events.jsonl"
        return cls(**meta, client=[
            (op["kind"], decode_entry(op["payload"])
             if isinstance(op["payload"], dict) else op["payload"],
             op["outcome"])
            for op in _read_lines(root / "client.jsonl")],
            states={state.stem: persistence.load(state) for state
                    in sorted((root / "state").glob("*.json"))},
            records=read_jsonl(events) if events.exists() else [])


# -- the checks ---------------------------------------------------------------

# Action records the run-level cross-cell check counts.
_RUN_EVENTS = ("replication.promote", "replication.elected",
               "replication.write_fenced", "replication.rejoin")


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


def _check_liveness(run: Run) -> list[str]:
    return ([f"{run.hung} workers hung"] if run.hung else []) + [
        f"harness error: {error}" for error in run.errors]


def _check_accounting(run: Run) -> list[str]:
    """Every planned op resolved to exactly one outcome, and every
    write a client saw commit is in its lane's disk history."""
    out = []
    outcomes = sum(run.observed["counts"].values())
    if outcomes != run.planned:
        out.append(f"workers reported {outcomes} outcomes for "
                   f"{run.planned} planned ops")
    on_disk = Counter((lane.index, frame.payload) for lane in run.lanes
                      for frame in lane.logged)
    missing = Counter(
        pair for kind, update, outcome in run.client
        if outcome == "applied" and kind in ("write", "seq", "rmw")
        for pair in _on_lanes(update, run.shard_of).items()
    ) - on_disk
    if missing:
        out.append(f"{sum(missing.values())} writes a client saw commit "
                   f"are not on their lane's disk: "
                   f"{[str(op) for _, op in list(missing)[:3]]}")
    return out


def _check_replay(run: Run) -> list[str]:
    """Lanes commit concurrently, but each lane's disk history must
    still be sequential — exactly what the per-lane ``__write__``
    token buys: replayed over the lane's seed rows it reproduces the
    live primary, so every shed, cancelled, refused or failed request
    left no trace. Across a failover the history is spliced at the
    fence, so the surviving history and only it was applied."""
    out, chains = [], 2 * run.config["shards"]
    for lane in run.lanes:
        fresh = seed_lane(soak_schema(chains),
                          soak_database(run.config["seed"], chains),
                          [name for name, home in run.shards.items()
                           if home == lane.index])
        diff = states_diff(replay(fresh, (frame.payload
                                          for frame in lane.history)),
                           run.states[lane.primary])
        if diff:
            out.append(f"lane {lane.index} diverged from its sequential "
                       f"replay: {diff}")
    return out


def _check_recovery(run: Run) -> list[str]:
    """The concurrent path must have kept the log exact too."""
    out = []
    for lane in run.lanes:
        try:
            diff = states_diff(
                recover(lane.snapshot, lane.wal, policy="strict").db,
                run.states[lane.primary])
        except (PersistenceError, OSError) as exc:
            diff = f"recovery failed: {exc}"
        if diff:
            out.append(f"lane {lane.index}: {diff}")
    return out


def _multi_writes(run: Run) -> tuple[dict, dict]:
    """The multi-shard writes of the client record, as label -> (the
    lanes the write spans, the outcome its client saw), and each
    lane's labels of them in disk order, a deposed primary's cut tail
    included."""
    writes = {}
    for _, update, outcome in run.client:
        if isinstance(update, UpdateSequence):
            spans = set(_on_lanes(update, run.shard_of))
            if len(spans) > 1:
                writes[update.label] = (spans, outcome)
    return writes, {
        lane.index: [frame.payload.label for frame in lane.logged
                     if getattr(frame.payload, "label", None) in writes]
        for lane in run.lanes}


def _request_spans(run: Run) -> tuple[set, dict]:
    """The ``service.request`` spans: the ids that started, and the
    attrs of each that ended, by id."""
    starts: set[int] = set()
    ends: dict[int, dict] = {}
    for record in run.records:
        if record.name != "service.request" or record.span_id is None:
            continue
        if record.kind == "span.start":
            starts.add(record.span_id)
        elif record.kind == "span.end":
            ends[record.span_id] = record.attrs
    return starts, ends


def _check_spans(run: Run) -> list[str]:
    """Every ``service.request`` span that started also ended, and the
    spans stamped ``committed=True`` match the disk histories: one per
    single-lane commit, one per multi-shard write on every lane it
    spans."""
    starts, ends = _request_spans(run)
    dangling = starts - set(ends)
    if dangling:
        return [f"{len(dangling)} request spans started but never ended"]
    is_multi = [attrs.get("family") == "multi_write"
                for attrs in ends.values()
                if attrs.get("committed") == "True"]
    multi, single = sum(is_multi), len(is_multi) - sum(is_multi)
    writes, labels = _multi_writes(run)
    singles = sum(len(lane.logged) - len(labels[lane.index])
                  for lane in run.lanes)
    paired = sum(1 for label, (spans, _) in writes.items()
                 if all(label in labels[shard] for shard in spans))
    out = []
    if single != singles:
        out.append(f"{single} committed single-lane request spans for "
                   f"{singles} records on disk")
    if multi != paired:
        out.append(f"{multi} committed multi-shard request spans for "
                   f"{paired} labels on every lane they span")
    return out


def _check_markers(run: Run) -> list[str]:
    """Multi-shard writes, paired by the label each slice's WAL record
    carries. Any two lanes hold the labels they share in the same
    order (the writes took the lanes' tokens in one sorted order), and
    a write sits on every lane it spans — or, only if its caller was
    told it was cut short (``CrossShardError``: cross-shard atomicity
    is not promised), on some of them."""
    out = []
    writes, labels = _multi_writes(run)
    for a, b in itertools.combinations(sorted(labels), 2):
        shared = set(labels[a]) & set(labels[b])
        order = [[label for label in labels[shard] if label in shared]
                 for shard in (a, b)]
        if order[0] != order[1]:
            out.append(f"lanes {a} and {b} applied their shared "
                       f"multi-shard writes in different orders: "
                       f"{order[0][:5]} vs {order[1][:5]}")
    for label, (spans, outcome) in writes.items():
        holders = {shard for shard, found in labels.items()
                   if label in found}
        if holders != spans and (outcome == "applied" or holders
                                 and outcome != "cross_shard"):
            out.append(f"write {label!r} spans lanes {sorted(spans)} "
                       f"but is on {sorted(holders)}; its client saw "
                       f"{outcome}")
    return out


def _cycles(run: Run) -> dict:
    names = run.actions
    return {"breaker": {"opens": names["breaker.open"],
                        "closes": names["breaker.closed"]},
            "slo": {"raised": names["slo.alert_raised"],
                    "cleared": names["slo.alert_cleared"]}}


def _check_breathe(run: Run) -> list[str]:
    """The breaker breathed and the SLO alert raised *and* cleared —
    read back from the event log."""
    return [f"event log shows {what} cycle {counts}"
            for what, counts in zip(("breaker", "SLO alert"),
                                    _cycles(run).values())
            if not all(counts.values())]


def _check_journal(run: Run) -> list[str]:
    """The shipped stream, from the receiving end: every record a
    replica accepted is, byte for byte, the record the lane's primary
    of that term wrote at that seq."""
    out = []
    for lane in run.lanes:
        written = {(frame.term, frame.seq): frame.line
                   for disk in lane.disks
                   for frame in map(decode_frame, disk.lines)}
        for name, lines in lane.delivered.items():
            strays = [frame.seq for frame in map(decode_frame, lines)
                      if written.get((frame.term, frame.seq)) != frame.line]
            if strays:
                out.append(f"replica {name} accepted records no primary "
                           f"wrote at seqs {strays[:5]}")
    return out


def _check_replicas(run: Run) -> list[str]:
    """After settling, every replica's state equals its primary's."""
    out = []
    for lane in run.lanes:
        for name in lane.replicas:
            state = run.states.get(name)
            diff = ("no state after settling" if state is None
                    else states_diff(run.states[lane.primary], state))
            if diff:
                out.append(f"replica {name} diverged: {diff}")
        if not lane.replicas:
            out.append(f"lane {lane.index}: no replica state was checked")
    return out


def _acked(run: Run, lane: Lane | None = None) -> list[int]:
    """The seqs acked on ``lane`` (on every lane: None), from the
    ``replication.commit_acked`` records of the event stream."""
    return [record.int_attr("seq") for record in run.records
            if record.kind == "action"
            and record.name == "replication.commit_acked"
            and (lane is None or record.attrs.get("node") in lane.nodes)]


def _check_pipeline(run: Run) -> list[str]:
    """The span-stream oracle for the commit pipeline: every sequence
    number a lane's primary acked must be covered by at least the
    commit mode's ack quota of ``replica.apply`` spans on that lane's
    replicas (their ``[from_seq, applied_to]`` interval contains it) or
    by a snapshot install whose ``wal_applied`` floor subsumes it."""
    needed = CommitMode.parse(run.mode).required_acks(
        run.config["replicas"])
    ends = [r for r in run.records if r.kind == "span.end"]
    out = []
    for lane in run.lanes:
        applied: dict[str, list[tuple[int, int]]] = {}
        floors: dict[str, int] = {}
        for record in ends:
            name = str(record.attrs.get("replica"))
            if name not in lane.nodes:
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
        for seq in (_acked(run, lane) if needed else ()):
            covering = {
                name for name, spans in applied.items()
                if any(low <= seq <= high for low, high in spans)
            } | {name for name, floor in floors.items() if floor >= seq}
            if len(covering) < needed:
                uncovered.append((seq, sorted(covering)))
        if uncovered:
            out.append(
                f"lane {lane.index} acked commits lacking {needed} "
                f"replica applies in the span stream: {uncovered[:5]}"
                + (f" (+{len(uncovered) - 5} more)"
                   if len(uncovered) > 5 else ""))
    return out


def _check_timeline(run: Run) -> list[str]:
    """Lane 0's replication action records (the lane that may fail
    over; other lanes' acked commits carry their own node names and
    are left out) pass the fence audit (:func:`fence_violations`):
    every acked old-term commit sits at or below the fence (none lost)
    and precedes the fence record, every new-term commit follows it.
    After a failover the fence, promote and rejoin records must be
    there — and the lease expiry and the election that caused them,
    when it was automatic."""
    nodes, facts = {None, *run.lanes[0].nodes}, run.observed["facts"]
    timeline = [record for record in run.records
                if record.kind == "action"
                and record.name.startswith("replication.")
                and record.attrs.get("node") in nodes]
    problems = fence_violations(timeline)
    out = [f"fence audit failed: {problems[:3]}"] if problems else []
    if "promotion" not in facts:
        return out
    wanted = ["fence", "promote", "rejoin"]
    if facts.get("elections"):
        wanted += ["lease_expired", "elected"]
    names = {record.name for record in timeline}
    out += [f"no replication.{name} record in the failover timeline"
            for name in wanted if f"replication.{name}" not in names]
    fences = [record for record in timeline
              if record.name == "replication.fence"]
    if fences and (fence_seq := fences[-1].int_attr("fence_seq")) \
            != facts["fence_seq"]:
        out.append(f"timeline fence at seq {fence_seq}, promotion "
                   f"reported {facts['fence_seq']}")
    return out


class _Abort(Exception):
    """What :func:`_worlds`'s doomed transaction raises."""


def _check_worlds(run: Run) -> list[str]:
    """The repair oracle, in the directions that hold. On every lane's
    final state: the live NCs admit a world; the counted marginals
    agree with the three-valued verdicts (TRUE ⇒ 1, FALSE ⇒ 0) on the
    head of each derived extension and on the derived pairs the run
    deleted; a stored ambiguous fact is never certain; and a
    transaction that raises leaves the count where it was (on a copy —
    the other rows read the lane's own state)."""
    out: list[str] = []
    for lane in run.lanes:
        db, at = run.states[lane.primary], f"lane {lane.index}: "
        heads = [(name, *pair) for name in db.derived_names
                 for pair in list(derived_extension(db, name))[:5]]
        deleted = [
            (update.function, *update.pair)
            for frame in lane.history
            for update in (frame.payload
                           if isinstance(frame.payload, UpdateSequence)
                           else (frame.payload,))
            if update.kind == "DEL" and db.is_derived(update.function)
        ]
        for fact in dict.fromkeys(heads + deleted):
            truth, chance = db.truth_of(*fact), worlds.marginal(db, *fact)
            expected = {Truth.TRUE: 1.0, Truth.FALSE: 0.0}.get(truth)
            if expected is not None and chance != expected:
                out.append(f"{at}{fact} is {truth} but holds in "
                           f"{chance:.3f} of the worlds")
        report = worlds.analyze(db)
        if report.world_count < 1:
            out.append(f"{at}the live NCs admit no world")
        certain = [ref for ref, chance in report.base_marginals.items()
                   if not 0.0 <= chance < 1.0]
        if certain:
            out.append(f"{at}ambiguous facts with marginal outside "
                       f"[0, 1): {certain[:3]}")
        scratch = persistence.loads(persistence.dumps(db))
        with suppress(_Abort), scratch.transaction():
            for fact in heads:
                scratch.delete(*fact)
            raise _Abort
        after = worlds.count_worlds(scratch)
        if after != report.world_count:
            out.append(f"{at}an aborted transaction moved the world "
                       f"count {report.world_count} -> {after}")
    return out


@dataclass(frozen=True)
class Check:
    """One row of the table: the check's name (the prefix of its
    failures), the one function that checks a run, and the predicate
    under which it applies (default: always)."""

    name: str
    check: Callable[[Run], list]
    applies: Callable[[Run], bool] = lambda run: True


def _replicated(run: Run) -> bool:
    return run.config["replicas"] > 0


CHECKS = (
    Check("liveness", _check_liveness),
    Check("accounting", _check_accounting),
    Check("replay", _check_replay),
    Check("recovery", _check_recovery),
    Check("spans", _check_spans),
    Check("markers", _check_markers),  # vacuous on one lane
    Check("worlds", _check_worlds),
    Check("breathe", _check_breathe, lambda run: run.breathes),
    Check("journal", _check_journal, _replicated),
    Check("replicas", _check_replicas, _replicated),
    Check("pipeline", _check_pipeline, _replicated),
    Check("timeline", _check_timeline, _replicated),
)
# "failover" and "scrape" failures are recorded where they are observed:
# by the failover epilogue and by the two scrapes.


def _facts(run: Run) -> dict:
    """What a cell's report says happened, read from the run."""
    ends = _request_spans(run)[1].values()
    facts = {
        "committed": {lane.index: len(lane.logged) for lane in run.lanes},
        "events": {name: run.actions[name] for name in _RUN_EVENTS
                   if run.actions[name]},
        "spans": {"request": len(ends), "committed": sum(
            attrs.get("committed") == "True" for attrs in ends)},
    }
    if run.config["replicas"]:
        facts["acked"] = len(_acked(run))
    labels = _multi_writes(run)[1]
    if any(labels.values()):
        facts["markers"] = {shard: len(found)
                            for shard, found in labels.items()}
    if run.breathes:
        facts.update(_cycles(run))
    return facts


def fold(run: Run, report) -> None:
    """Fold every row of :data:`CHECKS` that applies over ``run`` into
    ``report`` (a :class:`SoakReport <repro.faults.soak.SoakReport>`) —
    only ``liveness`` on a stalled run — then what the run says
    happened into its facts."""
    for row in CHECKS[:1] if run.stalled else CHECKS:
        for failure in row.check(run) if row.applies(run) else ():
            report.fail(row.name, failure)
    if not run.stalled:
        report.facts.update(_facts(run))
