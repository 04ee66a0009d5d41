"""E20 tracing: timing spans around each layer's public functions,
installed from here — nothing under ``src/`` knows about them.

``LAYER_ENTRYPOINTS`` is the one table that says which attribute of
which module is a layer boundary. :meth:`Tracer.install` swaps each
for a wrapper that records a span (name, start, end, parent, request
id) while the tracer is enabled; :meth:`Tracer.uninstall` puts the
originals back. A target a later refactor removed is reported and its
metrics read ``null`` — tracing never crashes the benchmark. Only
traced runs import this module.

Self time of a span is its duration minus the durations of its direct
children (children run on the parent's thread inside its interval, so
they never overlap). A *generator* span (``iter_chains``) records
only the time spent inside the generator between resumptions, so a
slow consumer is not billed to the producer.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

from metrics import decile_growth, percentile

_clock = time.perf_counter


class Entry(NamedTuple):
    layer: str
    span: str | tuple[str, str]  # (enter, exit) names for kind="context"
    module: str
    attr: str  # dotted path inside the module
    kind: str = "call"  # "call" | "generator" | "context"
    also: tuple[str, ...] = ()  # modules that imported the name by value
    tag: object = None  # (args) -> small value stored on the span


def _update_class(args) -> str:
    db, update = args[0], args[1]
    side = "base" if db.is_base(update.function) else "derived"
    return f"{side}_{'ins' if update.kind == 'INS' else 'del'}"


def _shipped_bytes(args) -> int:
    return sum(len(line) for line in args[1].get("records", ()))


LAYER_ENTRYPOINTS = (
    Entry("shard", "shard.execute", "repro.shard.sharded",
          "ShardedDatabaseService.execute"),
    Entry("shard", "shard.read", "repro.shard.sharded",
          "ShardedDatabaseService.read"),
    Entry("service", "service.execute", "repro.service.service",
          "DatabaseService.execute"),
    Entry("service", "service.read", "repro.service.service",
          "DatabaseService.read"),
    Entry("service", "service.checkpoint", "repro.service.service",
          "DatabaseService.checkpoint"),
    Entry("service.admission", "admission.enter",
          "repro.service.admission", "AdmissionGate.enter"),
    Entry("service.admission", "admission.leave",
          "repro.service.admission", "AdmissionGate.leave"),
    Entry("service.locks", ("locks.acquire", "locks.release"),
          "repro.service.locks", "LockManager.held", kind="context"),
    Entry("fdb.wal", "wal.execute", "repro.fdb.wal",
          "LoggedDatabase.execute"),
    Entry("fdb.wal", "wal.append", "repro.fdb.wal", "UpdateLog.append"),
    Entry("fdb.wal", "wal.records_between", "repro.fdb.wal",
          "UpdateLog.records_between"),
    Entry("fdb.wal", "wal.shippable_floor", "repro.fdb.wal",
          "UpdateLog.shippable_floor"),
    Entry("fdb.storage", "storage.append_line", "repro.fdb.storage",
          "append_line"),
    Entry("fdb.storage", "storage.fsync", "os", "fsync"),
    Entry("fdb.transaction", "txn.begin", "repro.fdb.transaction",
          "Transaction.__enter__"),
    Entry("fdb.transaction", "txn.end", "repro.fdb.transaction",
          "Transaction.__exit__",
          tag=lambda args: "rollback" if args[1] is not None else None),
    Entry("fdb.updates", "updates.apply", "repro.fdb.updates",
          "apply_update",
          also=("repro.fdb.wal", "repro.service.service",
                "repro.replication.replica"),
          tag=_update_class),
    Entry("fdb.evaluate", "evaluate.truth_of", "repro.fdb.evaluate",
          "truth_of"),
    Entry("fdb.evaluate", "evaluate.truth_of_derived",
          "repro.fdb.evaluate", "truth_of_derived",
          also=("repro.fdb.updates",)),
    Entry("fdb.evaluate", "evaluate.extension", "repro.fdb.evaluate",
          "derived_extension"),
    Entry("fdb.evaluate", "evaluate.iter_chains", "repro.fdb.evaluate",
          "iter_chains", kind="generator",
          also=("repro.fdb.updates", "repro.fdb.nvc")),
    Entry("fdb.persistence", "persistence.checkpoint", "repro.fdb.wal",
          "checkpoint"),
    Entry("fdb.persistence", "persistence.recover", "repro.fdb.wal",
          "recover"),
    Entry("replication", "replication.on_commit",
          "repro.replication.group", "ReplicationGroup.on_commit"),
    Entry("replication", "replication.ship", "repro.replication.shipper",
          "WalShipper.ship"),
    Entry("replication", "replication.replica_handle",
          "repro.replication.replica", "Replica.handle",
          tag=_shipped_bytes),
)

ROOT = "bench.op"


def _span_names(entry: Entry) -> tuple[str, ...]:
    return entry.span if isinstance(entry.span, tuple) else (entry.span,)


LAYER_OF = {name: entry.layer for entry in LAYER_ENTRYPOINTS
            for name in _span_names(entry)}
LAYER_OF[ROOT] = "bench"


class Span(NamedTuple):
    sid: int
    parent: int  # 0 = none
    name: str
    request: object  # the root span's id, for spans of a measured op
    thread: int
    start: float
    end: float
    busy: float  # == end - start, except for generator spans
    tag: object


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self.missing: set[str] = set()  # span names with no target
        self._installed: list[tuple[object, str, object]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def _open(self) -> tuple[list, int, int, object]:
        stack = self._stack()
        parent, request = stack[-1] if stack else (0, None)
        sid = next(self._ids)
        stack.append((sid, request))
        return stack, sid, parent, request

    def root(self, cls: str) -> "_Root":
        """The per-request root span the client loop opens."""
        return _Root(self, cls)

    # -- wrappers -----------------------------------------------------------

    def _wrap_call(self, name: str, fn, tag):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack, sid, parent, request = tracer._open()
            started = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ended = _clock()
                stack.pop()
                tracer.spans.append(Span(
                    sid, parent, name, request, threading.get_ident(),
                    started, ended, ended - started,
                    tag(args) if tag is not None else None,
                ))

        return traced

    def _wrap_generator(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            if not tracer.enabled:
                yield from inner
                return
            stack = tracer._stack()
            parent, request = stack[-1] if stack else (0, None)
            sid = next(tracer._ids)
            first = last = _clock()
            busy = 0.0
            yielded = 0
            try:
                while True:
                    stack.append((sid, request))
                    resumed = _clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        last = _clock()
                        busy += last - resumed
                        stack.pop()
                    yielded += 1
                    yield item
            finally:
                tracer.spans.append(Span(
                    sid, parent, name, request, threading.get_ident(),
                    first, last, busy, yielded,
                ))

        return traced

    def _wrap_context(self, names: tuple[str, str], fn):
        tracer = self
        enter_name, exit_name = names

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            manager = fn(*args, **kwargs)
            if not tracer.enabled:
                return manager
            return _TimedContext(
                tracer._wrap_call(enter_name, manager.__enter__, None),
                tracer._wrap_call(exit_name, manager.__exit__, None),
            )

        return traced

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        for entry in LAYER_ENTRYPOINTS:
            try:
                owner, attr, original = _resolve(entry.module, entry.attr)
            except (ImportError, AttributeError) as exc:
                self.missing.update(_span_names(entry))
                print(f"warning: trace target {entry.module}:"
                      f"{entry.attr} is gone ({exc}); "
                      f"{entry.layer} metrics that need it read null",
                      file=sys.stderr)
                continue
            if entry.kind == "generator":
                wrapper = self._wrap_generator(entry.span, original)
            elif entry.kind == "context":
                wrapper = self._wrap_context(entry.span, original)
            else:
                wrapper = self._wrap_call(entry.span, original, entry.tag)
            self._swap(owner, attr, original, wrapper)
            for module_name in entry.also:
                module = sys.modules.get(module_name)
                if module is None:
                    try:
                        module = importlib.import_module(module_name)
                    except ImportError:
                        continue
                if getattr(module, attr, None) is original:
                    self._swap(module, attr, original, wrapper)

    def _swap(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- output -------------------------------------------------------------

    def write_jsonl(self, path: Path) -> None:
        """One span per line; times in microseconds from the first
        span's start."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((s.start for s in self.spans), default=0.0)
        with path.open("w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps({
                    "id": s.sid, "parent": s.parent or None,
                    "name": s.name, "layer": LAYER_OF[s.name],
                    "request": s.request, "thread": s.thread,
                    "start_us": round((s.start - origin) * 1e6, 1),
                    "end_us": round((s.end - origin) * 1e6, 1),
                    "busy_us": round(s.busy * 1e6, 1),
                    "tag": s.tag,
                }) + "\n")


class _Root:
    __slots__ = ("tracer", "cls", "sid", "started")

    def __init__(self, tracer: Tracer, cls: str) -> None:
        self.tracer, self.cls = tracer, cls

    def __enter__(self) -> None:
        tracer = self.tracer
        self.sid = next(tracer._ids)
        tracer._stack().append((self.sid, self.sid))
        self.started = _clock()

    def __exit__(self, *exc) -> bool:
        ended = _clock()
        tracer = self.tracer
        tracer._stack().pop()
        tracer.spans.append(Span(
            self.sid, 0, ROOT, self.sid, threading.get_ident(),
            self.started, ended, ended - self.started, self.cls,
        ))
        return False


class _TimedContext:
    """Stands in for a context manager; entering and leaving are
    spans of their own (lock acquisition apart from the hold)."""

    def __init__(self, enter, exit_) -> None:
        self._enter, self._exit = enter, exit_

    def __enter__(self):
        return self._enter()

    def __exit__(self, *exc):
        return self._exit(*exc)


def _resolve(module_name: str, dotted: str):
    """(owner object, attribute name, current value) of a target."""
    owner = importlib.import_module(module_name)
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


# -- span arithmetic ----------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """sid -> busy time minus the busy time of direct children."""
    own = {s.sid: s.busy for s in spans}
    for s in spans:
        if s.parent in own:
            own[s.parent] -= s.busy
    return own


def layer_totals(spans: list[Span]) -> dict[str, float]:
    """Seconds of self time per layer, over spans that belong to a
    measured request."""
    own = self_times(spans)
    totals: dict[str, float] = {}
    for s in spans:
        if s.request is not None:
            layer = LAYER_OF[s.name]
            totals[layer] = totals.get(layer, 0.0) + own[s.sid]
    return totals


# -- folding spans into the per-layer metrics ---------------------------------


def fold(tracer: Tracer, result, untraced_wall: float) -> tuple[dict, dict]:
    """(per-layer metrics, layer -> self seconds) for the traced round.

    ``result`` is the traced round's ``RoundResult``; counts the
    program keeps itself (stats(), db.counts(), file sizes) come from
    it, timings and call counts from the spans, as measured (the
    machine's speed is not divided out of a span). ``untraced_wall``
    is the quiet-machine wall of an untraced round. A metric whose
    span target is missing is None; one whose layer did no work on
    this workload is 0.
    """
    spans = tracer.spans
    own = self_times(spans)
    by_id = {s.sid: s for s in spans}
    named: dict[str, list[Span]] = {}
    for s in spans:
        named.setdefault(s.name, []).append(s)

    def under(span: Span, ancestor: str) -> Span | None:
        while span.parent:
            span = by_id[span.parent]
            if span.name == ancestor:
                return span
        return None

    def need(*names: str) -> bool:
        return not tracer.missing.intersection(names)

    def us(values) -> float:
        values = list(values)
        return statistics.median(values) * 1e6 if values else 0.0

    def busy(name: str):
        return [s.busy for s in named.get(name, ())]

    def own_of(*names: str):
        return [own[s.sid] for n in names for s in named.get(n, ())]

    totals = layer_totals(spans)
    totals["bench"] = result.thread_s - sum(
        seconds for layer, seconds in totals.items() if layer != "bench"
    )
    m: dict[str, float | None] = {}

    def put(name: str, needs: tuple[str, ...], compute) -> None:
        m[name] = compute() if need(*needs) else None

    def share(layer: str) -> float:
        return totals.get(layer, 0.0) / result.thread_s

    lanes = result.lane_ops
    put("shard.route_self_us", ("shard.execute", "shard.read"),
        lambda: us(own_of("shard.execute", "shard.read")))
    put("shard.busy_share", ("shard.execute", "shard.read"),
        lambda: share("shard"))
    m["shard.lane_op_skew"] = (
        (max(lanes) - min(lanes)) / statistics.mean(lanes)
        if len(lanes) > 1 else 0.0
    )

    put("service.write_self_us", ("service.execute",),
        lambda: us(own_of("service.execute")))
    put("service.read_self_us", ("service.read",),
        lambda: us(own_of("service.read")))
    for key in ("retries", "lock_timeouts", "deadlocks"):
        m[f"service.{key}"] = result.stats[key]

    put("service.admission.wait_us", ("admission.enter",),
        lambda: us(busy("admission.enter")))
    m["service.admission.shed"] = result.stats["shed"]

    acquire = busy("locks.acquire")
    requests = busy("service.execute") + busy("service.read")
    put("service.locks.acquire_us", ("locks.acquire",),
        lambda: us(acquire))
    put("service.locks.acquire_p95_us", ("locks.acquire",),
        lambda: (percentile(acquire, 0.95) or 0.0) * 1e6)
    put("service.locks.wait_share",
        ("locks.acquire", "service.execute", "service.read"),
        lambda: sum(acquire) / sum(requests) if requests else 0.0)

    appends = named.get("wal.append", ())
    put("fdb.wal.append_self_us", ("wal.append", "storage.append_line"),
        lambda: us(own_of("wal.append")))
    put("fdb.wal.bytes_per_record", ("wal.append",),
        lambda: result.wal_bytes / len(appends) if appends else 0.0)
    put("fdb.wal.records", ("wal.append",), lambda: len(appends))
    readback: dict[int, float] = {}
    for name in ("wal.records_between", "wal.shippable_floor"):
        for s in named.get(name, ()):
            commit = under(s, "replication.on_commit")
            if commit is not None:
                readback[commit.sid] = readback.get(commit.sid, 0.0) + s.busy
    per_commit = [readback[sid] for sid in sorted(readback)]
    reads = ("wal.records_between", "wal.shippable_floor",
             "replication.on_commit")
    put("fdb.wal.readback_us", reads, lambda: us(per_commit))
    put("fdb.wal.readback_growth", reads,
        lambda: decile_growth(per_commit) or 0.0)

    commits = len(named.get("wal.execute", ()))
    primary_fsyncs = sum(1 for s in named.get("storage.fsync", ())
                         if under(s, "wal.append"))
    put("fdb.storage.append_us", ("storage.append_line",),
        lambda: us(busy("storage.append_line")))
    put("fdb.storage.fsync_us", ("storage.fsync",),
        lambda: us(busy("storage.fsync")))
    put("fdb.storage.fsyncs_per_commit",
        ("storage.fsync", "wal.append", "wal.execute"),
        lambda: primary_fsyncs / commits if commits else 0.0)
    put("fdb.storage.bytes_per_commit", ("wal.execute",),
        lambda: result.storage_bytes / commits if commits else 0.0)
    put("fdb.storage.busy_share", ("storage.append_line", "storage.fsync"),
        lambda: share("fdb.storage"))

    begin_us = us(busy("txn.begin"))
    kfacts = result.counts["stored_facts"] / 1000
    put("fdb.transaction.begin_us", ("txn.begin",), lambda: begin_us)
    put("fdb.transaction.begin_us_per_kfact", ("txn.begin",),
        lambda: begin_us / kfacts if kfacts else 0.0)
    put("fdb.transaction.rollbacks", ("txn.end",),
        lambda: sum(1 for s in named.get("txn.end", ())
                    if s.tag == "rollback"))
    put("fdb.transaction.busy_share", ("txn.begin", "txn.end"),
        lambda: share("fdb.transaction"))

    applies = [s for s in named.get("updates.apply", ())
               if s.request is not None
               and not under(s, "replication.replica_handle")]
    evaluate = tuple(n for n, layer in LAYER_OF.items()
                     if layer == "fdb.evaluate")
    for cls in ("base_ins", "base_del", "derived_ins", "derived_del"):
        put(f"fdb.updates.apply_self_us.{cls}",
            ("updates.apply", *evaluate),
            lambda cls=cls: us(own[s.sid] for s in applies
                               if s.tag == cls))
    start = result.counts_start
    m["fdb.updates.ncs_created"] = (result.counts["next_nc_index"]
                                    - start["next_nc_index"])
    m["fdb.updates.ncs_live_end"] = result.counts["ncs"]
    m["fdb.updates.nulls_issued"] = (result.counts["next_null_index"]
                                     - start["next_null_index"])
    m["fdb.updates.ambiguous_facts_end"] = result.counts["ambiguous_facts"]

    truths = named.get("evaluate.truth_of", ())
    chains = named.get("evaluate.iter_chains", ())
    put("fdb.evaluate.truth_of_us", ("evaluate.truth_of",),
        lambda: us(s.busy for s in truths))
    put("fdb.evaluate.extension_ms", ("evaluate.extension",),
        lambda: us(busy("evaluate.extension")) / 1e3)
    put("fdb.evaluate.chains_per_truth_of",
        ("evaluate.truth_of", "evaluate.iter_chains"),
        lambda: (sum(s.tag for s in chains
                     if under(s, "evaluate.truth_of")) / len(truths)
                 if truths else 0.0))
    put("fdb.evaluate.chains_per_extension_row",
        ("evaluate.extension", "evaluate.iter_chains"),
        lambda: (sum(s.tag for s in chains
                     if under(s, "evaluate.extension")) / result.scan_rows
                 if result.scan_rows else 0.0))
    derived = [s for s in applies if s.tag.startswith("derived")]
    put("fdb.evaluate.in_update_us", ("updates.apply", *evaluate),
        lambda: us(s.busy - own[s.sid] for s in derived))
    put("fdb.evaluate.in_update_share", ("updates.apply", *evaluate),
        lambda: (sum(s.busy - own[s.sid] for s in applies)
                 / sum(s.busy for s in applies) if applies else 0.0))

    recovers = busy("persistence.recover")
    put("fdb.persistence.checkpoint_s", ("persistence.checkpoint",),
        lambda: sum(busy("persistence.checkpoint")))
    m["fdb.persistence.snapshot_bytes_per_fact"] = (
        result.snapshot_bytes / result.counts["stored_facts"]
        if result.counts["stored_facts"] else 0.0
    )
    m["fdb.persistence.recover_records"] = result.recover_records
    put("fdb.persistence.recover_us_per_record", ("persistence.recover",),
        lambda: (us(recovers) / result.recover_records
                 if result.recover_records else 0.0))

    on_commit = busy("replication.on_commit")
    handles = named.get("replication.replica_handle", ())
    n_commits = len(on_commit)

    def per_commit_count(name: str) -> float:
        return (sum(1 for s in named.get(name, ())
                    if under(s, "replication.on_commit")) / n_commits
                if n_commits else 0.0)

    put("replication.on_commit_us", ("replication.on_commit",),
        lambda: us(on_commit))
    put("replication.ship_us", ("replication.ship",),
        lambda: us(busy("replication.ship")))
    put("replication.replica_handle_us", ("replication.replica_handle",),
        lambda: us(s.busy for s in handles))
    put("replication.ships_per_commit",
        ("replication.ship", "replication.on_commit"),
        lambda: per_commit_count("replication.ship"))
    put("replication.acks_per_commit",
        ("replication.replica_handle", "replication.on_commit"),
        lambda: per_commit_count("replication.replica_handle"))
    put("replication.wire_bytes_per_commit",
        ("replication.replica_handle", "replication.on_commit"),
        lambda: (sum(s.tag for s in handles
                     if under(s, "replication.on_commit")) / n_commits
                 if n_commits else 0.0))
    put("replication.commit_growth", ("replication.on_commit",),
        lambda: decile_growth(on_commit) or 0.0)
    m["replication.end_lag_seq"] = result.end_lag_seq
    m["replication.ack_timeouts"] = result.ack_timeouts

    m["bench.trace_overhead_share"] = (result.quiet_wall_s / untraced_wall
                                       - 1)
    m["bench.unattributed_share"] = share("bench")
    return m, totals
