"""The structured event log: typed records, pluggable sinks, causal links.

Span trees (:mod:`repro.obs.tracing`) answer "what did this update do"
interactively; the event log answers it *durably and causally*. Every
span boundary, update side-effect, WAL append and recovery action is
emitted as one :class:`EventRecord` — a flat, JSON-ready object with
three causal fields:

* ``span_id`` — the span the record belongs to (span boundaries carry
  their own id);
* ``parent_span`` — the enclosing span, so the span *tree* can be
  rebuilt from the flat stream;
* ``cause`` — the update id (``u1``, ``u2``, ...) whose propagation
  produced the record, inherited down the span context, so a whole
  cascade (derived delete → chain enumeration → NC creation → WAL
  append) can be grouped and drawn as one span tree.

Records flow through pluggable :class:`Sink` implementations attached
to the process-wide :class:`EventLog` (``OBS.events``):

* :class:`RingBufferSink` — the last N records in memory (the REPL and
  the tests read this);
* :class:`FileSink` — append-only JSONL (one record per line);
* :class:`CallbackSink` — hand each record to a callable (bridges to
  external collectors).

Records are the one representation of what happened: the same record
that reaches the sinks is what the tracer folds into span trees, so
with ``OBS.enabled`` and at least one sink attached records flow
whether or not span trees are built. With no sinks attached and
tracing off the pipeline costs two attribute checks.

A plain :class:`repro.obs.tracing.Tracer` folds a stream read back
by :func:`read_jsonl` into span trees, and
:meth:`repro.obs.tracing.Span.to_dot` draws one, closing the loop the
acceptance test exercises: events → JSONL → span tree → DOT.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

__all__ = [
    "EventRecord",
    "Sink",
    "RingBufferSink",
    "FileSink",
    "CallbackSink",
    "EventLog",
    "read_jsonl",
    "TimelineEntry",
    "ReplicationTimeline",
    "replication_timeline",
]


def _format_value(value) -> str:
    # Lazy import, same reason as repro.obs.tracing: fdb modules import
    # obs at module level, so obs must not import fdb until first use.
    from repro.fdb.values import format_value

    return format_value(value)


@dataclass(frozen=True)
class EventRecord:
    """One typed record of the event log.

    ``kind`` is the record type — ``span.start``, ``span.end``,
    ``event`` (a point marker inside a span), or ``action`` (a
    standalone occurrence outside any span, e.g. a recovery step).
    ``seq`` is a process-wide monotone ordering key; ``ts`` is wall
    time (``time.time()``); attribute values are stringified through
    :func:`repro.fdb.values.format_value` so indexed nulls stay
    diffable across runs.
    """

    seq: int
    ts: float
    kind: str
    name: str
    span_id: int | None = None
    parent_span: int | None = None
    cause: str | None = None
    duration: float | None = None
    attrs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        record: dict = {
            "seq": self.seq,
            "ts": self.ts,
            "kind": self.kind,
            "name": self.name,
        }
        if self.span_id is not None:
            record["span_id"] = self.span_id
        if self.parent_span is not None:
            record["parent_span"] = self.parent_span
        if self.cause is not None:
            record["cause"] = self.cause
        if self.duration is not None:
            record["duration"] = self.duration
        if self.attrs:
            record["attrs"] = {
                key: _format_value(value)
                for key, value in self.attrs.items()
            }
        return record

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, default=str)

    @classmethod
    def from_dict(cls, raw: dict) -> "EventRecord":
        return cls(
            seq=raw.get("seq", 0),
            ts=raw.get("ts", 0.0),
            kind=raw["kind"],
            name=raw["name"],
            span_id=raw.get("span_id"),
            parent_span=raw.get("parent_span"),
            cause=raw.get("cause"),
            duration=raw.get("duration"),
            attrs=dict(raw.get("attrs", {})),
        )


class Sink:
    """Where event records go. Subclasses implement :meth:`emit`."""

    def emit(self, record: EventRecord) -> None:  # pragma: no cover
        raise NotImplementedError

    def close(self) -> None:
        """Release any resources; the default has none."""


class RingBufferSink(Sink):
    """The most recent ``capacity`` records, in memory."""

    def __init__(self, capacity: int = 1024) -> None:
        self._records: deque[EventRecord] = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def emit(self, record: EventRecord) -> None:
        with self._lock:
            self._records.append(record)

    @property
    def records(self) -> tuple[EventRecord, ...]:
        with self._lock:
            return tuple(self._records)

    def clear(self) -> None:
        with self._lock:
            self._records.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


class FileSink(Sink):
    """Append-only JSONL file of records.

    The handle is opened lazily and kept open between emits (an event
    log that re-opened per record would dominate the cost it
    measures). Writes are line-buffered, not fsync'd — the event log
    is diagnostic, not durable state; the WAL owns durability.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._handle = None
        self._lock = threading.Lock()

    def emit(self, record: EventRecord) -> None:
        with self._lock:
            if self._handle is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = self.path.open("a", encoding="utf-8")
            self._handle.write(record.to_json() + "\n")
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


class CallbackSink(Sink):
    """Hand each record to a callable (testing, external bridges)."""

    def __init__(self, callback: Callable[[EventRecord], None]) -> None:
        self._callback = callback

    def emit(self, record: EventRecord) -> None:
        self._callback(record)


class EventLog:
    """The fan-out point: one :meth:`emit` call, every attached sink.

    ``active`` is the single attribute hot paths check before building
    a record, so a process with no sinks pays one boolean load. Sink
    errors propagate — a sink that cannot accept records is a
    configuration bug the operator must see, not silently lose data
    over.
    """

    def __init__(self) -> None:
        self._sinks: list[Sink] = []
        self._seq = itertools.count(1)
        self.active = False

    def add_sink(self, sink: Sink) -> Sink:
        self._sinks.append(sink)
        self.active = True
        return sink

    def remove_sink(self, sink: Sink) -> None:
        self._sinks.remove(sink)
        sink.close()
        self.active = bool(self._sinks)

    def clear_sinks(self) -> None:
        for sink in self._sinks:
            sink.close()
        self._sinks.clear()
        self.active = False

    def record(self, kind: str, name: str, span_id: int | None = None,
               parent_span: int | None = None, cause: str | None = None,
               duration: float | None = None,
               attrs: dict | None = None) -> EventRecord:
        """Build one record, stamped with the next ``seq`` and the wall
        time."""
        return EventRecord(next(self._seq), time.time(), kind, name,
                           span_id, parent_span, cause, duration,
                           {} if attrs is None else attrs)

    def publish(self, record: EventRecord) -> None:
        """Hand ``record`` to every attached sink."""
        for sink in self._sinks:
            sink.emit(record)

    def emit(self, kind: str, name: str, **fields) -> EventRecord | None:
        """Build and fan out one record; no-op without sinks."""
        if not self.active:
            return None
        record = self.record(kind, name, **fields)
        self.publish(record)
        return record


def read_jsonl(path: str | Path) -> list[EventRecord]:
    """Decode a :class:`FileSink` artifact back into records."""
    records: list[EventRecord] = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line:
            records.append(EventRecord.from_dict(json.loads(line)))
    return records


# -- replication audit timeline -----------------------------------------------
#
# Replication lifecycle steps are emitted as ``action`` records
# (``replication.promote``, ``replication.fence``, ...). The fold below
# projects a record stream onto just those actions and types them, so a
# failover can be audited from the same JSONL artifact the soak already
# writes: which commits were acked under which term, where the fence
# fell, who was promoted, who re-bootstrapped via snapshot.

_TIMELINE_KINDS = {
    "replication.primary_attached": "attach",
    "replication.commit_acked": "commit",
    "replication.ack_timeout": "ack_timeout",
    "replication.write_fenced": "write_fenced",
    "replication.fence": "fence",
    "replication.promote": "promote",
    "replication.rejoin": "rejoin",
    "replication.catch_up": "catch_up",
    "replication.snapshot_bootstrap": "snapshot_bootstrap",
    "replication.snapshot_installed": "snapshot_install",
    "replication.lease_granted": "lease_grant",
    "replication.lease_renewed": "lease_renew",
    "replication.lease_expired": "lease_expire",
    "replication.elected": "elect",
}


def _timeline_int(value) -> int | None:
    # Attr values arrive raw from a live RingBufferSink but stringified
    # after a JSONL round-trip; accept both.
    if value is None:
        return None
    try:
        return int(str(value))
    except (TypeError, ValueError):
        return None


@dataclass(frozen=True)
class TimelineEntry:
    """One typed step of the replication audit timeline.

    ``order`` is the source record's event-log ``seq`` — the process-
    wide total order the fence invariant is stated over. ``term`` is
    the term the step happened *under* (for ``fence`` the term being
    fenced; for ``promote`` the new term). ``commit_seq`` is set on
    ``commit`` entries, ``fence_seq`` on ``fence``/``rejoin`` entries;
    everything else stays available in ``attrs`` verbatim.
    """

    order: int
    ts: float
    kind: str
    name: str
    term: int | None
    replica: str | None
    commit_seq: int | None
    fence_seq: int | None
    attrs: dict

    def to_dict(self) -> dict:
        entry: dict = {
            "order": self.order,
            "ts": self.ts,
            "kind": self.kind,
            "name": self.name,
        }
        if self.term is not None:
            entry["term"] = self.term
        if self.replica is not None:
            entry["replica"] = self.replica
        if self.commit_seq is not None:
            entry["commit_seq"] = self.commit_seq
        if self.fence_seq is not None:
            entry["fence_seq"] = self.fence_seq
        if self.attrs:
            entry["attrs"] = {
                key: _format_value(value)
                for key, value in self.attrs.items()
            }
        return entry

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, default=str)


@dataclass
class ReplicationTimeline:
    """The ordered audit timeline folded from a record stream."""

    entries: list[TimelineEntry] = field(default_factory=list)

    def __iter__(self) -> Iterator[TimelineEntry]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def of_kind(self, kind: str) -> list[TimelineEntry]:
        return [entry for entry in self.entries if entry.kind == kind]

    def commits(self, *, term: int | None = None) -> list[TimelineEntry]:
        """Acked-commit entries, optionally restricted to one term."""
        return [
            entry for entry in self.entries
            if entry.kind == "commit"
            and (term is None or entry.term == term)
        ]

    def fence_violations(self) -> list[str]:
        """The audit check: every commit acked under a fenced term at
        or below the fence seq must precede the fence entry, and the
        first commit of the new term must follow it. Returns the
        violations (empty = timeline is well-ordered)."""
        problems: list[str] = []
        for fence in self.of_kind("fence"):
            new_term = _timeline_int(fence.attrs.get("new_term"))
            for commit in self.commits(term=fence.term):
                if (commit.commit_seq is not None
                        and fence.fence_seq is not None
                        and commit.commit_seq <= fence.fence_seq
                        and commit.order >= fence.order):
                    problems.append(
                        f"commit seq={commit.commit_seq} "
                        f"term={commit.term} recorded after its fence"
                    )
            if new_term is not None:
                early = [
                    commit for commit in self.commits(term=new_term)
                    if commit.order <= fence.order
                ]
                if early:
                    problems.append(
                        f"term {new_term} commit recorded before the "
                        f"fence of term {fence.term}"
                    )
        return problems

    def to_jsonl(self) -> str:
        return "".join(entry.to_json() + "\n" for entry in self.entries)


def replication_timeline(
    records: Iterable[EventRecord],
) -> ReplicationTimeline:
    """Fold a record stream into the replication audit timeline.

    Keeps only the ``action`` records named in the replication
    lifecycle vocabulary, in event-log order, typed per
    :data:`_TIMELINE_KINDS`. Works on live :class:`RingBufferSink`
    records and on :func:`read_jsonl` artifacts alike.
    """
    timeline = ReplicationTimeline()
    for record in records:
        if record.kind != "action":
            continue
        kind = _TIMELINE_KINDS.get(record.name)
        if kind is None:
            continue
        attrs = record.attrs
        if kind == "fence":
            term = _timeline_int(attrs.get("old_term"))
            fence_seq = _timeline_int(attrs.get("fence_seq"))
        elif kind == "rejoin":
            term = _timeline_int(attrs.get("old_term"))
            fence_seq = _timeline_int(attrs.get("fence_seq"))
        elif kind == "promote":
            term = _timeline_int(attrs.get("new_term"))
            fence_seq = _timeline_int(attrs.get("applied_seq"))
        elif kind == "write_fenced":
            term = _timeline_int(attrs.get("writer_term"))
            fence_seq = None
        else:
            term = _timeline_int(attrs.get("term"))
            fence_seq = None
        replica = attrs.get("replica") or attrs.get("chosen")
        commit_seq = (_timeline_int(attrs.get("seq"))
                      if kind in ("commit", "ack_timeout") else None)
        timeline.entries.append(TimelineEntry(
            order=record.seq,
            ts=record.ts,
            kind=kind,
            name=record.name,
            term=term,
            replica=str(replica) if replica is not None else None,
            commit_seq=commit_seq,
            fence_seq=fence_seq,
            attrs=dict(attrs),
        ))
    return timeline
