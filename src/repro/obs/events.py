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
acceptance test exercises: events → JSONL → span tree → DOT. The
failover is audited over the records as they stand:
:func:`fence_violations` reads the ``replication.*`` actions.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

__all__ = [
    "EventRecord",
    "Sink",
    "RingBufferSink",
    "FileSink",
    "CallbackSink",
    "EventLog",
    "read_jsonl",
    "fence_violations",
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

    def int_attr(self, key: str) -> int | None:
        """Attr ``key`` as an int, or ``None`` when absent or not one.
        Values arrive raw from a live sink but stringified after a
        JSONL round trip; both read alike."""
        try:
            return int(str(self.attrs.get(key)))
        except (TypeError, ValueError):
            return None


class Sink:
    """Where event records go. Subclasses implement
    ``emit(record)``."""

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


def read_jsonl(path: str | Path) -> list[EventRecord]:
    """Decode a :class:`FileSink` artifact back into records."""
    records: list[EventRecord] = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line:
            records.append(EventRecord.from_dict(json.loads(line)))
    return records


# -- the failover audit ------------------------------------------------------
#
# Replication lifecycle steps are emitted as ``action`` records
# (``replication.promote``, ``replication.fence``, ...), so a failover
# is audited over the same records the soak already writes: which
# commits were acked under which term, and where the fence fell.


def fence_violations(records: Iterable[EventRecord]) -> list[str]:
    """The fence audit over ``replication.commit_acked`` and
    ``replication.fence`` action records, in ``seq`` order: every
    commit acked under a fenced term must sit at or below the fence
    seq (above it, the failover lost it) and precede the fence record,
    and no commit of the new term may precede it. Returns the
    violations (empty = no acked commit was reordered or lost). Works
    on live :class:`RingBufferSink` records and on :func:`read_jsonl`
    artifacts alike."""
    commits: list[tuple[int, int | None, int | None]] = []
    fences: list[EventRecord] = []
    for record in sorted(records, key=lambda record: record.seq):
        if record.kind != "action":
            continue
        if record.name == "replication.commit_acked":
            commits.append((record.seq, record.int_attr("term"),
                            record.int_attr("seq")))
        elif record.name == "replication.fence":
            fences.append(record)
    problems: list[str] = []
    for fence in fences:
        term = fence.int_attr("old_term")
        fence_seq = fence.int_attr("fence_seq")
        new_term = fence.int_attr("new_term")
        for order, commit_term, seq in commits:
            if commit_term != term or seq is None or fence_seq is None:
                continue
            if seq > fence_seq:
                problems.append(
                    f"commit seq={seq} term={term} acked above its "
                    f"fence at seq {fence_seq}")
            elif order >= fence.seq:
                problems.append(
                    f"commit seq={seq} term={term} recorded after its "
                    f"fence")
        if new_term is not None and any(
                commit_term == new_term and order <= fence.seq
                for order, commit_term, _ in commits):
            problems.append(
                f"term {new_term} commit recorded before the fence of "
                f"term {term}")
    return problems
