"""Hierarchical spans with structured events — update-propagation traces.

A derived ``DEL`` is a cascade: chains are enumerated, conjunctions
negated, NVCs re-truthified, base rows mutated. A :class:`Span` records
one timed region of that cascade; spans nest (``update.replace`` over
``update.delete`` over ``txn``), and carry :class:`SpanEvent` markers
for the atomic things that happen inside them — each NC created, each
chain evaluated, each base mutation.

The :class:`Tracer` folds the instrumentation's record stream into
these trees and retains the last few finished roots, so the REPL's
``trace`` command and the examples can print the tree of what an update
actually did (and :meth:`Span.to_dot` draw it)::

    update.delete function=pupil x=euclid y=john [0.21 ms]
      + chain.evaluated chain=<teach, euclid, math> . <class_list, math, john>
      + nc.created index=g1 members=2

Attribute values are rendered through
:func:`repro.fdb.values.format_value`, so indexed nulls print ``n1``
(stable across runs) rather than their repr, keeping traces diffable.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.obs.events import EventRecord

__all__ = ["SpanEvent", "Span", "Tracer"]

# Finished root spans a tracer keeps, newest last.
MAX_TRACES = 16


def format_value(value) -> str:
    # Lazy import: repro.fdb modules import repro.obs.hooks at module
    # level (the instrumentation hot-path guard), so obs modules must
    # not import repro.fdb until first use or the packages deadlock in
    # a circular import.
    from repro.fdb.values import format_value as _format_value

    return _format_value(value)


def _titled(name: str, attrs: dict, sep: str = " ") -> str:
    """``name``, then its ``key=value`` attrs when it has any."""
    rendered = " ".join(
        f"{key}={format_value(value)}" for key, value in attrs.items()
    )
    return name + sep + rendered if rendered else name


@dataclass(frozen=True)
class SpanEvent:
    """One structured marker inside a span.

    ``offset`` is seconds since the enclosing span started, so events
    order and locate themselves inside the span's duration; ``kind`` is
    the record kind, ``event`` or ``action``.
    """

    name: str
    attrs: dict
    offset: float
    kind: str = "event"

    def __str__(self) -> str:
        return "+ " + _titled(self.name, self.attrs)


@dataclass
class Span:
    """One timed, named region of work, with children and events.

    ``span_id``/``parent_id`` identify the span within its process
    (copied from its ``span.start`` record); ``cause`` names the update
    (``u1``, ...) whose propagation opened it. ``start`` is the wall
    time of that record, and event offsets count from it.
    """

    name: str
    attrs: dict = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)
    events: list[SpanEvent] = field(default_factory=list)
    start: float = 0.0
    duration: float | None = None
    span_id: int = 0
    parent_id: int | None = None
    cause: str | None = None

    @property
    def finished(self) -> bool:
        return self.duration is not None

    def walk(self):
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> list["Span"]:
        """Every descendant span (incl. self) with the given name."""
        return [span for span in self.walk() if span.name == name]

    def event_names(self) -> list[str]:
        """Event names of this span and every descendant, in tree
        order (events before child spans' events)."""
        names = [event.name for event in self.events]
        for child in self.children:
            names.extend(child.event_names())
        return names

    # -- rendering -----------------------------------------------------------

    def _header(self) -> str:
        timing = (
            f" [{self.duration * 1000:.2f} ms]"
            if self.duration is not None else " [open]"
        )
        return _titled(self.name, self.attrs) + timing

    def lines(self, indent: str = "") -> list[str]:
        out = [indent + self._header()]
        inner = indent + "  "
        for event in self.events:
            out.append(inner + str(event))
        for child in self.children:
            out.extend(child.lines(inner))
        return out

    def render(self, indent: str = "") -> str:
        """The span tree as indented text."""
        return "\n".join(self.lines(indent))

    def to_dot(self, *, name: str = "propagation") -> str:
        """The tree as DOT: a box per span, an ellipse per event or
        action hanging off its span, parent -> child edges, and the
        ``cause`` update as a diamond pointing at this span."""
        from repro.core.dot import dag_to_dot

        nodes, edges = [], []
        for span in self.walk():
            node = f"s{span.span_id}"
            label = _titled(span.name, span.attrs, "\n")
            if span.duration is not None:
                label += f"\n[{span.duration * 1000:.2f} ms]"
            nodes.append((node, label, "span"))
            for i, event in enumerate(span.events):
                nodes.append((f"{node}e{i}",
                              _titled(event.name, event.attrs, "\n"),
                              event.kind))
                edges.append((node, f"{node}e{i}", ""))
            edges.extend((node, f"s{child.span_id}", "")
                         for child in span.children)
        if self.cause is not None:
            nodes.append((f"c_{self.cause}", self.cause, "cause"))
            edges.append((f"c_{self.cause}", f"s{self.span_id}", "causes"))
        return dag_to_dot(nodes, edges, name=name)

    def to_dict(self) -> dict:
        """JSON-ready form (attribute values stringified for
        stability)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "cause": self.cause,
            "attrs": {k: format_value(v) for k, v in self.attrs.items()},
            "duration_seconds": self.duration,
            "events": [
                {"name": e.name,
                 "attrs": {k: format_value(v) for k, v in e.attrs.items()},
                 "offset_seconds": e.offset}
                for e in self.events
            ],
            "children": [child.to_dict() for child in self.children],
        }


class Tracer:
    """Span trees folded from the instrumentation's record stream.

    The tracer keeps no context of its own: while ``OBS.tracing`` is
    on, :class:`repro.obs.hooks.Instrumentation` hands it every record
    it emits (:meth:`consume`); a plain ``Tracer()`` folds a stream
    read back from a :class:`repro.obs.events.FileSink` the same way.
    A ``span.start`` opens a :class:`Span` under its ``parent_span``
    when that span is open here, or a new root otherwise; ``event``
    and ``action`` records attach to their open span; ``span.end``
    closes the span with the end record's duration and attrs. Only the
    last :data:`MAX_TRACES` finished roots are kept.

    One lock guards the open spans and the finished roots, so spans
    opened on several threads — or joined across a shipped trace
    context — fold into the right tree.
    """

    def __init__(self) -> None:
        self._open: dict[int, Span] = {}
        self._open_roots: set[int] = set()
        self._finished: list[Span] = []
        self._lock = threading.Lock()

    def consume(self, record: EventRecord) -> None:
        """Fold one record into the open trees; records outside every
        open span have no tree to join and are dropped."""
        with self._lock:
            if record.kind == "span.start":
                span = Span(record.name, record.attrs, start=record.ts,
                            span_id=record.span_id,
                            parent_id=record.parent_span,
                            cause=record.cause)
                parent = self._open.get(record.parent_span)
                if parent is None:
                    self._open_roots.add(record.span_id)
                else:
                    parent.children.append(span)
                self._open[record.span_id] = span
                return
            span = self._open.get(record.span_id)
            if span is None:
                return
            if record.kind != "span.end":
                span.events.append(SpanEvent(record.name, record.attrs,
                                             record.ts - span.start,
                                             record.kind))
                return
            del self._open[record.span_id]
            span.duration = record.duration
            span.attrs = record.attrs
            if record.span_id in self._open_roots:
                self._open_roots.remove(record.span_id)
                self._finished.append(span)
                if len(self._finished) > MAX_TRACES:
                    self._finished.pop(0)

    @property
    def traces(self) -> tuple[Span, ...]:
        """Finished root spans, oldest first."""
        with self._lock:
            return tuple(self._finished)

    @property
    def last_trace(self) -> Span | None:
        with self._lock:
            return self._finished[-1] if self._finished else None

    def reset(self) -> None:
        with self._lock:
            self._open.clear()
            self._open_roots.clear()
            self._finished.clear()
