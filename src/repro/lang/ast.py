"""Abstract syntax of the surface language.

Statements are plain frozen dataclasses; query expressions reuse the
:class:`repro.fdb.query.Query` combinators directly (the parser builds
them with ``fn``, ``*`` and ``~``), so there is no separate expression
AST to interpret.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.schema import FunctionDef
from repro.fdb.query import Query
from repro.fdb.values import Value

__all__ = [
    "Statement",
    "AddFunction",
    "Commit",
    "ShowDesign",
    "Insert",
    "Delete",
    "Replace",
    "TruthQuery",
    "ImageQuery",
    "PairsQuery",
    "Show",
    "ShowNCs",
    "Metrics",
    "Stats",
    "Trace",
    "DeadlineCmd",
    "Resolve",
    "Save",
    "Load",
    "Help",
    "Undo",
    "Redo",
    "History",
    "Worlds",
    "Probability",
    "DeclareInclusion",
    "DeclareRange",
    "DeclareCardinality",
    "Check",
    "Guard",
    "DotExport",
    "Begin",
    "End",
    "Abort",
    "Condition",
    "ForEach",
    "Explain",
    "Extent",
    "Changes",
    "DefaultQuery",
    "Retract",
    "Minimal",
    "Source",
    "LoadSchema",
]


class Statement:
    """Marker base class for statements."""


@dataclass(frozen=True)
class AddFunction(Statement):
    """``add <funcdef>`` — feed one function to the design session."""

    function: FunctionDef


@dataclass(frozen=True)
class Source(Statement):
    """``source "path"`` — execute a script file in place."""

    path: str


@dataclass(frozen=True)
class LoadSchema(Statement):
    """``schema "path"`` — add every function of a paper-notation
    schema file to the design session."""

    path: str


@dataclass(frozen=True)
class Retract(Statement):
    """``retract <name>`` — withdraw a function from the design."""

    function: str


@dataclass(frozen=True)
class Minimal(Statement):
    """``minimal`` — AMS advisory: minimal schemas of the catalog
    under the UFA."""


@dataclass(frozen=True)
class Commit(Statement):
    """``commit`` — freeze the design into a live database."""


@dataclass(frozen=True)
class ShowDesign(Statement):
    """``design`` — print base/derived split and derivations so far."""


@dataclass(frozen=True)
class Insert(Statement):
    """``insert f(x, y)``."""

    function: str
    x: Value
    y: Value


@dataclass(frozen=True)
class Delete(Statement):
    """``delete f(x, y)``."""

    function: str
    x: Value
    y: Value


@dataclass(frozen=True)
class Replace(Statement):
    """``replace f(x1, y1) with (x2, y2)``."""

    function: str
    old: tuple[Value, Value]
    new: tuple[Value, Value]


@dataclass(frozen=True)
class TruthQuery(Statement):
    """``truth f(x, y)`` — three-valued truth of one fact."""

    function: str
    x: Value
    y: Value


@dataclass(frozen=True)
class ImageQuery(Statement):
    """``query <expr>(x)`` — image of x under a functional expression."""

    query: Query
    x: Value


@dataclass(frozen=True)
class PairsQuery(Statement):
    """``pairs <expr>`` — full extension of a functional expression."""

    query: Query


@dataclass(frozen=True)
class Show(Statement):
    """``show f`` or ``show all`` — paper-style table rendering."""

    function: str | None  # None means all


@dataclass(frozen=True)
class ShowNCs(Statement):
    """``ncs`` — the live negated conjunctions."""


@dataclass(frozen=True)
class Metrics(Statement):
    """``metrics`` — the ambiguity report."""


@dataclass(frozen=True)
class Stats(Statement):
    """``stats`` — instance counts plus the observability snapshot
    (runtime counters, gauges, timings)."""


@dataclass(frozen=True)
class Trace(Statement):
    """``trace on|off|show [--dot "path"]`` — control update-propagation
    tracing.

    ``on`` enables instrumentation with span collection, ``off``
    disables tracing (metrics stay on), ``show`` re-prints the last
    recorded trace tree — with ``--dot "path"`` it instead draws that
    span tree as Graphviz DOT to the file.
    """

    mode: str  # "on" | "off" | "show"
    dot_path: str | None = None


@dataclass(frozen=True)
class DeadlineCmd(Statement):
    """``deadline [SECONDS | off]`` — per-statement execution deadline.

    ``deadline 0.5`` bounds every subsequent statement to half a
    second of wall clock (updates that overrun abort cleanly via the
    transaction machinery); ``deadline off`` removes the bound; bare
    ``deadline`` reports the current setting.
    """

    mode: str  # "set" | "off" | "show"
    seconds: float | None = None


@dataclass(frozen=True)
class Resolve(Statement):
    """``resolve`` — run FD-driven null resolution."""


@dataclass(frozen=True)
class Save(Statement):
    """``save "path"``."""

    path: str


@dataclass(frozen=True)
class Load(Statement):
    """``load "path"``."""

    path: str


@dataclass(frozen=True)
class Checkpoint(Statement):
    """``checkpoint "dir"`` — write a durable snapshot of the live
    database into the directory and attach its write-ahead log, so
    every later update is durably logged before it is applied."""

    path: str


@dataclass(frozen=True)
class Recover(Statement):
    """``recover "dir" [strict|salvage]`` — rebuild the database from
    the directory's snapshot plus write-ahead log (crash recovery)."""

    path: str
    policy: str = "strict"


@dataclass(frozen=True)
class Help(Statement):
    """``help``."""


@dataclass(frozen=True)
class Undo(Statement):
    """``undo`` — revert the most recent update."""


@dataclass(frozen=True)
class Redo(Statement):
    """``redo`` — re-apply the most recently undone update."""


@dataclass(frozen=True)
class History(Statement):
    """``history`` — list the applied updates."""


@dataclass(frozen=True)
class Worlds(Statement):
    """``worlds`` — possible-worlds analysis of the current ambiguity."""


@dataclass(frozen=True)
class Probability(Statement):
    """``prob f(x, y)`` — marginal probability under uniform worlds."""

    function: str
    x: Value
    y: Value


@dataclass(frozen=True)
class DeclareInclusion(Statement):
    """``constraint include f.col in g.col``."""

    source_function: str
    source_column: str
    target_function: str
    target_column: str


@dataclass(frozen=True)
class DeclareRange(Statement):
    """``constraint range f.col LOW HIGH`` — numeric bounds."""

    function: str
    column: str
    low: float
    high: float


@dataclass(frozen=True)
class DeclareCardinality(Statement):
    """``constraint card f per domain|range [min N] [max N]``."""

    function: str
    per: str
    minimum: int = 0
    maximum: int | None = None


@dataclass(frozen=True)
class Check(Statement):
    """``check`` — audit the instance against declared constraints."""


@dataclass(frozen=True)
class Guard(Statement):
    """``guard on|off`` — toggle constraint-guarded updates."""

    enabled: bool


@dataclass(frozen=True)
class DotExport(Statement):
    """``dot "path"`` — write the current design as Graphviz DOT."""

    path: str


@dataclass(frozen=True)
class Begin(Statement):
    """``begin`` — start collecting an atomic update sequence."""


@dataclass(frozen=True)
class End(Statement):
    """``end`` — execute the collected sequence atomically."""


@dataclass(frozen=True)
class Abort(Statement):
    """``abort`` — discard the collected sequence."""


@dataclass(frozen=True)
class DefaultQuery(Statement):
    """``default f(x, y)`` — truth under preferred-world defaults."""

    function: str
    x: Value
    y: Value


@dataclass(frozen=True)
class Changes(Statement):
    """``changes`` — the state delta of the last applied update."""


@dataclass(frozen=True)
class Extent(Statement):
    """``extent <type>`` — the observed entities of an object type."""

    type_name: str


@dataclass(frozen=True)
class Explain(Statement):
    """``explain f(x, y)`` — the evidence behind a truth verdict."""

    function: str
    x: Value
    y: Value


@dataclass(frozen=True)
class Condition:
    """One ``such that`` conjunct of a for-each query.

    ``op`` is ``"="`` (the expression's image of the entity must
    contain ``value`` as a *true* fact) or ``"contains"`` (alias with
    multi-valued reading; identical semantics, Daplex-flavoured
    spelling).
    """

    query: Query
    op: str
    value: Value


@dataclass(frozen=True)
class ForEach(Statement):
    """``for each s in student such that ... print expr, expr``.

    A Daplex-style entity loop: iterate the observed extent of an
    object type, filter by function-application conditions, and print
    the images of the surviving entities under each print expression.
    """

    variable: str
    type_name: str
    conditions: tuple[Condition, ...]
    prints: tuple[Query, ...]
