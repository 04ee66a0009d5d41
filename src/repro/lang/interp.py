"""Interpreter for the surface language.

An :class:`Interpreter` owns a design session and (after ``commit``) a
live :class:`repro.fdb.database.FunctionalDatabase`, and executes
parsed statements against them, returning printable output lines.
The REPL wraps it with an interactive designer; tests drive it with
scripted or automatic designers.

Lifecycle: ``add`` statements feed the design session; the first data
statement after the last ``add`` triggers an implicit ``commit`` (with
a notice), or ``commit`` may be issued explicitly. After a commit,
further ``add`` statements start a *new* design round seeded with the
existing catalog — committing again carries the instance into the new
schema (:func:`repro.fdb.persistence.carry`).
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

from repro.cancel import deadline_scope
from repro.errors import DesignError, PersistenceError, ReproError
from repro.core.design_aid import AutoDesigner, Designer, DesignSession
from repro.core.dot import design_to_dot
from repro.fdb import persistence, worlds
from repro.fdb.ambiguity import measure
from repro.fdb.constraints import resolve_nulls
from repro.fdb.database import FunctionalDatabase
from repro.fdb.integrity import (
    CardinalityConstraint,
    ConstraintSet,
    DomainConstraint,
    InclusionDependency,
)
from repro.fdb.journal import Journal
from repro.fdb.logic import Truth
from repro.fdb.render import render_state
from repro.fdb.updates import Update, UpdateSequence, apply_entry
from repro.fdb.values import Value
from repro.fdb.wal import LoggedDatabase, UpdateLog, checkpoint, recover
from repro.obs.export import render_stats
from repro.obs.hooks import OBS
from repro.lang import ast
from repro.lang.parser import parse_program

__all__ = ["Interpreter", "HELP_TEXT"]

HELP_TEXT = """\
Design:
  add <f>: <type> -> <type> [(one-one|one-many|many-one|many-many)]
  design                 show base/derived split so far
  retract <f>            withdraw a function from the design
  minimal                AMS advisory: minimal schemas under the UFA
  commit                 freeze the design into a live database
Updates:
  insert f(x, y)         INS(f, <x, y>)
  delete f(x, y)         DEL(f, <x, y>)
  replace f(x1, y1) with (x2, y2)
  begin                  start an atomic update sequence
  end / abort            run it as one journal entry / discard it
  undo / redo / history  step through the update journal
  changes                the state delta of the last update
Queries:
  show f | show all      paper-style tables (ambiguous facts flagged)
  truth f(x, y)          three-valued truth of one fact
  explain f(x, y)        the chains/flags/NCs behind the verdict
  prob f(x, y)           probability under uniform possible worlds
  default f(x, y)        truth under preferred-world defaults
  query <expr>(x)        image of x;  expr uses 'o' and '^-1'
  pairs <expr>           full extension of an expression
  extent <type>          observed entities of an object type
  for each v in <type> [such that <expr>(v) = val and ...]
      print <expr>, ...  Daplex-style entity loop
Inspection:
  ncs                    live negated conjunctions
  metrics                degree-of-ambiguity report
  stats                  runtime counters and timings
  trace on | off | show  update-propagation span trees
  trace show --dot "path"
                         write the last trace's propagation DAG as DOT
  deadline 0.5 | off     bound each statement to 0.5 s of wall clock
  worlds                 possible-worlds analysis (counts + marginals)
Constraints:
  constraint include f.domain in g.range
  constraint range f.range 0 100
  constraint card f per domain max 30
  check                  audit the instance
  guard on | off         auto-undo updates that violate constraints
Maintenance:
  resolve                FD-driven null resolution
  save "path" / load "path"
  checkpoint "dir"       durable snapshot + write-ahead log in dir
  recover "dir" [strict|salvage]
                         rebuild from snapshot + log after a crash
  source "path"          run a script file
  schema "path"          add a paper-notation schema file
  dot "path"             export the design as Graphviz DOT
  help                   this list
Values: names, numbers, "strings", and (a, b) tuples for product types."""


class Interpreter:
    """Executes surface-language statements.

    Parameters
    ----------
    designer:
        Drives Method 2.1 decisions for ``add`` statements and vets
        derivations at ``commit``; defaults to :class:`AutoDesigner`.
    on_notice:
        Callback for incidental notices (implicit commits, cycle
        reports); defaults to collecting them into the output.
    """

    def __init__(self, designer: Designer | None = None,
                 on_notice: Callable[[str], None] | None = None) -> None:
        self.designer = designer or AutoDesigner()
        self.session = DesignSession(self.designer)
        self.db: FunctionalDatabase | None = None
        self.journal: Journal | None = None
        self.wal = None  # UpdateLog attached by checkpoint/recover
        self._wal_snapshot = None  # its snapshot path
        self.constraints = ConstraintSet()
        self.guard_enabled = False
        self._pending: list[Update] | None = None  # open begin-block
        self._design_dirty = False
        self._notice = on_notice
        self.deadline_seconds: float | None = None

    # -- public API ----------------------------------------------------------

    def execute(self, text: str) -> list[str]:
        """Parse and run a script; returns the output lines.

        Errors abort the remainder of the script and are reported as an
        ``error:`` line (the REPL keeps running; library callers who
        want exceptions can use :meth:`run`).
        """
        output: list[str] = []
        try:
            for statement in parse_program(text):
                output.extend(self.run(statement))
        except ReproError as exc:
            output.append(f"error: {exc}")
        return output

    def run(self, statement: ast.Statement) -> list[str]:
        """Execute one parsed statement, raising on errors."""
        handler = getattr(
            self, f"_run_{type(statement).__name__.lower()}", None
        )
        if handler is None:
            raise DesignError(
                f"no handler for statement {type(statement).__name__}"
            )
        if (self.deadline_seconds is None
                or isinstance(statement, ast.DeadlineCmd)):
            return handler(statement)
        # An overrunning update raises DeadlineExceeded from inside the
        # engine's transaction scope, so the rollback has already run
        # by the time the error surfaces here.
        with deadline_scope(self.deadline_seconds):
            return handler(statement)

    def close(self) -> None:
        """Release the write-ahead log ``checkpoint`` / ``recover``
        attached (its append descriptor); the session's state stays."""
        self._attach_wal(None, None)

    # -- design ------------------------------------------------------------------

    def _run_addfunction(self, statement: ast.AddFunction) -> list[str]:
        mark = len(self.session.log)
        self.session.add(statement.function)
        self._design_dirty = True
        output = [f"added {statement.function}"]
        for event in self.session.log[mark:]:
            if event.kind == "cycle":
                assert event.report is not None
                output.append(event.report.describe())
            elif event.kind == "removed":
                output.append(
                    f"  -> {event.function} classified as derived"
                )
            elif event.kind == "kept":
                output.append("  -> cycle kept (no edge removed)")
        return output

    def _run_showdesign(self, statement: ast.ShowDesign) -> list[str]:
        return self.session.finish().summary().splitlines()

    def _run_source(self, statement: ast.Source) -> list[str]:
        text = self._read_file(statement.path)
        output = [f"sourcing {statement.path}"]
        for parsed in parse_program(text):
            output.extend(self.run(parsed))
        return output

    def _run_loadschema(self, statement: ast.LoadSchema) -> list[str]:
        from repro.core.schema_text import parse_schema

        text = self._read_file(statement.path)
        output = [f"loading schema {statement.path}"]
        for function in parse_schema(text):
            output.extend(self.run(ast.AddFunction(function)))
        return output

    @staticmethod
    def _read_file(path: str) -> str:
        try:
            return Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise PersistenceError(f"cannot read {path}: {exc}") from exc

    def _run_retract(self, statement: ast.Retract) -> list[str]:
        function = self.session.retract(statement.function)
        self._design_dirty = True
        return [f"retracted {function}"]

    def _run_minimal(self, statement: ast.Minimal) -> list[str]:
        from repro.core.minimal_schema import all_minimal_schemas

        catalog = self.session.catalog
        if len(catalog) == 0:
            return ["(no functions added yet)"]
        schemas = all_minimal_schemas(catalog)
        output = [
            f"under the UFA, {len(catalog)} functions admit "
            f"{len(schemas)} minimal schema(s):"
        ]
        for index, minimal in enumerate(schemas, start=1):
            output.append(
                f"  {index}. base = {{{', '.join(minimal.names)}}}"
            )
        output.append(
            "(advisory only -- the UFA may not hold; your designer "
            "decisions stand)"
        )
        return output

    def _run_commit(self, statement: ast.Commit) -> list[str]:
        return self._commit()

    def _commit(self) -> list[str]:
        outcome = self.session.finish()
        old, orphaned = self.db, []
        if old is None:
            new_db = FunctionalDatabase.from_design(outcome)
        else:
            # A re-design keeps the data it can (see persistence.carry).
            new_db = persistence.carry(old, outcome)
            # A function re-classified base -> derived keeps no table;
            # report its stored facts that the new derivation cannot
            # reproduce, so the designer can re-assert what matters.
            for name in old.base_names:
                if name in new_db.derived_names:
                    for fact in old.table(name).facts():
                        if new_db.truth_of(
                            name, fact.x, fact.y
                        ) is not Truth.TRUE:
                            orphaned.append(
                                f"<{name}, {fact.x}, {fact.y}>"
                            )
        self.db = new_db
        self.journal = Journal(new_db)
        self._design_dirty = False
        lines = [
            "committed: "
            f"{len(outcome.base)} base, {len(outcome.derived)} derived"
        ]
        carried = sum(map(len, new_db.tables()))
        if carried:
            lines.append(f"carried {carried} stored facts forward")
        if orphaned:
            lines.append(
                f"warning: {len(orphaned)} stored facts of re-classified "
                "functions are not derivable in the new design: "
                + ", ".join(orphaned[:5])
                + (" ..." if len(orphaned) > 5 else "")
            )
            lines.append(
                "  (re-insert the ones that should hold; derived "
                "inserts will materialize null-valued chains)"
            )
        lines.extend(self._refresh_wal())
        return lines

    def _require_db(self) -> tuple[FunctionalDatabase, list[str]]:
        notices: list[str] = []
        if self.db is None or self._design_dirty:
            notices = ["(implicit commit)"] + self._commit()
        assert self.db is not None
        return self.db, notices

    # -- updates --------------------------------------------------------------------

    def _apply(self, entry: Update | UpdateSequence) -> list[str]:
        """Run one journal ``entry`` (an update, or an ``end`` block's
        sequence) in a transaction of its own and record it in the
        journal. The apply goes through the guard when it is on; with
        a checkpoint directory attached the transaction is
        :meth:`repro.fdb.wal.LoggedDatabase.committing`'s, so a guard
        refusal, a failed apply or a structure fault rolls back there
        and the logged entry is compensated. Inside an open ``begin``
        block the update is queued instead."""
        if self._pending is not None:
            self._pending.append(entry)
            return [f"queued: {entry}"]
        db, output = self._require_db()
        assert self.journal is not None
        traces_before = len(OBS.tracer.traces) if OBS.tracing else 0
        apply = (self.constraints.guarded if self.guard_enabled
                 else apply_entry)
        if self.wal is None:
            with db.transaction() as txn:
                records = txn.records
                apply(db, entry)
        else:
            logged = LoggedDatabase(db, self.wal)
            with logged.committing(entry) as (_, txn):
                records = txn.records
                apply(db, entry)
        self.journal.record(entry, records)
        output.append(f"ok: {entry}")
        output.extend(self._trace_lines(traces_before))
        return output

    def _trace_lines(self, traces_before: int) -> list[str]:
        """Span trees recorded since ``traces_before`` (tracing only)."""
        if not OBS.tracing:
            return []
        lines: list[str] = []
        for span in OBS.tracer.traces[traces_before:]:
            lines.extend(span.lines("  "))
        return lines

    def _run_insert(self, statement: ast.Insert) -> list[str]:
        return self._apply(
            Update.ins(statement.function, statement.x, statement.y)
        )

    def _run_delete(self, statement: ast.Delete) -> list[str]:
        return self._apply(
            Update.delete(statement.function, statement.x, statement.y)
        )

    def _run_replace(self, statement: ast.Replace) -> list[str]:
        return self._apply(
            Update.rep(statement.function, statement.old, statement.new)
        )

    def _run_undo(self, statement: ast.Undo) -> list[str]:
        _, output = self._require_db()
        assert self.journal is not None
        undone = self.journal.undo()
        output.append(f"undone: {undone}")
        output.extend(self._refresh_wal())
        return output

    def _run_redo(self, statement: ast.Redo) -> list[str]:
        _, output = self._require_db()
        assert self.journal is not None
        redone = self.journal.redo()
        output.append(f"redone: {redone}")
        output.extend(self._refresh_wal())
        return output

    def _refresh_wal(self) -> list[str]:
        """Re-checkpoint the attached directory after a verb that
        rewrites the instance outside the log — undo, redo, resolve, a
        re-design ``commit``: replaying the old log over the old
        snapshot would not give the live state. Folding the state into
        a fresh snapshot restores snapshot + log = live state."""
        if self.wal is None or self._wal_snapshot is None:
            return []
        assert self.db is not None
        checkpoint(LoggedDatabase(self.db, self.wal), self._wal_snapshot)
        return ["checkpoint refreshed (snapshot + log match the live "
                "state)"]

    def _run_begin(self, statement: ast.Begin) -> list[str]:
        if self._pending is not None:
            raise DesignError("a begin block is already open")
        self._pending = []
        return ["begin: collecting an atomic update sequence"]

    def _run_end(self, statement: ast.End) -> list[str]:
        if self._pending is None:
            raise DesignError("no begin block is open")
        pending, self._pending = self._pending, None
        if not pending:
            return ["end: empty sequence, nothing to do"]
        return self._apply(UpdateSequence(tuple(pending)))

    def _run_abort(self, statement: ast.Abort) -> list[str]:
        if self._pending is None:
            raise DesignError("no begin block is open")
        count = len(self._pending)
        self._pending = None
        return [f"aborted: discarded {count} queued updates"]

    def _run_history(self, statement: ast.History) -> list[str]:
        _, output = self._require_db()
        assert self.journal is not None
        output.extend(self.journal.describe().splitlines())
        return output

    # -- queries --------------------------------------------------------------------------

    def _run_truthquery(self, statement: ast.TruthQuery) -> list[str]:
        db, output = self._require_db()
        truth = db.truth_of(statement.function, statement.x, statement.y)
        output.append(
            f"{statement.function}({statement.x}) = {statement.y}: {truth}"
        )
        return output

    def _run_imagequery(self, statement: ast.ImageQuery) -> list[str]:
        db, output = self._require_db()
        image = statement.query.image(db, statement.x)
        if not image:
            output.append("(empty)")
            return output
        for y, truth in image.items():
            star = " *" if truth is Truth.AMBIGUOUS else ""
            output.append(f"  {y}{star}")
        return output

    def _run_pairsquery(self, statement: ast.PairsQuery) -> list[str]:
        db, output = self._require_db()
        pairs = statement.query.pairs(db)
        if not pairs:
            output.append("(empty)")
            return output
        for (x, y), truth in pairs.items():
            star = " *" if truth is Truth.AMBIGUOUS else ""
            output.append(f"  <{x}, {y}>{star}")
        return output

    def _run_changes(self, statement: ast.Changes) -> list[str]:
        _, output = self._require_db()
        assert self.journal is not None
        output.extend(self.journal.last_change().describe().splitlines())
        return output

    def _run_extent(self, statement: ast.Extent) -> list[str]:
        db, output = self._require_db()
        entities = db.extent(statement.type_name)
        if not entities:
            output.append(f"(no {statement.type_name} entities)")
            return output
        output.append(
            f"{statement.type_name}: "
            + ", ".join(str(e) for e in entities)
        )
        return output

    def _run_explain(self, statement: ast.Explain) -> list[str]:
        from repro.fdb.explain import explain

        db, output = self._require_db()
        explanation = explain(
            db, statement.function, statement.x, statement.y
        )
        output.extend(explanation.describe().splitlines())
        return output

    def _run_foreach(self, statement: ast.ForEach) -> list[str]:
        db, output = self._require_db()
        entities = db.extent(statement.type_name)
        if not entities:
            output.append(
                f"(no {statement.type_name} entities in the database)"
            )
            return output
        shown = 0
        for entity in entities:
            if not all(
                self._condition_holds(db, condition, entity)
                for condition in statement.conditions
            ):
                continue
            shown += 1
            cells = []
            for query in statement.prints:
                image = query.image(db, entity)
                rendered = ", ".join(
                    f"{y}{'*' if truth is Truth.AMBIGUOUS else ''}"
                    for y, truth in image.items()
                ) or "-"
                cells.append(f"{query} = {{{rendered}}}")
            output.append(f"  {entity}: " + "; ".join(cells))
        if shown == 0:
            output.append("(no entities satisfy the conditions)")
        return output

    def _condition_holds(self, db, condition: ast.Condition,
                         entity: Value) -> bool:
        # '=' and 'contains' both ask: is value truly in the image?
        return condition.query.truth(
            db, entity, condition.value
        ) is Truth.TRUE

    def _run_show(self, statement: ast.Show) -> list[str]:
        db, output = self._require_db()
        if statement.function is None:
            output.extend(render_state(db).splitlines())
            return output
        name = statement.function
        if db.is_base(name):
            output.extend(render_state(db, (name,), ()).splitlines())
        else:
            output.extend(render_state(db, (), (name,)).splitlines())
        return output

    def _run_showncs(self, statement: ast.ShowNCs) -> list[str]:
        db, output = self._require_db()
        output.extend(str(db.ncs).splitlines())
        return output

    def _run_metrics(self, statement: ast.Metrics) -> list[str]:
        db, output = self._require_db()
        output.extend(str(measure(db)).splitlines())
        return output

    # -- observability -------------------------------------------------------------

    def _run_stats(self, statement: ast.Stats) -> list[str]:
        db, output = self._require_db()
        output.extend(
            render_stats(db.stats(wal=self.wal)).splitlines()
        )
        return output

    def _run_trace(self, statement: ast.Trace) -> list[str]:
        if statement.mode == "on":
            OBS.enable(tracing=True)
            return ["trace on: updates will print propagation span "
                    "trees (metrics collection enabled too)"]
        if statement.mode == "off":
            # Tracing off but metrics stay on, so 'stats' keeps working.
            OBS.enable(tracing=False)
            return ["trace off (metrics still collecting; 'stats' "
                    "shows them)"]
        last = OBS.tracer.last_trace
        if last is None:
            return ["(no trace recorded -- run 'trace on' and then an "
                    "update)"]
        if statement.dot_path is not None:
            Path(statement.dot_path).write_text(
                last.to_dot(name="trace") + "\n", encoding="utf-8"
            )
            return [f"wrote propagation DAG ({len(list(last.walk()))} "
                    f"spans) to {statement.dot_path}"]
        return last.lines("  ")

    def _run_deadlinecmd(self, statement: ast.DeadlineCmd) -> list[str]:
        if statement.mode == "set":
            self.deadline_seconds = statement.seconds
            return [f"deadline: statements limited to "
                    f"{statement.seconds}s"]
        if statement.mode == "off":
            self.deadline_seconds = None
            return ["deadline off"]
        if self.deadline_seconds is None:
            return ["deadline off -- set one with 'deadline 0.5'"]
        return [f"deadline: {self.deadline_seconds}s per statement"]

    # -- maintenance -----------------------------------------------------------------------

    def _run_resolve(self, statement: ast.Resolve) -> list[str]:
        db, output = self._require_db()
        substitutions = resolve_nulls(db)
        if not substitutions:
            output.append("nothing to resolve")
        for substitution in substitutions:
            output.append(f"resolved: {substitution}")
        if substitutions:
            # Resolution is not an Update, so the journal did not see
            # it: its recorded undo steps no longer fit the instance.
            assert self.journal is not None
            self.journal.clear()
            output.append("undo history cleared")
            output.extend(self._refresh_wal())
        return output

    def _run_save(self, statement: ast.Save) -> list[str]:
        db, output = self._require_db()
        persistence.save(db, statement.path)
        output.append(f"saved to {statement.path}")
        return output

    def _run_load(self, statement: ast.Load) -> list[str]:
        self._adopt_database(persistence.load(statement.path))
        output = [f"loaded {statement.path}"]
        if self.wal is not None:
            # The attached log described the *previous* state; keeping
            # it would replay stale updates over the loaded one.
            self._attach_wal(None, None)
            output.append("write-ahead log detached (run 'checkpoint' "
                          "to re-attach)")
        return output

    def _adopt_database(self, db: FunctionalDatabase) -> None:
        """Install a database from disk and rebuild the design session
        to mirror its schema, so a later 'add' continues from it."""
        self.db = db
        self.journal = Journal(db)
        self._design_dirty = False
        self.session = DesignSession(self.designer)
        for name in db.base_names:
            self.session.catalog.add(db.schema[name])
            self.session.graph.add(db.schema[name])
        for derived in db.derived_functions():
            self.session.catalog.add(derived.definition)

    def _attach_wal(self, log, snapshot) -> None:
        """Swap the attached log (``None`` detaches), releasing the
        replaced one's descriptor."""
        if self.wal is not None and self.wal is not log:
            self.wal.close()
        self.wal = log
        self._wal_snapshot = snapshot

    def _run_checkpoint(self, statement: ast.Checkpoint) -> list[str]:
        db, output = self._require_db()
        directory = Path(statement.path)
        directory.mkdir(parents=True, exist_ok=True)
        snapshot = directory / "snapshot.json"
        log = self.wal
        if log is None or Path(log.path).parent != directory:
            log = UpdateLog(directory / "wal.log")
        checkpoint(LoggedDatabase(db, log), snapshot)
        self._attach_wal(log, snapshot)
        output.append(
            f"checkpoint: snapshot + log in {directory} "
            "(updates are now logged write-ahead)"
        )
        return output

    def _run_recover(self, statement: ast.Recover) -> list[str]:
        directory = Path(statement.path)
        report = recover(
            directory / "snapshot.json", directory / "wal.log",
            policy=statement.policy,
        )
        self._adopt_database(report.db)
        self._attach_wal(UpdateLog(directory / "wal.log"),
                         directory / "snapshot.json")
        output = [str(report)]
        output.extend(f"  {note}" for note in report.notes)
        output.append(f"recovered from {directory} (log re-attached)")
        return output

    def _run_help(self, statement: ast.Help) -> list[str]:
        return HELP_TEXT.splitlines()

    # -- possible worlds ----------------------------------------------------------

    def _run_worlds(self, statement: ast.Worlds) -> list[str]:
        db, output = self._require_db()
        output.extend(str(worlds.analyze(db)).splitlines())
        return output

    def _run_defaultquery(self, statement: ast.DefaultQuery) -> list[str]:
        db, output = self._require_db()
        verdict = worlds.default_truth(
            db, statement.function, statement.x, statement.y
        )
        output.append(
            f"{statement.function}({statement.x}) = {statement.y} "
            f"by default: {verdict}"
        )
        return output

    def _run_probability(self, statement: ast.Probability) -> list[str]:
        db, output = self._require_db()
        probability = worlds.marginal(
            db, statement.function, statement.x, statement.y
        )
        output.append(
            f"P({statement.function}({statement.x}) = {statement.y}) "
            f"= {probability:.3f}"
        )
        return output

    # -- integrity constraints -------------------------------------------------------

    def _run_declareinclusion(
        self, statement: ast.DeclareInclusion
    ) -> list[str]:
        constraint = InclusionDependency(
            statement.source_function, statement.source_column,
            statement.target_function, statement.target_column,
        )
        self.constraints.add(constraint)
        return [f"declared: {constraint.name}"]

    def _run_declarerange(self, statement: ast.DeclareRange) -> list[str]:
        low, high = statement.low, statement.high
        constraint = DomainConstraint(
            statement.function, statement.column,
            lambda v: isinstance(v, (int, float)) and low <= v <= high,
            description=f"in [{low}, {high}]",
        )
        self.constraints.add(constraint)
        return [f"declared: {constraint.name}"]

    def _run_declarecardinality(
        self, statement: ast.DeclareCardinality
    ) -> list[str]:
        constraint = CardinalityConstraint(
            statement.function, statement.per,
            statement.minimum, statement.maximum,
        )
        self.constraints.add(constraint)
        return [f"declared: {constraint.name}"]

    def _run_check(self, statement: ast.Check) -> list[str]:
        db, output = self._require_db()
        violations = self.constraints.check(db)
        if not violations:
            output.append(
                f"ok: all {len(self.constraints)} constraints hold"
            )
        for violation in violations:
            output.append(f"violation: {violation}")
        return output

    def _run_guard(self, statement: ast.Guard) -> list[str]:
        self.guard_enabled = statement.enabled
        return [f"guard {'on' if statement.enabled else 'off'}"]

    # -- export ----------------------------------------------------------------------

    def _run_dotexport(self, statement: ast.DotExport) -> list[str]:
        outcome = self.session.finish()
        Path(statement.path).write_text(
            design_to_dot(outcome), encoding="utf-8"
        )
        return [f"wrote DOT design to {statement.path}"]
