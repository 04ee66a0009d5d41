"""The functional database: schema + stored instance + partial
information.

A :class:`FunctionalDatabase` ties together:

* the conceptual schema, split into **base** functions (each backed by an
  extensionally stored :class:`repro.fdb.table.FunctionTable`) and
  **derived** functions (each carrying one or more confirmed
  :class:`repro.core.derivation.Derivation` over base functions —
  "intensionally stored, computed using an algorithm");
* the :class:`repro.fdb.nc.NCRegistry` of live negated conjunctions;
* the :class:`repro.fdb.values.NullFactory` issuing uniquely indexed
  nulls.

It can be built directly, or from the outcome of an interactive design
session (:meth:`FunctionalDatabase.from_design`), closing the loop
between the two halves of the paper: the design aid decides *what* is
derived and *how*, and the update machinery keeps the instance
consistent with those derivations.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.errors import (
    NotABaseFunctionError,
    NotADerivedFunctionError,
    SchemaError,
    UnknownFunctionError,
)
from repro.core.derivation import Derivation
from repro.core.design_aid import DesignOutcome
from repro.core.schema import FunctionDef, Schema
from repro.fdb.logic import Truth
from repro.fdb.memo import ExtensionMemo
from repro.fdb.nc import NCRegistry
from repro.fdb.table import FunctionTable
from repro.fdb.undo import UndoLog
from repro.fdb.values import NullFactory, Value

__all__ = ["DerivedFunction", "FunctionalDatabase"]


@dataclass(frozen=True)
class DerivedFunction:
    """A derived function with its designer-confirmed derivations.

    ``derivations`` is non-empty; the first entry is the *primary*
    derivation (used when a single derivation must be chosen, e.g. for
    NVC creation in ``primary`` insert mode).
    """

    definition: FunctionDef
    derivations: tuple[Derivation, ...]

    def __post_init__(self) -> None:
        if not self.derivations:
            raise SchemaError(
                f"derived function {self.definition.name!r} needs at least "
                "one derivation"
            )
        for derivation in self.derivations:
            if not derivation.syntactically_equivalent_to(self.definition):
                raise SchemaError(
                    f"derivation {derivation} does not have the domain and "
                    f"range of {self.definition.name!r}"
                )

    @property
    def name(self) -> str:
        return self.definition.name

    @property
    def primary(self) -> Derivation:
        return self.derivations[0]

    def __str__(self) -> str:
        alts = "; ".join(str(d) for d in self.derivations)
        return f"{self.name} = {alts}"


class FunctionalDatabase:
    """Schema plus instance plus partial information.

    Parameters
    ----------
    insert_mode:
        ``"all"`` (default) makes a derived insert materialize an NVC
        for *every* confirmed derivation of the function — logical
        implication (2) of Section 3.2 holds per derivation, so each
        needs a witness chain. ``"primary"`` materializes only the first
        derivation (cheaper; the ablation benches compare the two).
    """

    def __init__(self, *, insert_mode: str = "all") -> None:
        if insert_mode not in ("all", "primary"):
            raise ValueError("insert_mode must be 'all' or 'primary'")
        self.insert_mode = insert_mode
        self.schema = Schema()
        self._tables: dict[str, FunctionTable] = {}
        self._derived: dict[str, DerivedFunction] = {}
        # The open transaction's undo records; every table, the NC
        # registry and the null factory share it by reference.
        self._undo = UndoLog()
        self.nulls = NullFactory(log=self._undo)
        # The registry looks tables up in the mapping itself: a bound
        # ``self.table`` would close a reference cycle through the
        # database, which then outlives its last user until a full
        # collection.
        self.ncs = NCRegistry(self._tables.__getitem__, log=self._undo)
        # Bumped on every schema-shaping declaration so derived caches
        # (the service's cluster map, shard routing tables) can
        # invalidate on change instead of probing for staleness.
        self.schema_version = 0
        # One open transaction per database: there is one undo log, so
        # a second writer's records (from another thread, or a nested
        # ``with db.transaction():``) would interleave with the first's
        # and be undone with them. Guarded state lives on the db so
        # every Transaction object sees the same owner.
        self._txn_guard = threading.Lock()
        self._txn_owner: int | None = None
        self._memos: dict[str, ExtensionMemo] = {}

    # -- schema construction ------------------------------------------------

    def declare_base(self, function: FunctionDef) -> FunctionTable:
        """Add a base function with an empty stored table."""
        self.schema.add(function)
        table = FunctionTable(function.name, self._undo)
        self._tables[function.name] = table
        self.schema_version += 1
        return table

    def declare_derived(
        self,
        function: FunctionDef,
        derivations: Derivation | Iterable[Derivation],
    ) -> DerivedFunction:
        """Add a derived function with its confirmed derivation(s).

        Every derivation step must reference an already-declared *base*
        function: the paper derives from base functions only (a
        derivation mentioning a derived function can always be flattened
        by inlining first).
        """
        if isinstance(derivations, Derivation):
            derivations = (derivations,)
        derivations = tuple(derivations)
        for derivation in derivations:
            for step in derivation:
                name = step.function.name
                if name in self._derived:
                    raise SchemaError(
                        f"derivation of {function.name!r} references derived "
                        f"function {name!r}; inline its derivation first"
                    )
                if name not in self._tables:
                    raise SchemaError(
                        f"derivation of {function.name!r} references "
                        f"undeclared function {name!r}"
                    )
        self.schema.add(function)
        derived = DerivedFunction(function, derivations)
        self._derived[function.name] = derived
        self._memos[function.name] = ExtensionMemo(function.name)
        self.schema_version += 1
        return derived

    @classmethod
    def from_design(cls, outcome: DesignOutcome, *,
                    insert_mode: str = "all") -> "FunctionalDatabase":
        """Build an empty database from a finished design session.

        Derived functions whose every confirmed derivation was rejected
        by the designer cannot be represented and raise
        :class:`SchemaError` — the designer must either confirm a
        derivation or re-classify the function as base.
        """
        db = cls(insert_mode=insert_mode)
        for function in outcome.base:
            db.declare_base(function)
        for function in outcome.derived:
            derivations = outcome.derivations.get(function.name, ())
            if not derivations:
                raise SchemaError(
                    f"derived function {function.name!r} has no confirmed "
                    "derivation"
                )
            db.declare_derived(function, derivations)
        return db

    # -- classification ------------------------------------------------------

    def is_base(self, name: str) -> bool:
        if name not in self._tables:  # a table's function is known
            self._check_known(name)
        return name in self._tables

    def is_derived(self, name: str) -> bool:
        self._check_known(name)
        return name in self._derived

    def _check_known(self, name: str) -> None:
        if name not in self.schema:
            raise UnknownFunctionError(name)

    @property
    def base_names(self) -> tuple[str, ...]:
        return tuple(self._tables)

    @property
    def derived_names(self) -> tuple[str, ...]:
        return tuple(self._derived)

    # -- access ------------------------------------------------------------------

    def table(self, name: str) -> FunctionTable:
        """The stored table of a base function."""
        try:
            return self._tables[name]
        except KeyError:
            if name in self._derived:
                raise NotABaseFunctionError(name) from None
            raise UnknownFunctionError(name) from None

    def derived(self, name: str) -> DerivedFunction:
        try:
            return self._derived[name]
        except KeyError:
            if name in self._tables:
                raise NotADerivedFunctionError(name) from None
            raise UnknownFunctionError(name) from None

    def memo(self, name: str) -> ExtensionMemo:
        """The maintained extension of derived function ``name``
        (:mod:`repro.fdb.memo`), made when the function is declared."""
        memo = self._memos.get(name)
        if memo is None:
            self.derived(name)  # an unknown or base name raises here
        return memo

    def _hand_off(self, records: list | tuple = ()) -> None:
        """Give every memo ``records`` and what waits in ``standing``."""
        standing = self._undo.standing
        if standing:  # copy only when a change waits
            records = [*standing, *records]
            standing.clear()
        elif standing is None or not records:  # None: no memo is kept
            return
        for memo in self._memos.values():  # fixed once declared
            memo.take(records, self._tables)

    def _stand(self) -> None:
        """Keep a standing record list from now on: a memo is kept."""
        with self._txn_guard:  # an open transaction restores it at exit
            if self._undo.standing is None:
                self._undo.standing = []
                if self._txn_owner is None:
                    self._undo.records = self._undo.standing

    def tables(self) -> Iterator[FunctionTable]:
        return iter(tuple(self._tables.values()))

    def derived_functions(self) -> Iterator[DerivedFunction]:
        return iter(tuple(self._derived.values()))

    # -- instance loading -----------------------------------------------------------

    def load(self, name: str,
             pairs: Iterable[tuple[Value, Value]]) -> None:
        """Bulk-load true facts into a base table (initial instance)."""
        table = self.table(name)
        for x, y in pairs:
            table.add_pair(x, y, Truth.TRUE)

    def load_instance(
        self, instance: dict[str, Iterable[tuple[Value, Value]]]
    ) -> None:
        for name, pairs in instance.items():
            self.load(name, pairs)

    # -- convenience update/query front door -------------------------------------
    #
    # The real work lives in repro.fdb.updates / repro.fdb.evaluate; these
    # methods are the public one-stop API. Imports are local to avoid an
    # import cycle (updates and evaluate import this module's types).

    def insert(self, name: str, x: Value, y: Value) -> None:
        """INS(f, <x, y>), dispatching on base vs derived."""
        from repro.fdb import updates

        updates.insert(self, name, x, y)

    def delete(self, name: str, x: Value, y: Value) -> None:
        """DEL(f, <x, y>), dispatching on base vs derived."""
        from repro.fdb import updates

        updates.delete(self, name, x, y)

    def replace(self, name: str, old: tuple[Value, Value],
                new: tuple[Value, Value]) -> None:
        """REP(f, <x1, y1>, <x2, y2>): an atomic delete-insert pair."""
        from repro.fdb import updates

        updates.replace(self, name, old, new)

    def truth_of(self, name: str, x: Value, y: Value) -> Truth:
        """Truth value of the fact ``name(x) = y`` under Section 3.2."""
        from repro.fdb import evaluate

        return evaluate.truth_of(self, name, x, y)

    def extension(self, name: str) -> dict[tuple[Value, Value], Truth]:
        """The visible extension of a function: stored facts for base
        functions, derivable facts (true or ambiguous) for derived
        ones."""
        from repro.fdb import evaluate

        if self.is_base(name):
            return {
                fact.pair: fact.truth for fact in self.table(name).facts()
            }
        return evaluate.derived_extension(self, name)

    def transaction(self):
        """An atomic update scope; see :mod:`repro.fdb.transaction`."""
        from repro.fdb.transaction import Transaction

        return Transaction(self)

    def extent(self, type_name: str) -> tuple[Value, ...]:
        """The observed extent of an object type: every non-null value
        appearing in a column of that type, in first-appearance order.

        Functional data models attach entities to types; this library
        stores only facts, so the extent is the set of entities the
        database has ever mentioned — what a Daplex ``for each`` loop
        iterates (see the surface language's for-each statement).
        """
        from repro.fdb.values import is_null

        seen: dict[Value, None] = {}
        for name in self.base_names:
            definition = self.schema[name]
            table = self._tables[name]
            if definition.domain.name == type_name:
                for fact in table.facts():
                    if not is_null(fact.x):
                        seen.setdefault(fact.x)
            if definition.range.name == type_name:
                for fact in table.facts():
                    if not is_null(fact.y):
                        seen.setdefault(fact.y)
        return tuple(seen)

    # -- statistics --------------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Fact / NC / null bookkeeping counts (used by the metrics and
        the benches)."""
        stored = sum(len(t) for t in self._tables.values())
        ambiguous = sum(
            1
            for t in self._tables.values()
            for fact in t.facts()
            if fact.truth is Truth.AMBIGUOUS
        )
        return {
            "stored_facts": stored,
            "ambiguous_facts": ambiguous,
            "true_facts": stored - ambiguous,
            "ncs": len(self.ncs),
            "next_null_index": self.nulls.next_index,
        }

    def structure_fault(
            self, records: list[tuple] | None = None) -> str | None:
        """The first contradiction in the stored structure, or None:
        a table's indices against its facts
        (:meth:`FunctionTable.fault`), Section 4's NC <-> NCL pairing
        in both directions — an NC's members are stored, ambiguous and
        point back at it; a fact's NCL names only live NCs that list
        the fact — and both index counters ahead of everything stored.

        Called bare it looks at every table and every NC:
        O(instance). Called with a transaction's undo ``records``
        (:attr:`repro.fdb.transaction.Transaction.records`) it looks
        at what they name: each table that owns a ``"fact"`` or
        ``"ncl"`` record, whole, and each still-live NC of an ``"nc"``
        or ``"ncl"`` record. Every mutation primitive records the
        table it writes, so a table no record names is as the last
        bare call found it."""
        if records is None:
            tables, ncs = self._tables.values(), self.ncs
        else:
            # Dicts, not sets: first-seen order, so the first fault
            # named does not depend on hashing.
            tables, named = {}, {}
            for owner, op, *change in records:
                if op == "fact":
                    tables[owner] = None
                elif op == "ncl":
                    tables[owner] = None
                    named[change[1]] = None
                elif op == "nc":
                    named[change[0]] = None
            ncs = [self.ncs.get(index) for index in named
                   if index in self.ncs]
        next_nc, next_null = self.ncs.next_index, self.nulls.next_index
        for nc in ncs:
            if nc.index >= next_nc:
                return (f"NC g{nc.index} is at or past the NC counter "
                        f"g{next_nc}")
            for ref in nc.members:
                fact = self.table(ref.function).get(ref.x, ref.y)
                if fact is None:
                    return f"NC g{nc.index} references missing fact {ref}"
                if nc.index not in fact.ncl:
                    return f"fact {ref} lacks NCL entry g{nc.index}"
                if fact.truth is not Truth.AMBIGUOUS:
                    return f"NC member {ref} is not ambiguous"
        for table in tables:
            name = table.name
            fault = table.fault()
            if fault is not None:
                return fault
            for null in (*(fact.x for fact in table.null_x_facts()),
                         *(fact.y for fact in table.null_y_facts())):
                if null.index >= next_null:
                    return (f"{name}: stored null {null} is at or past "
                            f"the null counter n{next_null}")
            for fact in table.facts():
                for index in fact.ncl:
                    if (index not in self.ncs or fact.ref(name)
                            not in self.ncs.get(index).members):
                        return (f"fact {fact.ref(name)} points to NC "
                                f"g{index}, which does not list it")
        return None

    def stats(self, *, wal=None) -> dict:
        """Instance counts merged with the process-wide observability
        snapshot (metrics, flags) — what the REPL's ``stats``
        command and the bench JSON exports print. Import is local to
        avoid a cycle (obs.export has no fdb imports, but keeping the
        front door lazy matches the update/query methods above).

        ``wal`` (an :class:`repro.fdb.wal.UpdateLog`, optional) folds
        that log's :meth:`health <repro.fdb.wal.UpdateLog.health>`
        verdict — applied sequence, term, torn-tail flag, checksum
        failures — into the payload under ``"wal"``."""
        from repro.obs.hooks import OBS

        snapshot = OBS.snapshot()
        snapshot["instance"] = self.counts()
        if wal is not None:
            snapshot["wal"] = wal.health()
        return snapshot

    def __str__(self) -> str:
        lines = [f"FunctionalDatabase ({len(self._tables)} base, "
                 f"{len(self._derived)} derived)"]
        for table in self._tables.values():
            lines.append(str(table))
        for derived in self._derived.values():
            lines.append(f"{derived} (derived)")
        return "\n".join(lines)
