"""Extensionally stored function tables.

"Base functions are usually extensionally stored (i.e., stored
internally as a table)" (Section 1). A :class:`FunctionTable` holds the
fact quadruples of one base function, keyed by pair, with secondary
indices by domain value and by range value (composition walks forward
through the domain index and inverse steps walk the range index).

Because chain matching needs to find not only the facts whose endpoint
*equals* a value but also those that match it *ambiguously* (one side a
null), the table additionally tracks which stored facts carry a null in
each column.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterator

from repro.errors import UpdateError
from repro.fdb.facts import NO_NCS, Fact
from repro.fdb.logic import Truth
from repro.fdb.undo import UndoLog
from repro.fdb.values import NullValue, Value, is_null

__all__ = ["FunctionTable"]


class FunctionTable:
    """The stored extension of one base function.

    Every change to the table or to one of its facts goes through the
    primitives below, which append the change to ``log`` whenever it
    holds a record list (see :mod:`repro.fdb.undo`).
    """

    def __init__(self, name: str, log: UndoLog | None = None) -> None:
        self.name = name
        self._log = log if log is not None else UndoLog()
        self._next_seq = 0
        self._facts: dict[tuple[Value, Value], Fact] = {}
        self._by_x: dict[Value, list[Fact]] = {}
        self._by_y: dict[Value, list[Fact]] = {}
        self._null_x: list[Fact] = []
        self._null_y: list[Fact] = []

    # -- row maintenance -----------------------------------------------------

    def add(self, fact: Fact) -> Fact:
        """Store a fact; the pair must not already be present."""
        if fact.pair in self._facts:
            raise UpdateError(
                f"{self.name}: fact <{fact.x}, {fact.y}> already stored"
            )
        fact.seq = self._next_seq
        self._next_seq += 1
        records = self._log.records
        if records is not None:
            records.append((self, "fact", fact, None, fact.truth))
        self._index(fact)
        return fact

    def add_pair(self, x: Value, y: Value,
                 truth: Truth = Truth.TRUE) -> Fact:
        return self.add(Fact(x, y, truth))

    def discard(self, x: Value, y: Value) -> Fact | None:
        """Remove and return the fact for (x, y), or None if absent."""
        fact = self._facts.get((x, y))
        if fact is None:
            return None
        records = self._log.records
        if records is not None:
            records.append((self, "fact", fact, fact.truth, None))
        self._unindex(fact)
        return fact

    def set_truth(self, fact: Fact, truth: Truth) -> None:
        """Flip a stored fact's T/A flag."""
        if fact.truth is truth:
            return
        records = self._log.records
        if records is not None:
            records.append((self, "fact", fact, fact.truth, truth))
        fact.truth = truth

    def ncl_add(self, fact: Fact, index: int) -> None:
        """Add NC ``index`` to a stored fact's NCL."""
        if index in fact.ncl:
            return
        records = self._log.records
        if records is not None:
            records.append((self, "ncl", fact, index, True))
        fact.ncl = fact.ncl | {index}

    def ncl_discard(self, fact: Fact, index: int) -> None:
        """Drop NC ``index`` from a stored fact's NCL."""
        if index not in fact.ncl:
            return
        records = self._log.records
        if records is not None:
            records.append((self, "ncl", fact, index, False))
        fact.ncl = fact.ncl - {index} or NO_NCS

    def _index(self, fact: Fact) -> None:
        self._facts[fact.pair] = fact
        self._by_x.setdefault(fact.x, []).append(fact)
        self._by_y.setdefault(fact.y, []).append(fact)
        if is_null(fact.x):
            self._null_x.append(fact)
        if is_null(fact.y):
            self._null_y.append(fact)

    def _unindex(self, fact: Fact) -> None:
        x, y = fact.pair
        del self._facts[fact.pair]
        self._by_x[x].remove(fact)
        if not self._by_x[x]:
            del self._by_x[x]
        self._by_y[y].remove(fact)
        if not self._by_y[y]:
            del self._by_y[y]
        if is_null(x):
            self._null_x.remove(fact)
        if is_null(y):
            self._null_y.remove(fact)

    # -- rollback (driven by repro.fdb.undo.rollback) -------------------------

    def _undo(self, op: str, fact: Fact, *change) -> bool:
        """Invert one recorded change; True when a discarded fact went
        back in at the end of the indices instead of its old place."""
        if op == "ncl":
            index, added = change
            if added:
                fact.ncl = fact.ncl - {index} or NO_NCS
            else:
                fact.ncl = fact.ncl | {index}
            return False
        old, new = change
        if old is None:
            self._unindex(fact)
        elif new is None:
            self._index(fact)
            return True
        else:
            fact.truth = old
        return False

    def _restore_order(self) -> None:
        """Rebuild every index in ``seq`` order — the insertion order
        an instance that never saw the undone discards would have."""
        facts = sorted(self._facts.values(), key=attrgetter("seq"))
        for index in (self._facts, self._by_x, self._by_y,
                      self._null_x, self._null_y):
            index.clear()
        for fact in facts:
            self._index(fact)

    # -- lookups -----------------------------------------------------------------

    def get(self, x: Value, y: Value) -> Fact | None:
        return self._facts.get((x, y))

    def facts(self) -> Iterator[Fact]:
        """All stored facts, in insertion order."""
        return iter(tuple(self._facts.values()))

    def pairs(self) -> Iterator[tuple[Value, Value]]:
        return iter(tuple(self._facts))

    def __len__(self) -> int:
        return len(self._facts)

    def facts_with_x(self, x: Value) -> tuple[Fact, ...]:
        """Facts whose domain value equals ``x`` exactly."""
        return tuple(self._by_x.get(x, ()))

    def facts_with_y(self, y: Value) -> tuple[Fact, ...]:
        """Facts whose range value equals ``y`` exactly."""
        return tuple(self._by_y.get(y, ()))

    def null_x_facts(self) -> tuple[Fact, ...]:
        """Facts whose domain value is a null."""
        return tuple(self._null_x)

    def null_y_facts(self) -> tuple[Fact, ...]:
        """Facts whose range value is a null."""
        return tuple(self._null_y)

    def truth_of(self, x: Value, y: Value) -> Truth:
        """Truth of the base fact (x, y): its flag if stored, else FALSE
        ("those not existing in the database are false")."""
        fact = self._facts.get((x, y))
        return fact.truth if fact is not None else Truth.FALSE

    # -- matching (Section 3.2) ---------------------------------------------------

    def matching_x(self, value: Value) -> tuple[list[Fact], list[Fact]]:
        """Facts whose domain value matches ``value``: a pair of lists,
        (exact matches, ambiguous matches).

        Ambiguous matches are facts with a null domain value different
        from ``value``; when ``value`` itself is a null, every fact with
        a different domain value matches ambiguously.
        """
        exact = list(self._by_x.get(value, ()))
        if is_null(value):
            ambiguous = [f for f in self._facts.values() if f.x != value]
        else:
            ambiguous = list(self._null_x)  # a null never equals a non-null
        return exact, ambiguous

    def matching_y(self, value: Value) -> tuple[list[Fact], list[Fact]]:
        """Like :meth:`matching_x`, over the range column."""
        exact = list(self._by_y.get(value, ()))
        if is_null(value):
            ambiguous = [f for f in self._facts.values() if f.y != value]
        else:
            ambiguous = list(self._null_y)  # a null never equals a non-null
        return exact, ambiguous

    # -- misc -----------------------------------------------------------------------

    def fault(self) -> str | None:
        """The first way the indices contradict the stored facts, or
        None: rows in ``seq`` order (the order ``_restore_order``
        rebuilds from), every fact under its own pair, once in each
        value index, and in a null list exactly when that side is a
        null. A change that went around the primitives above — and so
        around the undo log — shows up here."""
        by_x, by_y, null_x, null_y = self._by_x, self._by_y, [], []
        last = -1
        for (x, y), fact in self._facts.items():
            if fact.x != x or fact.y != y:
                return f"{self.name}: {fact} is stored under <{x}, {y}>"
            if fact.seq <= last:
                return f"{self.name}: {fact} is out of insertion order"
            last = fact.seq
            if (by_x.get(x, ()).count(fact) != 1
                    or by_y.get(y, ()).count(fact) != 1):
                return f"{self.name}: {fact} is missing from a value index"
            if isinstance(x, NullValue):
                null_x.append(fact)
            if isinstance(y, NullValue):
                null_y.append(fact)
        for index in (by_x, by_y):
            if sum(map(len, index.values())) != len(self._facts):
                return f"{self.name}: a value index holds a stale fact"
        if null_x != self._null_x or null_y != self._null_y:
            return (f"{self.name}: a null list disagrees with the "
                    f"stored facts")
        return None

    def copy(self) -> "FunctionTable":
        clone = FunctionTable(self.name)
        for fact in self._facts.values():
            clone.add(Fact(fact.x, fact.y, fact.truth, fact.ncl))
        return clone

    def rows(self) -> list[tuple[str, str, str, str]]:
        """Printable rows (x, y, flag, ncl) in insertion order, as the
        Section 4.2 tables show them."""
        return [
            (str(fact.x), str(fact.y), fact.flag, fact.ncl_text())
            for fact in self._facts.values()
        ]

    def __str__(self) -> str:
        header = f"{self.name}:"
        body = "\n".join(
            f"  {x} {y} {flag} {ncl}" for x, y, flag, ncl in self.rows()
        )
        return header + ("\n" + body if body else " (empty)")
