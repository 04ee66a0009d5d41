"""Declarative integrity constraints.

Section 5: "Other semantic constraints (integrity constraints, etc.)
may also help resolve ambiguous information." This module supplies the
constraint layer: declare constraints over a database, audit the
current instance, or guard updates so a violating update rolls back
atomically.

Three constraint forms cover the schemas the paper works with:

* :class:`InclusionDependency` — every value in one function column
  must appear in another function's column (``class_list``'s domain
  within ``teach``'s range: no class list for an untaught course);
* :class:`DomainConstraint` — column values satisfy a predicate
  (marks within 0..100);
* :class:`CardinalityConstraint` — bounds on image/preimage sizes
  (a course has at most N students).

Null values are exempt everywhere: a null may yet resolve to a
compliant value, so it can never be a *definite* violation — the same
stance :mod:`repro.fdb.constraints` takes for functionality FDs.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable

from repro.errors import ConstraintViolation, SchemaError
from repro.fdb.database import FunctionalDatabase
from repro.fdb.transaction import atomic
from repro.fdb.updates import Update, UpdateSequence, apply_entry
from repro.fdb.values import Value, is_null

__all__ = [
    "Violation",
    "IntegrityConstraint",
    "InclusionDependency",
    "DomainConstraint",
    "CardinalityConstraint",
    "ConstraintSet",
]

_COLUMNS = ("domain", "range")


@dataclass(frozen=True)
class Violation:
    """One definite constraint violation."""

    constraint: str
    message: str

    def __str__(self) -> str:
        return f"[{self.constraint}] {self.message}"


class IntegrityConstraint(abc.ABC):
    """A named, checkable constraint over a database instance."""

    name: str = "constraint"

    @abc.abstractmethod
    def violations(self, db: FunctionalDatabase) -> list[Violation]:
        """All definite violations in the current instance."""

    def holds(self, db: FunctionalDatabase) -> bool:
        return not self.violations(db)


def _column_values(db: FunctionalDatabase, function: str,
                   column: str) -> list[Value]:
    if column not in _COLUMNS:
        raise SchemaError(f"column must be 'domain' or 'range', "
                          f"not {column!r}")
    table = db.table(function)
    if column == "domain":
        return [fact.x for fact in table.facts()]
    return [fact.y for fact in table.facts()]


@dataclass(frozen=True)
class InclusionDependency(IntegrityConstraint):
    """``source_function.source_column  subset-of
    target_function.target_column``."""

    source_function: str
    source_column: str
    target_function: str
    target_column: str

    @property
    def name(self) -> str:  # type: ignore[override]
        return (
            f"{self.source_function}.{self.source_column} <= "
            f"{self.target_function}.{self.target_column}"
        )

    def violations(self, db: FunctionalDatabase) -> list[Violation]:
        target = {
            value
            for value in _column_values(
                db, self.target_function, self.target_column
            )
        }
        found = []
        for value in _column_values(
            db, self.source_function, self.source_column
        ):
            if is_null(value):
                continue
            if value not in target:
                found.append(Violation(
                    self.name,
                    f"value {value!r} of {self.source_function}."
                    f"{self.source_column} missing from "
                    f"{self.target_function}.{self.target_column}",
                ))
        return found


@dataclass(frozen=True)
class DomainConstraint(IntegrityConstraint):
    """Column values must satisfy a predicate."""

    function: str
    column: str
    predicate: Callable[[Value], bool]
    description: str = "predicate"

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"{self.function}.{self.column}: {self.description}"

    def violations(self, db: FunctionalDatabase) -> list[Violation]:
        found = []
        for value in _column_values(db, self.function, self.column):
            if is_null(value):
                continue
            if not self.predicate(value):
                found.append(Violation(
                    self.name,
                    f"value {value!r} fails {self.description}",
                ))
        return found


@dataclass(frozen=True)
class CardinalityConstraint(IntegrityConstraint):
    """Bounds on how many range values a domain value maps to
    (``per='domain'``) or vice versa (``per='range'``).

    ``minimum`` applies only to values that appear at all — it bounds
    group sizes, not existence.
    """

    function: str
    per: str = "domain"
    minimum: int = 0
    maximum: int | None = None

    @property
    def name(self) -> str:  # type: ignore[override]
        upper = "inf" if self.maximum is None else str(self.maximum)
        return (
            f"|{self.function} per {self.per}| in "
            f"[{self.minimum}, {upper}]"
        )

    def violations(self, db: FunctionalDatabase) -> list[Violation]:
        if self.per not in _COLUMNS:
            raise SchemaError("per must be 'domain' or 'range'")
        groups: dict[Value, int] = {}
        for fact in db.table(self.function).facts():
            key = fact.x if self.per == "domain" else fact.y
            if is_null(key):
                continue
            groups[key] = groups.get(key, 0) + 1
        found = []
        for key, count in groups.items():
            if count < self.minimum:
                found.append(Violation(
                    self.name,
                    f"{key!r} has only {count} "
                    f"(minimum {self.minimum})",
                ))
            if self.maximum is not None and count > self.maximum:
                found.append(Violation(
                    self.name,
                    f"{key!r} has {count} (maximum {self.maximum})",
                ))
        return found


class ConstraintSet:
    """A collection of constraints with audit and guarded updates."""

    def __init__(self,
                 constraints: list[IntegrityConstraint] | None = None
                 ) -> None:
        self._constraints: list[IntegrityConstraint] = list(
            constraints or []
        )

    def add(self, constraint: IntegrityConstraint) -> None:
        self._constraints.append(constraint)

    def __len__(self) -> int:
        return len(self._constraints)

    def __iter__(self):
        return iter(tuple(self._constraints))

    def check(self, db: FunctionalDatabase) -> list[Violation]:
        """Audit the current instance against every constraint."""
        found: list[Violation] = []
        for constraint in self._constraints:
            found.extend(constraint.violations(db))
        return found

    def guarded(self, db: FunctionalDatabase,
                update: Update | UpdateSequence) -> None:
        """Apply ``update`` (one update or a sequence) atomically; roll
        back and raise :class:`ConstraintViolation` if any constraint
        breaks. Inside an open transaction — the write-ahead scope of
        :meth:`repro.fdb.wal.LoggedDatabase.committing` — the raise
        rolls back that transaction instead."""
        with atomic(db):
            apply_entry(db, update)
            violations = self.check(db)
            if violations:
                label = ("sequence" if isinstance(update, UpdateSequence)
                         else f"update {update}")
                raise ConstraintViolation(
                    f"{label} undone; it violates: "
                    + "; ".join(str(v) for v in violations)
                )
