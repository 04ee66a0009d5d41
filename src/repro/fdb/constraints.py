"""Type-functionality constraints and FD-driven null resolution.

Section 5 (future work the paper calls for): "It is clear that
functional dependencies also play an important role in resolving partial
information. In functional databases the type functional information
indicates relevant functional dependencies."

Two facilities:

* **Constraint checking** — a function declared *single-valued*
  (``...-one`` functionality) induces the functional dependency
  domain -> range; an *injective* one (``one-...``) induces
  range -> domain. :func:`violations` lists stored fact pairs breaking
  these FDs, and :func:`check_insert` vets a prospective base insert.
  Pairs involving a null are never definite violations — they are
  *unification opportunities*.

* **Null resolution** — when a single-valued function stores both
  ``<a, n1>`` and ``<a, b>``, the FD forces ``n1 = b``;
  :func:`resolve_nulls` finds such forced identifications and
  substitutes the null database-wide (Maier-style null unification,
  the paper's reference [12]), shrinking the ambiguity the NVCs
  introduced. When a substitution merges two stored facts, the merged
  fact is true if either was asserted true, and per the insert
  semantics a now-true fact's NCs are dismantled.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConstraintViolation
from repro.fdb.database import FunctionalDatabase
from repro.fdb.facts import Fact
from repro.fdb.logic import Truth
from repro.fdb.table import FunctionTable
from repro.fdb.values import NullValue, Value, is_null

__all__ = [
    "Violation",
    "Substitution",
    "violations",
    "check_insert",
    "guarded_insert",
    "planned_unifications",
    "substitute_null",
    "resolve_nulls",
]


@dataclass(frozen=True)
class Violation:
    """Two stored facts jointly breaking a functionality FD."""

    function: str
    kind: str  # "single_valued" | "injective"
    first: tuple[Value, Value]
    second: tuple[Value, Value]

    def __str__(self) -> str:
        dependency = (
            "domain -> range" if self.kind == "single_valued"
            else "range -> domain"
        )
        return (
            f"{self.function} ({dependency}): {self.first} conflicts with "
            f"{self.second}"
        )


@dataclass(frozen=True)
class Substitution:
    """One forced identification ``null := value``."""

    function: str
    null: NullValue
    value: Value

    def __str__(self) -> str:
        return f"{self.null} := {self.value} (forced by {self.function})"


def _definite_conflict(a: Value, b: Value) -> bool:
    """Two values that are provably different: unequal and both
    non-null (a null could still turn out to equal anything)."""
    return a != b and not is_null(a) and not is_null(b)


def violations(db: FunctionalDatabase,
               names: tuple[str, ...] | None = None) -> list[Violation]:
    """All definite FD violations among stored facts."""
    found: list[Violation] = []
    for name in names if names is not None else db.base_names:
        definition = db.schema[name]
        table = db.table(name)
        if definition.functionality.is_single_valued:
            found.extend(_column_violations(name, table, "single_valued"))
        if definition.functionality.is_injective:
            found.extend(_column_violations(name, table, "injective"))
    return found


def _column_violations(name: str, table: FunctionTable,
                       kind: str) -> list[Violation]:
    groups: dict[Value, list[Fact]] = {}
    for fact in table.facts():
        key = fact.x if kind == "single_valued" else fact.y
        groups.setdefault(key, []).append(fact)
    found = []
    for facts in groups.values():
        for i, first in enumerate(facts):
            for second in facts[i + 1:]:
                left = first.y if kind == "single_valued" else first.x
                right = second.y if kind == "single_valued" else second.x
                if _definite_conflict(left, right):
                    found.append(
                        Violation(name, kind, first.pair, second.pair)
                    )
    return found


def check_insert(db: FunctionalDatabase, name: str,
                 x: Value, y: Value) -> None:
    """Raise :class:`ConstraintViolation` if base-inserting (x, y) would
    definitely break the function's declared functionality."""
    definition = db.schema[name]
    table = db.table(name)
    if table.get(x, y) is not None:
        return  # re-asserting an existing fact never violates anything
    if definition.functionality.is_single_valued:
        for other in table.facts_with_x(x):
            if _definite_conflict(other.y, y):
                raise ConstraintViolation(
                    f"{name} is single-valued but {name}({x}) is already "
                    f"{other.y}; cannot also be {y}"
                )
    if definition.functionality.is_injective:
        for other in table.facts_with_y(y):
            if _definite_conflict(other.x, x):
                raise ConstraintViolation(
                    f"{name} is injective but {y} is already the image of "
                    f"{other.x}; cannot also be that of {x}"
                )


def guarded_insert(db: FunctionalDatabase, name: str, x: Value, y: Value,
                   *, resolve: bool = False) -> list[Substitution]:
    """A base/derived insert preceded by a constraint check (for base
    functions) and optionally followed by null resolution. Returns the
    substitutions performed."""
    if db.is_base(name):
        check_insert(db, name, x, y)
    db.insert(name, x, y)
    if resolve:
        return resolve_nulls(db)
    return []


# -- null resolution ------------------------------------------------------------


def planned_unifications(db: FunctionalDatabase) -> list[Substitution]:
    """The identifications currently forced by functionality FDs.

    For a single-valued function storing ``<a, v1>`` and ``<a, v2>``
    with exactly one of v1, v2 a null, the null must equal the other
    value; two distinct nulls under the same ``a`` must equal each other
    (the lower index is kept). Injective functions force the symmetric
    rule on domain values. Only the first forced substitution per null
    is reported — apply and re-plan to reach the fixpoint, which is what
    :func:`resolve_nulls` does.
    """
    planned: list[Substitution] = []
    claimed: set[NullValue] = set()
    for name in db.base_names:
        definition = db.schema[name]
        table = db.table(name)
        if definition.functionality.is_single_valued:
            planned.extend(
                _plan_for_column(name, table, "single_valued", claimed)
            )
        if definition.functionality.is_injective:
            planned.extend(
                _plan_for_column(name, table, "injective", claimed)
            )
    return planned


def _plan_for_column(name: str, table: FunctionTable, kind: str,
                     claimed: set[NullValue]) -> list[Substitution]:
    groups: dict[Value, list[Value]] = {}
    for fact in table.facts():
        if kind == "single_valued":
            groups.setdefault(fact.x, []).append(fact.y)
        else:
            groups.setdefault(fact.y, []).append(fact.x)
    planned = []
    for values in groups.values():
        if len(values) < 2:
            continue
        non_nulls = [v for v in values if not is_null(v)]
        nulls = sorted(
            {v for v in values if is_null(v)}, key=lambda n: n.index
        )
        if not nulls:
            continue
        if non_nulls:
            # All nulls in the group must equal the (first) non-null.
            target = non_nulls[0]
            candidates = nulls
        else:
            # All nulls must coincide; keep the lowest index.
            target = nulls[0]
            candidates = nulls[1:]
        for null in candidates:
            if null not in claimed and null != target:
                claimed.add(null)
                planned.append(Substitution(name, null, target))
    return planned


def substitute_null(db: FunctionalDatabase, null: NullValue,
                    value: Value) -> None:
    """Replace ``null`` by ``value`` everywhere: in stored facts (merging
    rows that collide) and in NC member references."""
    to_dismantle: set[int] = set()
    for table in db.tables():
        for fact in list(table.facts()):
            if fact.x != null and fact.y != null:
                continue
            new_x = value if fact.x == null else fact.x
            new_y = value if fact.y == null else fact.y
            table.discard(fact.x, fact.y)
            existing = table.get(new_x, new_y)
            if existing is None:
                table.add(Fact(new_x, new_y, fact.truth, fact.ncl))
                continue
            for index in sorted(fact.ncl):
                table.ncl_add(existing, index)
            if fact.truth is Truth.TRUE or existing.truth is Truth.TRUE:
                table.set_truth(existing, Truth.TRUE)
                to_dismantle |= existing.ncl
    db.ncs.rewrite_value(null, value)
    for index in sorted(to_dismantle):
        if index in db.ncs:
            db.ncs.dismantle(index)


def resolve_nulls(db: FunctionalDatabase,
                  max_rounds: int = 1000) -> list[Substitution]:
    """Apply forced identifications until none remain; returns all the
    substitutions performed, in order."""
    performed: list[Substitution] = []
    for _ in range(max_rounds):
        planned = planned_unifications(db)
        if not planned:
            return performed
        for substitution in planned:
            substitute_null(db, substitution.null, substitution.value)
            performed.append(substitution)
    raise ConstraintViolation(
        "null resolution did not converge "
        f"within {max_rounds} rounds"
    )
