"""Data values and uniquely indexed null values.

Section 3.2: when a derived insert requires intermediate objects whose
identity is unknown, the paper "resorts to null values [12] ... where
n1 is a uniquely indexed null value". Two nulls are the same value iff
they carry the same index; a null never equals a non-null.

The same section defines the matching rules used when composing chains
of base facts:

    "Two facts <x, y>, <u, v> match exactly if y = u, and match
    ambiguously if y != u and (y is a null value or u is a null value).
    Note that y = u iff both are non-null and y and u are the same data
    item, or both are null values with same index."

``NullValue`` equality gives the exact match;
:meth:`repro.fdb.table.FunctionTable.matching_x` / ``matching_y`` apply
both rules to a stored column.

Ordinary data values are arbitrary hashable Python objects (strings in
all the paper's examples; tuples for objects of product types such as
``(john, math)`` in the domain ``[student; course]``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterator

from repro.fdb.undo import UndoLog

__all__ = [
    "Value",
    "NullValue",
    "NullFactory",
    "is_null",
    "format_value",
]

Value = Hashable
"""A database value: any hashable object; nulls are :class:`NullValue`."""


@dataclass(frozen=True, slots=True)
class NullValue:
    """A uniquely indexed null, printed ``n1``, ``n2``, ...

    Dataclass equality compares indices, giving exactly the paper's
    rule: two nulls are equal iff same index.
    """

    index: int

    def __str__(self) -> str:
        return f"n{self.index}"

    def __repr__(self) -> str:
        return f"NullValue({self.index})"


class NullFactory:
    """Generates fresh uniquely indexed nulls for one database.

    The factory is the single source of null indices, so uniqueness
    holds database-wide; the counter is part of persisted snapshots,
    and each index issued inside a transaction is recorded on ``log``
    so an abort gives it back.
    """

    def __init__(self, next_index: int = 1,
                 log: UndoLog | None = None) -> None:
        if next_index < 1:
            raise ValueError("null indices start at 1")
        self._next = next_index
        self._log = log if log is not None else UndoLog()

    def fresh(self) -> NullValue:
        index = self._next
        records = self._log.records
        if records is not None:
            records.append((self, "next", index))
        self._next = index + 1
        return NullValue(index)

    def fresh_many(self, count: int) -> Iterator[NullValue]:
        for _ in range(count):
            yield self.fresh()

    def _undo(self, op: str, old: int) -> None:
        self._next = old

    @property
    def next_index(self) -> int:
        """The index the next :meth:`fresh` call will use."""
        return self._next


def is_null(value: Value) -> bool:
    return isinstance(value, NullValue)


def format_value(value: Value) -> str:
    """Render a value the paper's way, stably across runs.

    Indexed nulls print as ``n1`` even inside product-type tuples
    (``str`` of a tuple would fall back to ``repr`` and print
    ``NullValue(1)``), so update strings, traces and journal output are
    diffable between runs that issue the same null indices.
    """
    if isinstance(value, NullValue):
        return str(value)
    if isinstance(value, tuple):
        return "(" + ", ".join(format_value(item) for item in value) + ")"
    return str(value)


