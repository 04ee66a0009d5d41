"""Fact quadruples.

Section 4: "a fact f(a) = b along with the relevant information is
stored in the form of a quadruple <a, b, T/A, NCL> in the table
corresponding to f". :class:`Fact` is that quadruple; the pair (a, b)
is immutable while the truth flag and the NCL (the set of indices of
the negated conjunctions the fact belongs to) change under updates.
The NCL is a ``frozenset`` that the table's primitives replace, never
edit; almost every fact sits in no NC, and all of those share
:data:`NO_NCS`.

:class:`FactRef` names a fact globally — function name plus pair — and
is what :class:`repro.fdb.nc.NegatedConjunction` stores, giving the
NC -> fact half of the dual traversal structure (the fact's NCL is the
other half).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fdb.logic import Truth
from repro.fdb.values import Value

__all__ = ["Fact", "FactRef", "NO_NCS"]

#: The NCL of every fact outside an NC: one object, shared.
NO_NCS: frozenset[int] = frozenset()


@dataclass(frozen=True, slots=True)
class FactRef:
    """A global name for a base fact: ``<function, x, y>``.

    This is the paper's fact triple notation ``<f, a, b>`` denoting
    ``f(a) = b``.
    """

    function: str
    x: Value
    y: Value

    def __str__(self) -> str:
        return f"<{self.function}, {self.x}, {self.y}>"


@dataclass(slots=True, eq=False)
class Fact:
    """A stored fact quadruple ``<x, y, T/A, NCL>``.

    Identity is by object (``eq=False``): the same pair may exist in
    different tables, and a fact's mutable state must not leak into
    hashing. Lookups go through :class:`repro.fdb.table.FunctionTable`,
    which also owns every change to ``truth`` and ``ncl`` (so the
    change is recorded for rollback) and stamps ``seq``, the fact's
    rank in its table's insertion order.
    """

    x: Value
    y: Value
    truth: Truth = Truth.TRUE
    ncl: frozenset[int] = NO_NCS
    seq: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.truth is Truth.FALSE:
            raise ValueError(
                "false facts are not stored in the database "
                "(absence denotes falsity)"
            )

    @property
    def pair(self) -> tuple[Value, Value]:
        return (self.x, self.y)

    @property
    def flag(self) -> str:
        return self.truth.flag

    def ref(self, function: str) -> FactRef:
        return FactRef(function, self.x, self.y)

    def ncl_text(self) -> str:
        """The NCL as printed in the Section 4.2 tables: ``{}`` or
        ``{g1, g2}``."""
        if not self.ncl:
            return "{}"
        return "{" + ", ".join(f"g{d}" for d in sorted(self.ncl)) + "}"

    def __str__(self) -> str:
        return f"<{self.x}, {self.y}, {self.flag}, {self.ncl_text()}>"
