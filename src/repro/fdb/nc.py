"""Negated conjunctions (NCs) and their registry.

Section 3.2: deleting a derived fact tells us only that the conjunction
of the base facts deriving it is false — not which conjunct is. "This is
represented by a construct called 'negated conjunction' (NC). The
semantics of a NC are: (1) the conjunction of the facts in it is false;
(2) each fact in it is ambiguous."

Section 4: "Each NC has a unique index, and is implemented as a list of
pointers to its component facts. In this way the NC and NCL form a dual
data structure that enables the traversal from a NC to its component
facts and vice versa."

:class:`NCRegistry` owns the indices and implements the paper's
``create-NC`` and ``dismantle-NC`` procedures. It resolves fact
references through a table-lookup callable supplied by the database —
the lookup of its table mapping, not a method of the database, so the
registry holds no reference back to its owner — and this module stays
independent of :mod:`repro.fdb.database`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator

from repro.errors import UpdateError
from repro.fdb.facts import Fact, FactRef
from repro.fdb.logic import Truth
from repro.fdb.table import FunctionTable
from repro.fdb.undo import UndoLog
from repro.fdb.values import Value
from repro.obs.hooks import OBS

__all__ = ["NegatedConjunction", "NCRegistry"]


@dataclass(frozen=True)
class NegatedConjunction:
    """One NC: a unique index plus its component base facts."""

    index: int
    members: tuple[FactRef, ...]

    @cached_property  # an NC never changes: a rewrite makes a new one
    def member_set(self) -> frozenset[FactRef]:
        return frozenset(self.members)

    def __str__(self) -> str:
        inner = " AND ".join(str(member) for member in self.members)
        return f"g{self.index}: NOT({inner})"


class NCRegistry:
    """All live NCs of one database, indexed ``g1, g2, ...``.

    The registry plus the per-fact NCLs form the paper's dual structure:
    :meth:`members_of` walks NC -> facts; a fact's ``ncl`` walks
    fact -> NCs. Registry changes are recorded on ``log`` while a
    transaction is open (see :mod:`repro.fdb.undo`); the member facts'
    flags and NCLs change through their table, which records those.
    """

    def __init__(
        self,
        table_of: Callable[[str], FunctionTable],
        next_index: int = 1,
        log: UndoLog | None = None,
    ) -> None:
        self._table_of = table_of
        self._ncs: dict[int, NegatedConjunction] = {}
        self._next = next_index
        self._log = log if log is not None else UndoLog()

    def _set(self, index: int, nc: NegatedConjunction | None) -> None:
        """Bind ``index`` to ``nc`` (``None``: no longer live)."""
        records = self._log.records
        if records is not None:
            records.append((self, "nc", index, self._ncs.get(index), nc))
        if nc is None:
            del self._ncs[index]
        else:
            self._ncs[index] = nc

    # -- resolution ----------------------------------------------------------

    def _resolve(self, ref: FactRef) -> Fact:
        try:
            fact = self._table_of(ref.function).get(ref.x, ref.y)
        except KeyError:  # no such table
            fact = None
        if fact is None:
            raise UpdateError(f"dangling fact reference {ref}")
        return fact

    # -- the paper's procedures -------------------------------------------------

    def create(self, conjuncts: Iterable[tuple[str, Fact]]) -> NegatedConjunction:
        """Procedure ``create-NC(Conj-list)``.

        Generates an NC with a fresh unique index and, for each conjunct,
        sets its truth flag to A and adds the index to its NCL.
        ``conjuncts`` pairs each fact with the name of the function whose
        table stores it.
        """
        pairs = list(conjuncts)
        if not pairs:
            raise UpdateError("an NC needs at least one conjunct")
        if OBS.enabled:
            OBS.inc("fdb.nc.created")
        index = self._next
        records = self._log.records
        if records is not None:
            records.append((self, "next", index))
        self._next = index + 1
        members = []
        for function, fact in pairs:
            table = self._table_of(function)
            table.set_truth(fact, Truth.AMBIGUOUS)
            table.ncl_add(fact, index)
            members.append(fact.ref(function))
        nc = NegatedConjunction(index, tuple(members))
        self._set(index, nc)
        return nc

    def dismantle(self, index: int) -> None:
        """Procedure ``dismantle-NC(d)``.

        "Each element of NC(d) is ambiguous, while their conjunction is
        not false": the NC disappears and each member loses the index
        from its NCL — but stays ambiguous until some future insert
        asserts it true.
        """
        nc = self.get(index)
        self._set(index, None)
        if OBS.enabled:
            OBS.inc("fdb.nc.dismantled")
        for ref in nc.members:
            table = self._table_of(ref.function)
            fact = table.get(ref.x, ref.y)
            # A member may already have been removed from its table by the
            # base-delete that triggered this dismantling.
            if fact is not None:
                table.ncl_discard(fact, index)

    # -- rollback (driven by repro.fdb.undo.rollback) -------------------------

    def _undo(self, op: str, *change) -> bool:
        """Invert one recorded change; True when a dismantled NC went
        back in at the end of the registry instead of in index order."""
        if op == "next":
            (self._next,) = change
            return False
        index, old, new = change
        if old is None:
            del self._ncs[index]
            return False
        self._ncs[index] = old
        return new is None

    def _restore_order(self) -> None:
        ncs = sorted(self._ncs.items())
        self._ncs.clear()
        self._ncs.update(ncs)

    # -- queries ----------------------------------------------------------------

    def get(self, index: int) -> NegatedConjunction:
        try:
            return self._ncs[index]
        except KeyError:
            raise UpdateError(f"no NC with index g{index}") from None

    def __contains__(self, index: int) -> bool:
        return index in self._ncs

    def __len__(self) -> int:
        return len(self._ncs)

    def __iter__(self) -> Iterator[NegatedConjunction]:
        return iter(tuple(self._ncs.values()))

    def members_of(self, index: int) -> tuple[Fact, ...]:
        """The component facts of NC(d) (NC -> facts traversal)."""
        return tuple(self._resolve(ref) for ref in self.get(index).members)

    def rewrite_value(self, old: "Value", new: "Value") -> None:
        """Replace a value inside every NC member reference (used by
        null resolution when a null is identified with a data value).
        Members that become identical after rewriting are deduplicated.
        """
        for index, nc in list(self._ncs.items()):
            if not any(ref.x == old or ref.y == old for ref in nc.members):
                continue
            members = tuple(
                dict.fromkeys(
                    FactRef(
                        ref.function,
                        new if ref.x == old else ref.x,
                        new if ref.y == old else ref.y,
                    )
                    for ref in nc.members
                )
            )
            rewritten = NegatedConjunction(index, members)
            self._set(index, rewritten)

    @property
    def next_index(self) -> int:
        return self._next

    def __str__(self) -> str:
        if not self._ncs:
            return "(no negated conjunctions)"
        return "\n".join(str(nc) for nc in self._ncs.values())
