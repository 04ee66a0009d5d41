"""Update journal: history, undo and redo.

Section 3 treats a general update request as "a sequence of such simple
updates"; a practical tool also needs to *revisit* that sequence — the
design aid is interactive, and a designer who disagrees with an
update's consequences (an unexpected NC, a surprising ambiguity) wants
to step back. :class:`Journal` wraps a database and records every
executed :class:`repro.fdb.updates.Update` together with the undo
records it left behind (:mod:`repro.fdb.undo` — the same records a
transaction abort replays), giving linear undo/redo.

Undo replays those records in place, so the subtle artifacts of
derived updates — dismantled NCs, burned null indices — revert
exactly, at a cost proportional to what the update changed. Redo
re-applies the recorded update against the reverted state, which
reproduces the original outcome bit for bit because null/NC index
generation is deterministic from the reverted counters.

The journal covers updates only, and its undo steps fit the instance
only while every change goes through it: schema changes, null
resolution or direct table edits reset it (:meth:`Journal.clear`).
"""

from __future__ import annotations

from repro.errors import TransactionError, UpdateError
from repro.fdb.database import FunctionalDatabase
from repro.fdb.diff import StateDiff, diff_records
from repro.fdb.transaction import atomic
from repro.fdb.undo import rollback
from repro.fdb.updates import Update, UpdateSequence, apply_entry

__all__ = ["Journal"]


class Journal:
    """Linear update history with undo/redo over one database."""

    def __init__(self, db: FunctionalDatabase,
                 max_depth: int = 1000) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be positive")
        self.db = db
        self.max_depth = max_depth
        # Each applied entry: (update, the undo records it produced).
        self._done: list[tuple[Update | UpdateSequence, list]] = []
        self._undone: list[Update | UpdateSequence] = []

    # -- executing ----------------------------------------------------------

    def execute(self, update: Update | UpdateSequence) -> list:
        """Apply ``update`` and record it; clears the redo stack.
        Returns the undo records it left (what :meth:`undo` replays).

        An :class:`UpdateSequence` (a general update request) is
        applied atomically and recorded as a *single* history entry, so
        one undo reverts the whole request.
        """
        return self.record(update, self._apply(update))

    def record(self, update: Update | UpdateSequence,
               records: list) -> list:
        """Enter ``update`` as :meth:`execute` would, when it was
        applied elsewhere: ``records`` are the undo records of the
        transaction that committed it
        (:attr:`repro.fdb.transaction.Transaction.records`, taken
        inside the block). Clears the redo stack; returns
        ``records``."""
        self._done.append((update, records))
        if len(self._done) > self.max_depth:
            self._done.pop(0)
        self._undone.clear()
        return records

    def _apply(self, update: Update | UpdateSequence) -> list:
        """Apply atomically; returns the records of just this update
        (the enclosing transaction's log may hold earlier ones)."""
        with atomic(self.db):
            log = self.db._undo.records
            start = len(log)
            apply_entry(self.db, update)
            return log[start:]

    # -- navigating ------------------------------------------------------------

    def undo(self) -> Update | UpdateSequence:
        """Revert the most recent update (or whole sequence); returns
        it."""
        if not self._done:
            raise UpdateError("nothing to undo")
        if self.db._txn_owner is not None:
            raise TransactionError(
                "cannot undo inside an open transaction: its rollback "
                "would replay the same records again"
            )
        update, records = self._done.pop()
        self._undone.append(update)
        rollback(records)
        self.db._hand_off(records)
        return update

    def redo(self) -> Update | UpdateSequence:
        """Re-apply the most recently undone update; returns it."""
        if not self._undone:
            raise UpdateError("nothing to redo")
        update = self._undone.pop()
        self._done.append((update, self._apply(update)))
        return update

    # -- inspection -----------------------------------------------------------------

    @property
    def history(self) -> tuple[Update, ...]:
        """The applied updates, oldest first."""
        return tuple(update for update, _ in self._done)

    def clear(self) -> None:
        """Forget all history (e.g. after a schema change)."""
        self._done.clear()
        self._undone.clear()

    def describe(self) -> str:
        lines = [f"{len(self._done)} applied, "
                 f"{len(self._undone)} undone"]
        for index, update in enumerate(self.history, start=1):
            lines.append(f"  {index}. {update}")
        return "\n".join(lines)

    # -- change inspection ---------------------------------------------------------

    def change_of(self, index: int) -> StateDiff:
        """The state delta the ``index``-th applied update produced
        (1-based, as :meth:`describe` numbers them)."""
        if not 1 <= index <= len(self._done):
            raise UpdateError(f"no applied update #{index}")
        return diff_records(self._done[index - 1][1], self.db.base_names)

    def last_change(self) -> StateDiff:
        """The delta of the most recent applied update."""
        if not self._done:
            raise UpdateError("no updates applied yet")
        return self.change_of(len(self._done))
