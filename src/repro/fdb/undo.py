"""The undo log: one mechanism behind abort, undo and state diffs.

Section 4's procedures enumerate their own effects — ``base-insert``
stores or re-flags one fact, ``create-NC`` flags its conjuncts and
extends their NCLs, ``create-NVC`` burns k-1 null indices — so an
update's inverse is known the moment each effect happens. While a
transaction is open, every primitive that mutates instance state
appends one record describing the change; :func:`rollback` replays the
list newest-first, :func:`repro.fdb.diff.diff_records` folds it into a
:class:`~repro.fdb.diff.StateDiff`, and a commit hands it to the
maintained extensions (:mod:`repro.fdb.memo`): the records are their
one change feed. A write therefore costs O(changes), never O(instance).

A record is ``(owner, op, *args)``; the owner replays it through its
``_undo(op, *args)``:

* ``(table, "fact", fact, old, new)`` — the fact's truth flag went
  ``old -> new``, where ``old is None`` means the fact was added and
  ``new is None`` that it was discarded;
* ``(table, "ncl", fact, index, added)`` — NC ``index`` joined
  (``added``) or left the fact's NCL;
* ``(registry, "nc", index, old, new)`` — NC ``index`` went
  ``old -> new``, ``None`` standing for "not live";
* ``(registry, "next", old)`` / ``(factory, "next", old)`` — the NC /
  null index counter moved on from ``old``.
"""

from __future__ import annotations

__all__ = ["UndoLog", "rollback"]


class UndoLog:
    """The record list of a database's open transaction, shared by
    reference with its tables, NC registry and null factory.

    Outside a transaction ``records`` is ``standing``: ``None`` (an
    unlogged primitive pays one ``is None`` test) until the database
    keeps a memo, then the list of changes waiting for the memos.
    """

    __slots__ = ("records", "standing")

    def __init__(self) -> None:
        self.records: list[tuple] | None = None
        self.standing: list[tuple] | None = None


def rollback(records: list[tuple]) -> None:
    """Undo ``records`` in place, newest first.

    The owners keep their identity and end up exactly as they were
    before the first record: an owner whose ``_undo`` reports that it
    had to re-insert something out of place restores its insertion
    order afterwards, so an abort costs O(touched tables).
    """
    unordered: dict[object, None] = {}
    for owner, *change in reversed(records):
        if owner._undo(*change):
            unordered[owner] = None
    for owner in unordered:
        owner._restore_order()
