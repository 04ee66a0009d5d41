"""Atomic update sequences.

The paper treats a general update request as "a sequence of such simple
updates" (Section 3). :class:`Transaction` makes such a sequence atomic:
on entry it opens the database's undo log (:mod:`repro.fdb.undo`), the
update primitives append one record per change while it is open, and
if the block raises the records are replayed in reverse — so a failed
REP, or a multi-update request interrupted by a constraint violation,
leaves no half-applied state behind. A commit hands the records to the
memos (:mod:`repro.fdb.memo`): entry is O(1) and a transaction costs
O(its changes), whatever the size of the instance.

Rollback works in place: the database keeps its table, registry and
null-factory objects, and they end up in exactly the state — row
order and index counters included — of an instance that never saw the
update. Schema changes are not covered: transactions scope *updates*,
not design actions.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from types import TracebackType

from repro.errors import TransactionError
from repro.faults.registry import FAULTS
from repro.fdb.database import FunctionalDatabase
from repro.fdb.undo import rollback
from repro.obs.hooks import OBS

__all__ = ["Transaction", "atomic"]


FAULTS.register(
    "txn.commit",
    "Transaction.__exit__: block succeeded, undo records being dropped",
    durable=True,
)
FAULTS.register(
    "txn.rollback.before-restore",
    "Transaction.__exit__: block failed, undo records not yet replayed",
    durable=True,
)


class Transaction:
    """Context manager undoing the block's changes on exception.

    >>> with db.transaction():            # doctest: +SKIP
    ...     db.delete("pupil", "euclid", "john")
    ...     db.insert("pupil", "euclid", "bill")
    """

    def __init__(self, db: FunctionalDatabase) -> None:
        self._db = db
        self._entered = False

    @property
    def records(self) -> list[tuple] | None:
        """The undo records of the open block, oldest first (formats
        in :mod:`repro.fdb.undo`) — the live list, to read and not to
        change; ``None`` outside the block."""
        return self._db._undo.records if self._entered else None

    def __enter__(self) -> "Transaction":
        if self._entered:
            raise TransactionError("transaction already entered")
        db = self._db
        me = threading.get_ident()
        with db._txn_guard:
            owner = db._txn_owner
            if owner is not None:
                if owner == me:
                    raise TransactionError(
                        "nested transaction: this thread already holds "
                        "an open transaction on this database (use "
                        "repro.fdb.transaction.atomic() for scopes that "
                        "may run inside a transaction)"
                    )
                raise TransactionError(
                    "concurrent transaction: another thread holds an "
                    "open transaction on this database (route updates "
                    "through repro.service.DatabaseService to serialise "
                    "writers)"
                )
            db._txn_owner = me
            db._undo.records = []
        self._entered = True
        if OBS.enabled:
            OBS.inc("fdb.txn.begun")
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        if not self._entered:
            raise TransactionError("transaction never entered")
        self._entered = False
        log = self._db._undo
        records = log.records
        try:
            if OBS.enabled:
                OBS.observe("fdb.txn.undo_records", len(records))
            if exc_type is None:
                if OBS.enabled:
                    OBS.inc("fdb.txn.committed")
                self._db._hand_off(records)
                FAULTS.fire("txn.commit")
                return False
            if OBS.enabled:
                OBS.event("txn.rollback", reason=exc_type.__name__,
                          records=len(records))
            FAULTS.fire("txn.rollback.before-restore")
            rollback(records)
            return False  # re-raise
        finally:
            with self._db._txn_guard:
                log.records = log.standing
                self._db._txn_owner = None


def atomic(db: FunctionalDatabase):
    """An atomic scope that composes: a fresh :class:`Transaction`, or
    a no-op when the calling thread already holds this database's open
    transaction (the enclosing transaction's rollback covers the inner
    scope). Multi-step operations (``REP``, update sequences,
    constraint guards) use this so they are atomic stand-alone *and*
    legal inside a wider transaction such as the WAL's write-ahead
    wrapper."""
    if db._txn_owner == threading.get_ident():
        return nullcontext()
    return Transaction(db)
