"""Maintained extensions of derived functions.

Section 3.2 stores a derived function intensionally, so an extension
is a join over the base tables. An :class:`ExtensionMemo` keeps one
derived function's extension as *partitions*, one per (derivation,
first-step fact): what the chains starting at that fact obtain. The
extension is the :func:`fold` of the partitions in table order, equal
to a from-scratch :func:`~repro.fdb.evaluate.evaluate_derivations`,
key order included.

A partition remembers what its join read: its first fact, ``(table,
inverse, value)`` for an exact lookup, the column's null pool beside
every non-null lookup, and the whole table for a lookup at a null.
The table primitives report each changed fact (:meth:`note`); a scan
joins again the partitions that read something a reported fact could
have been read as — a test per partition, which the fold pays for
anyway — and those never joined. A schema change drops them all; a
scan cut short keeps what it had. A function's first scan keeps
nothing, so a function scanned once costs no memory and its writes no
notes. The memo holds no reference to its database or tables.
"""

from __future__ import annotations

import functools
import itertools
import operator
import threading

from repro.fdb.facts import Fact
from repro.fdb.logic import Truth
from repro.fdb.values import NullValue

__all__ = ["ExtensionMemo"]

_is_true = functools.partial(operator.is_, Truth.TRUE)


def fold(parts: list[tuple]) -> dict:
    """Partitions ``(keys, clean keys, ...)``, in order, as one
    extension: each key where it first appears, true if some partition
    has a clean chain for it."""
    result = dict.fromkeys(itertools.chain.from_iterable(
        map(operator.itemgetter(0), parts)), Truth.AMBIGUOUS)
    result.update(zip(itertools.chain.from_iterable(
        map(operator.itemgetter(1), parts)), itertools.repeat(Truth.TRUE)))
    return result


class ExtensionMemo:
    """The partitions of one derived function's extension. ``lock``
    serialises its scans (readers of one service cluster share it): a
    second reader waits for the first's refresh instead of joining the
    same partitions again. Writers, which :meth:`note`, hold that
    cluster exclusive."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.lock = threading.Lock()
        self.scanned = False
        self.version: int | None = None
        self.derivations: tuple = ()
        self.pools: dict[tuple, tuple] = {}  # (table, inverse): null pool key
        # Per derivation: first fact -> (keys, clean keys, what it read).
        self.parts: list[dict[Fact, tuple]] = []
        self.size = 0  # partitions kept
        self.pending: list[tuple[str, Fact]] = []  # changes since the scan

    def note(self, table: str, fact: Fact) -> None:
        """``fact`` of ``table`` changed. Kept until the next scan, and
        at most one per partition: past that, every partition goes."""
        if self.size:
            self.pending.append((table, fact))
            if len(self.pending) > self.size:
                self.drop()

    def drop(self) -> None:
        """Forget every partition."""
        self.parts = [{} for _ in self.derivations]
        self.size = 0
        self.pending.clear()

    def extension(self, db, join) -> dict | None:
        """The extension: the fold of every partition, joining again
        (with ``join``, :func:`repro.fdb.evaluate._join`) the ones a
        change reached and the ones never computed. ``None`` at the
        function's first scan, which the caller joins from scratch."""
        with self.lock:
            if not self.scanned:
                self.scanned = True
                return None
            if self.version != db.schema_version:
                self._reset(db)
            changed, parts, ordered = self._changed(), [], []
            for old, derivation in zip(self.parts, self.derivations):
                first = db.table(derivation.steps[0].function.name)
                facts = tuple(first.facts())
                kept, missing = {}, []
                for fact in facts:
                    part = old.get(fact)
                    if part is None or not changed.isdisjoint(part[2]):
                        missing.append(fact)
                    else:
                        kept[fact] = part
                if missing:
                    outs = [{} for _ in missing]
                    probes = [[] for _ in missing]
                    join(db, derivation, outs, missing, lookups=probes)
                    kept.update(zip(missing, map(self._partition, missing,
                                                 outs, probes)))
                parts.append(kept)
                ordered += [kept[fact] for fact in facts]
            # Only now: a scan cut short (a deadline) changes nothing.
            self.parts = parts
            self.pending.clear()
            self.size = len(ordered)
        return fold(ordered)

    def _reset(self, db) -> None:
        self.derivations = db.derived(self.name).derivations
        self.drop()
        for derivation in self.derivations:
            for step in derivation.steps:
                db.table(step.function.name).watch(self)
        self.version = db.schema_version

    def _partition(self, fact: Fact, out: dict, probes: list) -> tuple:
        """``fact``'s partition from what the join left: its keys, its
        clean keys, and what it read — its first fact, each exact
        lookup's key with its column's null pool, and for a lookup at a
        null the whole table (its name)."""
        keys, reads = tuple(out), {fact}
        for key in probes:
            table, inverse, value = key
            if isinstance(value, NullValue):
                reads.add(table)
            else:
                pool = table, inverse  # one key object per column
                reads.update((key, self.pools.setdefault(pool, pool)))
        return keys, tuple(itertools.compress(
            keys, map(_is_true, out.values()))), tuple(reads)

    def _changed(self) -> set:
        """Everything a pending change could have been read as."""
        changed = set()
        for table, fact in self.pending:
            x, y = fact.x, fact.y
            changed.update((fact, table, (table, False, x), (table, True, y)))
            if isinstance(x, NullValue):
                changed.add((table, False))
            if isinstance(y, NullValue):
                changed.add((table, True))
        return changed
