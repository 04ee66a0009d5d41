"""Maintained extensions of derived functions.

Section 3.2 stores a derived function intensionally, so an extension
is a join over the base tables. An :class:`ExtensionMemo` keeps one by
*counted support* (Gupta, Mumick and Subrahmanian's counting algorithm)
over *partitions*, one per (derivation, first-step fact): the keys the
chains from that fact obtain, the true ones, and what the join read. A
key is in the extension while some partition holds it, true while one
holds it true; a new key goes last, so the order follows the op history.

A *read index* maps each read (``(table, inverse, value)``, or at a
null the table's name) to the partitions that made it. A scan joins
again the partitions it names for the changes handed to the memo
(:meth:`ExtensionMemo.take`), and those of new first-step facts. A
change to a null-valued fact reaches every partition: nearly all read
its column's pool, so pools are not indexed. Counting afresh costs about
what re-joining every partition does (CHANGES.md has the numbers), so
no share of reached partitions switches a scan to a rebuild. A schema
change drops every partition; a scan cut short keeps what it had. A
function's first scan keeps nothing: while no memo is kept, writes pay
no hand-off and no partition. The memo references no database or table.
The undo records (:mod:`repro.fdb.undo`) are its one change feed: a
commit or a journal undo hands its records over, an abort none. Once a
memo is kept, writes outside a transaction wait in the undo log's
standing list until a bare INS or DEL ends, a commit or a scan. A point
read answers from the kept extension unless a pending change reaches a
partition starting at its ``x`` (:meth:`ExtensionMemo.truth`).
"""

from __future__ import annotations

import collections
import functools
import itertools
import operator
import threading

from repro.core.derivation import Op
from repro.fdb.facts import Fact
from repro.fdb.logic import Truth
from repro.fdb.values import NullValue

__all__ = ["ExtensionMemo"]

_seq = operator.attrgetter("seq")
_GONE: tuple = ((), (), ())  # the partition of no first fact
_is_true = functools.partial(operator.is_, Truth.TRUE)


class ExtensionMemo:
    """One derived function's counted extension. ``lock`` serialises
    its scans (readers of one service cluster share it): a second reader
    waits for the first's refresh instead of joining the same partitions
    again. Its writers hold that cluster exclusive; a commit to another
    cluster reaches :meth:`take` while it scans, and must keep nothing."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.lock = threading.Lock()
        self.scanned = False
        self.version: int | None = None
        self.derivations: tuple = ()
        self.pools: frozenset = frozenset()  # (table, inverse) looked up
        self.reads: frozenset = frozenset()  # the tables of the steps
        self.pending: list[tuple[str, Fact]] = []  # changes since the scan
        self.drop()

    def take(self, records: list, tables: dict) -> None:
        """Keep the changes ``records`` made to the tables this memo
        reads until the next scan, at most one per partition: past
        that, every partition goes. An NC rewrite changes what it
        negates, no member's flag or NCL: its stored members count."""
        if not self.size:
            return
        kept = []
        for record in records:  # (owner, op, *args); repro.fdb.undo
            op = record[1]
            if op in ("fact", "ncl") and record[0].name in self.reads:
                kept.append((record[0].name, record[2]))
            elif op == "nc" and None not in record[3:]:
                for ref in (*record[3].members, *record[4].members):
                    fact = tables[ref.function].get(ref.x, ref.y)
                    if ref.function in self.reads and fact is not None:
                        kept.append((ref.function, fact))
        if kept:  # else left untouched: another cluster may be scanning it
            self.pending += kept
            self.reach = None
            if len(self.pending) > self.size:
                self.drop()

    def drop(self) -> None:
        """Forget every partition."""
        # Per derivation: first fact -> (keys, true keys, reads).
        self.parts: list[dict[Fact, tuple]] = [{} for _ in self.derivations]
        # Per derivation: read -> the first facts of the partitions.
        self.index: list[dict] = [{} for _ in self.derivations]
        self.result: dict = {}  # the extension
        self.held = collections.Counter()  # key -> partitions holding it
        self.clean = collections.Counter()  # key -> ... holding it true
        self.size = 0  # partitions kept; 0: the next scan builds them
        self.deleted = 0  # keys deleted since the dicts were built
        self.pending.clear()
        self.reach = None  # _reached's answer for ``pending``, once asked

    def extension(self, db, join) -> dict | None:
        """A copy of the extension, the partitions a change reached joined
        again by ``join`` (:func:`repro.fdb.evaluate._join`); ``None`` at
        the function's first scan and in the caller's own open transaction
        (its records come at commit), which the caller joins from scratch."""
        if db._txn_owner == threading.get_ident():
            return None
        with self.lock:
            db._hand_off()
            if not self.scanned:
                self.scanned = True
                return None
            if self.version != db.schema_version:
                self._reset(db)
            if self.size:
                reached = self._reached(db)[0]
            else:  # the first build, or a rebuild after a drop
                db._stand()
                reached = [(tuple(db.table(d.steps[0].function.name).facts()),
                            ()) for d in self.derivations]
            joined = []
            for derivation, (live, gone) in zip(self.derivations, reached):
                outs, reads = [{} for _ in live], [[] for _ in live]
                if live:
                    join(db, derivation, outs, live, lookups=reads)
                parts = zip(map(tuple, outs), [tuple(itertools.compress(
                    out, map(_is_true, out.values()))) for out in outs],
                    map(tuple, map(dict.fromkeys, reads)))
                joined.append([*zip(live, parts),
                               *zip(gone, itertools.repeat(_GONE))])
            # Only now, every join done: a scan cut short changes nothing.
            self.pending.clear()  # first: no take() sees it past the size
            self.reach = None
            self._recount(joined)
            return self.result.copy()  # dict() is ~6x slower past a deletion

    def truth(self, db, x, y) -> Truth | None:
        """The kept verdict on ``(x, y)``; ``None`` if nothing is kept, the
        schema changed, the caller owns the open transaction, or a pending
        change reaches a partition starting at ``x``, the only ones with a
        key ``(x, _)``: the caller walks then."""
        if not self.size or db._txn_owner == threading.get_ident():
            return None  # no lock: a function with no kept memo pays this
        with self.lock:
            db._hand_off()  # may drop every partition: size is read after
            if (not self.size or self.version != db.schema_version
                    or self.pending and x in self._reached(db)[1]):
                return None
            return self.result.get((x, y), Truth.FALSE)

    def _reset(self, db) -> None:
        """Start over on the function's current derivations."""
        self.derivations = db.derived(self.name).derivations
        self.drop()
        self.pools = frozenset((s.function.name, s.op is Op.INVERSE) for d
                               in self.derivations for s in d.steps[1:])
        self.reads = frozenset(s.function.name for d in self.derivations
                               for s in d.steps)
        self.version = db.schema_version

    def _reached(self, db) -> tuple:
        """Per derivation: the live first facts of the partitions the
        pending changes reached, in table order, and the gone ones; and
        where they start. Kept until ``pending`` changes: a point read's
        check and the next scan compute it once."""
        if self.reach is not None:
            return self.reach
        changed = set()  # everything a pending change could be read as
        for table, fact in self.pending:
            x, y = fact.x, fact.y
            changed.update((table, (table, False, x), (table, True, y)))
            if isinstance(x, NullValue):
                changed.add((table, False))
            if isinstance(y, NullValue):
                changed.add((table, True))
        # A null pool is not indexed: nearly every partition reads one.
        pooled = not self.pools.isdisjoint(changed)
        plan, starts = [], set()
        for derivation, index, parts in zip(self.derivations, self.index,
                                            self.parts):
            step = derivation.steps[0]
            first = db.table(step.function.name)
            facts = {fact for table, fact in self.pending
                     if table == first.name}
            gone = {fact for fact in facts
                    if first.get(fact.x, fact.y) is not fact}
            if pooled:
                facts.update(parts)
            else:
                for key in changed:
                    facts.update(index.get(key, ()))
            plan.append((sorted(facts - gone, key=_seq), gone))
            start = "y" if step.op is Op.INVERSE else "x"
            starts.update(map(operator.attrgetter(start), facts))
        self.reach = plan, starts
        return self.reach

    def _recount(self, joined: list) -> None:
        """Put new joins in place of old partitions; move their counts."""
        swaps = []  # (what a partition obtained, what it obtains now)
        for parts, index, added in zip(self.parts, self.index, joined):
            for fact, part in added:
                old = parts.pop(fact, _GONE)
                if part is not _GONE:
                    parts[fact] = part
                if old[0] != part[0] or old[1] != part[1]:
                    swaps.append((old, part))
                if old[2] == part[2]:
                    continue
                for read in old[2]:  # the read index follows the reads
                    index[read].discard(fact)
                    if not index[read]:
                        del index[read]
                for read in part[2]:
                    index.setdefault(read, set()).add(fact)
        self.size = sum(map(len, self.parts))
        held, clean, result, moved = self.held, self.clean, self.result, set()
        if not held:  # a first build: count every key in one pass
            keys = [*itertools.chain(*(new[0] for _, new in swaps))]
            held.update(keys)
            clean.update(itertools.chain(*(new[1] for _, new in swaps)))
            result |= dict.fromkeys(keys, Truth.AMBIGUOUS)
            result |= dict.fromkeys(clean, Truth.TRUE)
            swaps = ()
        for old, new in swaps:
            for was, now, counts in ((old[0], new[0], held),
                                     (old[1], new[1], clean)):
                for key in itertools.filterfalse(set(now).__contains__, was):
                    counts[key] -= 1
                    moved.add(key)
                for key in itertools.filterfalse(set(was).__contains__, now):
                    counts[key] = counts.get(key, 0) + 1
                    result.setdefault(key, Truth.AMBIGUOUS)  # new: goes last
                    moved.add(key)
        for key in moved:
            if not clean.get(key, 1):
                del clean[key]
            if held[key]:
                result[key] = Truth.TRUE if key in clean else Truth.AMBIGUOUS
            else:
                del held[key]
                del result[key]
                self.deleted += 1
        # Churn leaves a dict two to four times its size, and a copy of
        # a dict with holes costs more: past an eighth, build them anew.
        if self.deleted > len(result) // 8:
            self.result = dict(result)
            self.held = collections.Counter(held)
            self.clean = collections.Counter(clean)
            self.deleted = 0
