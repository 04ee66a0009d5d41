"""Maintained extensions of derived functions.

Section 3.2 stores a derived function intensionally, so an extension
is a join over the base tables. An :class:`ExtensionMemo` keeps one by
*counted support* (Gupta, Mumick and Subrahmanian's counting algorithm)
over *chains*: every chain not known false, and whether it is clean
(every match exact, every fact true), filed under each of its facts. A
key is in the extension while a kept chain obtains it, true while a
clean one does; a new key goes last, so the order follows the op history.

The undo records (:mod:`repro.fdb.undo`) are the memo's one change
feed, handed over at a commit, a journal undo (an abort hands none),
the end of a bare INS or DEL, a scan and a point read. A fact they name
is changed. Its *delta rule* (each derivation step a body atom, in
Engels, Behrend and Brass's terms) binds it at every step its table
fills and joins outward (:func:`repro.fdb.evaluate._join`): the kept
chains through a changed fact go, the current ones come in, each once.
Every change of a chain's verdict passes through a fact a record names,
so nothing else moves (DESIGN.md, "Maintaining an extension"). A scan
or a point read applies what waits, then answers from the memo. A
schema change, or more changes waiting than chains kept, drops every
chain; a delta cut short keeps what it had. A function's first scan
keeps nothing, so until its second writes pay no hand-off. The memo
references no database or table.
"""

from __future__ import annotations

import operator
from threading import Lock, get_ident

from repro.core.derivation import Op
from repro.fdb.facts import Fact
from repro.fdb.logic import Truth
from repro.obs.hooks import OBS

__all__ = ["ExtensionMemo"]

FALSE, TRUE = Truth.FALSE, Truth.TRUE  # globals: an enum member costs a lookup


class ExtensionMemo:
    """One derived function's counted extension. ``lock`` serialises
    what changes or reads it: a second reader of one service cluster
    waits for the first's delta instead of joining it again, a commit's
    :meth:`take` appends under it, and a lookup (:meth:`truth`, no
    join) holds it alone. It is innermost: no engine or service lock is
    taken while it is held, so a hand-off comes before it. A commit to
    another cluster reaches :meth:`take` while it is held, and keeps
    nothing."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.lock = Lock()
        self.scanned = False
        self.version: int | None = None
        self.derivations: tuple = ()
        self.reads: frozenset = frozenset()  # the tables of the steps
        self.ends: list[tuple] = []  # per derivation: key of a chain
        self.pending: list[tuple[str, Fact]] = []  # changes not applied
        self.drop()

    def take(self, records: list, tables: dict) -> None:
        """Keep the changes ``records`` made to the tables this memo
        reads until they are applied, at most one per kept chain: past
        that, every chain goes. An NC rewrite changes what it negates,
        no member's flag or NCL: its stored members count. Only a memo
        the records reach is locked, so a commit waits on no reader of
        another cluster."""
        if not self.chains:
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
        if kept:  # else untouched: another cluster may be reading it
            self.lock.acquire()  # not ``with``: see repro.service.locks
            try:
                self.pending += kept
                if len(self.pending) > self.size:
                    self.drop()
            finally:
                self.lock.release()

    def drop(self) -> None:
        """Forget every chain."""
        # Per derivation: chain (its facts) -> clean; []: none kept.
        self.chains: list[dict[tuple, bool]] = []
        self.through: list[dict[Fact, list]] = []  # fact -> chains via it
        self.filed = self.live = 0  # entries in ``through``, and live ones
        self.result: dict = {}  # the extension
        self.held: dict = {}  # key -> kept chains holding it
        self.clean: dict = {}  # key -> ... holding it clean
        self.size = 0  # chains kept
        self.deleted = 0  # keys deleted since the dicts were built
        self.pending.clear()

    def extension(self, db, join) -> dict | None:
        """A copy of the extension, what waits applied by ``join``
        (:func:`repro.fdb.evaluate._join`); ``None`` at the function's
        first scan and in the caller's own open transaction (its records
        come at commit), which the caller joins from scratch."""
        if db._txn_owner == get_ident():
            return None
        db._hand_off()  # before the lock: a take it makes takes it
        if self.scanned and db._undo.standing is None:
            db._stand()
        with self.lock:  # no standing list yet: a first scan keeps nothing
            if not self.scanned or db._undo.standing is None:
                self.scanned = True
                return None
            if self.version != db.schema_version:
                self._reset(db)
            if not self.chains:  # the first build, or one after a drop
                self._apply(db, join, None)
            elif self.pending:
                self._apply(db, join, self.pending)
            return self.result.copy()  # dict() is ~6x slower past a deletion

    def truth(self, db, x, y, join=None) -> Truth | None:
        """The kept verdict on ``(x, y)``, what waits handed off and
        applied first by ``join``; ``None`` if nothing is kept, the
        schema changed, the caller owns the open transaction, or changes
        wait and no ``join`` is given: the caller joins then. With no
        ``join`` this is a lookup: it reads no table and holds only the
        memo's lock, so a caller that holds no cluster lock may ask."""
        if not self.chains or db._txn_owner == get_ident():
            return None  # no lock: a function with no kept memo pays this
        if join is not None:
            db._hand_off()  # before the lock: a take it makes takes it
        elif db._undo.standing:
            return None
        self.lock.acquire()
        try:  # chains is read again: a take may have dropped them
            if not self.chains or self.version != db.schema_version:
                return None
            if self.pending:
                if join is None:
                    return None
                self._apply(db, join, self.pending)
            return self.result.get((x, y), FALSE)
        finally:
            self.lock.release()

    def _reset(self, db) -> None:
        """Start over on the function's current derivations."""
        self.derivations = db.derived(self.name).derivations
        self.drop()
        self.reads = frozenset(s.function.name for d in self.derivations
                               for s in d.steps)
        # Per derivation: a chain's key from its first and last fact.
        self.ends = [(
            operator.attrgetter("y" if d.steps[0].op is Op.INVERSE else "x"),
            operator.attrgetter("x" if d.steps[-1].op is Op.INVERSE else "y"),
        ) for d in self.derivations]
        self.version = db.schema_version

    def _apply(self, db, join, pending: list | None) -> None:
        """Join the chains through the facts ``pending`` names (with
        ``None``, every chain: a build), and count them in place of the
        kept chains through those facts."""
        changed = dict.fromkeys(pending or ())  # (table, fact), each once
        live: dict[str, list] = {}  # table -> its changed facts still stored
        for name, fact in changed:
            if db.table(name).get(fact.x, fact.y) is fact:
                live.setdefault(name, []).append(fact)
        found = []
        for derivation in self.derivations:
            chains: dict = {}  # a chain through two changed facts: once
            if pending is None:
                join(db, derivation, into=chains)
            for at, step in enumerate(derivation.steps if live else ()):
                if step.function.name in live:
                    join(db, derivation, live[step.function.name], at=at,
                         into=chains)
            found.append(chains)
        # Only now, every join done: a delta cut short changes nothing.
        if OBS.enabled:
            OBS.inc("fdb.memo.chains", sum(map(len, found)))
        self.pending.clear()
        if pending is None:
            self.chains = [{} for _ in found]
            self.through = [{} for _ in found]
        self._count(found, changed)

    def _count(self, found: list, changed) -> None:
        """Put the chains ``found`` in place of the kept chains through
        the facts of ``changed``'s ``(table, fact)`` pairs; move their
        keys' counts."""
        held, clean, result, moved = self.held, self.clean, self.result, set()
        for chains, through, new, (start, end) in zip(
                self.chains, self.through, found, self.ends):
            for _, fact in changed:
                bucket = through.pop(fact, ())
                self.filed -= len(bucket)
                for chain in bucket:
                    ok = chains.pop(chain, None)
                    if ok is None:  # gone through another fact already
                        continue
                    self.live -= len(chain)
                    key = start(chain[0]), end(chain[-1])
                    held[key] -= 1
                    if ok:
                        clean[key] -= 1
                    moved.add(key)
            _file(through, new)
            for chain, truth in new.items():
                key, ok = (start(chain[0]), end(chain[-1])), truth is TRUE
                chains[chain] = ok
                self.filed += len(chain)
                self.live += len(chain)
                held[key] = held.get(key, 0) + 1
                if ok:
                    clean[key] = clean.get(key, 0) + 1
                result.setdefault(key, Truth.AMBIGUOUS)  # new: goes last
                moved.add(key)
        self.size = sum(map(len, self.chains))
        # A chain that goes stays filed under its other facts until they
        # change: past twice the live entries, file every chain anew.
        if self.filed > 2 * self.live:
            for chains, through in zip(self.chains, self.through):
                through.clear()
                _file(through, chains)
            self.filed = self.live
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
            self.held = dict(held)
            self.clean = dict(clean)
            self.deleted = 0


def _file(through: dict, chains) -> None:
    """File each of ``chains`` under each of its facts."""
    for chain in chains:
        for fact in chain:
            bucket = through.get(fact)
            if bucket is None:
                through[fact] = [chain]
            else:
                bucket.append(chain)
