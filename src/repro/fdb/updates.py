"""The update algorithms of Section 4.1.

Base updates act directly on the stored tables; derived updates create
or resolve partial information:

* ``base-insert`` stores the fact true, or — if already present —
  dismantles every NC it belongs to and sets its flag to T (an insert
  asserts the fact's truth, so no conjunction containing it can remain
  a justification for ambiguity);
* ``base-delete`` dismantles the fact's NCs and removes the row
  (asserting falsity resolves the fact's own ambiguity; clause (3) of
  the delete semantics keeps the *other* members of those NCs
  ambiguous, which dismantle-NC respects by not touching their flags);
* ``derived-insert`` re-truthifies an existing NVC of the fact or
  creates a fresh one;
* ``derived-delete`` turns each chain currently deriving the fact into
  a negated conjunction.

:func:`insert`, :func:`delete` and :func:`replace` dispatch on base vs
derived; :class:`Update` is a value object for whole update streams
(workload generators and benches speak it).

Three documented refinements of the paper's pseudocode (degenerate
cases its example never reaches):

* a derived insert of a fact that is *already true* is a no-op — the
  semantics say "sigma is true; no other changes", and the fact already
  is. Only an exactly-matching chain of true facts makes it true
  (Section 3.2), so the check walks exact chains alone
  (``allow_ambiguous=False``) and stops at the first all-true one;
  reads keep the full three-valued fold;
* ``derived-delete`` skips chains whose conjunction is already known
  false (the chain's fact set is a superset of a live NC) — negating
  them again would add a weaker, redundant NC. This also makes derived
  deletes idempotent;
* a *one-fact* chain carries no ambiguity: the negation of a one-fact
  conjunction is the falsity of that fact, so ``derived-delete`` over a
  single-step derivation performs the corresponding ``base-delete``
  instead of creating a one-member NC. A conjunction is a *set* of
  facts, so a chain whose steps all use one fact (``f o f^-1``) is
  one-fact too, and no NC names a fact twice.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import cancel
from repro.errors import UpdateError
from repro.fdb.database import FunctionalDatabase
from repro.fdb.evaluate import iter_chains
from repro.fdb.logic import Truth
from repro.fdb.nvc import clean_up_nvc, create_nvc, exists_nvc
from repro.fdb.transaction import atomic
from repro.fdb.values import Value, format_value
from repro.obs.hooks import OBS

__all__ = [
    "base_insert",
    "base_delete",
    "derived_insert",
    "derived_delete",
    "insert",
    "delete",
    "replace",
    "Update",
    "apply_update",
    "UpdateSequence",
    "apply_sequence",
    "apply_entry",
]


# -- base updates -------------------------------------------------------------


def base_insert(db: FunctionalDatabase, name: str, x: Value, y: Value) -> None:
    """Procedure ``base-insert(f, x, y)``."""
    table = db.table(name)
    fact = table.get(x, y)
    obs_on = OBS.enabled
    if obs_on:
        OBS.inc("fdb.updates.base_insert")
        OBS.event("base.insert", function=name, x=x, y=y)
    if fact is None:
        table.add_pair(x, y, Truth.TRUE)
        return
    for index in sorted(fact.ncl):
        if obs_on:
            OBS.event("nc.dismantled", index=f"g{index}", cause="insert")
        db.ncs.dismantle(index)
    table.set_truth(fact, Truth.TRUE)


def base_delete(db: FunctionalDatabase, name: str, x: Value, y: Value) -> None:
    """Procedure ``base-delete(f, x, y)`` (absent fact: no-op — it is
    already false)."""
    table = db.table(name)
    fact = table.get(x, y)
    if fact is None:
        return
    obs_on = OBS.enabled
    if obs_on:
        OBS.inc("fdb.updates.base_delete")
        OBS.event("base.delete", function=name, x=x, y=y)
    for index in sorted(fact.ncl):
        if obs_on:
            OBS.event("nc.dismantled", index=f"g{index}", cause="delete")
        db.ncs.dismantle(index)
    table.discard(x, y)


# -- derived updates ------------------------------------------------------------


def derived_insert(db: FunctionalDatabase, name: str, x: Value, y: Value) -> None:
    """Procedure ``derived-insert(f, x, y)``.

    Per derivation (all of them in ``insert_mode='all'``, just the
    primary in ``'primary'`` mode): reuse and truthify an existing NVC,
    or create a fresh one.
    """
    derived = db.derived(name)
    obs_on = OBS.enabled
    if any(chain.all_true for derivation in derived.derivations
           for chain in iter_chains(db, derivation, x, y,
                                    allow_ambiguous=False)):
        if obs_on:
            OBS.event("insert.already_true", function=name, x=x, y=y)
        return
    if obs_on:
        OBS.inc("fdb.updates.derived_insert")
    if db.insert_mode == "primary":
        derivations = (derived.primary,)
    else:
        derivations = derived.derivations
    for derivation in derivations:
        chain = exists_nvc(db, derivation, x, y)
        if chain is not None:
            if obs_on:
                OBS.event("nvc.reused", derivation=str(derivation),
                          chain=str(chain))
            clean_up_nvc(db, chain)
        else:
            created = create_nvc(db, derivation, x, y)
            if obs_on:
                OBS.event("nvc.created", derivation=str(derivation),
                          facts=len(created))


def derived_delete(db: FunctionalDatabase, name: str, x: Value, y: Value) -> None:
    """Procedure ``derived-delete(f, x, y)``: create an NC for each
    exactly-matching chain deriving the fact, across every confirmed
    derivation. A fact no chain derives is already false: no-op.
    """
    derived = db.derived(name)
    chains = [
        chain
        for derivation in derived.derivations
        for chain in iter_chains(db, derivation, x, y, allow_ambiguous=False)
    ]
    obs_on = OBS.enabled
    if obs_on:
        OBS.inc("fdb.updates.derived_delete")
        OBS.event("chains.matched", function=name, count=len(chains))
    for chain in chains:
        # Cancellation boundary: each chain's side-effects (a delete or
        # an NC) are complete before the next checkpoint may abort.
        cancel.checkpoint()
        if obs_on:
            OBS.event("chain.evaluated", chain=str(chain))
        # A conjunction is a set: one fact filling two steps is one
        # conjunct.
        conjuncts = list(dict.fromkeys(chain.conjuncts()))
        if len(conjuncts) == 1:
            # A one-fact "conjunction" being false is just that fact
            # being false: no ambiguity arises, so delete it outright
            # (taught_by = teach^-1 deletes translate to teach deletes).
            if obs_on:
                OBS.event("chain.single_fact", chain=str(chain))
            function, fact = conjuncts[0]
            base_delete(db, function, fact.x, fact.y)
            continue
        still_stored = all(
            db.table(function).get(fact.x, fact.y) is fact
            for function, fact in conjuncts
        )
        if not still_stored:
            # A one-fact chain above already deleted a fact this chain
            # shares; its conjunction is false without an NC.
            if obs_on:
                OBS.event("chain.stale", chain=str(chain))
            continue
        if chain.is_known_false(db):
            if obs_on:
                OBS.event("chain.already_false", chain=str(chain))
            continue
        nc = db.ncs.create(conjuncts)
        if obs_on:
            OBS.event("nc.created", index=f"g{nc.index}", chain=str(chain))


# -- dispatching front door ---------------------------------------------------------


def _update_cause() -> str:
    """The update id for a front-door span: inherited when we are a
    step inside an enclosing update (a replace's delete, a WAL replay),
    freshly allocated when this is a new user-level update."""
    return OBS.current_cause() or OBS.new_update_id()


def insert(db: FunctionalDatabase, name: str, x: Value, y: Value) -> None:
    """INS(f, <x, y>)."""
    cancel.checkpoint()
    if OBS.enabled:
        OBS.inc("fdb.updates.insert")
        with OBS.span("update.insert", cause=_update_cause(),
                      function=name, x=x, y=y):
            _dispatch(db, name, x, y, base_insert, derived_insert)
        return
    _dispatch(db, name, x, y, base_insert, derived_insert)


def delete(db: FunctionalDatabase, name: str, x: Value, y: Value) -> None:
    """DEL(f, <x, y>)."""
    cancel.checkpoint()
    if OBS.enabled:
        OBS.inc("fdb.updates.delete")
        with OBS.span("update.delete", cause=_update_cause(),
                      function=name, x=x, y=y):
            _dispatch(db, name, x, y, base_delete, derived_delete)
        return
    _dispatch(db, name, x, y, base_delete, derived_delete)


def _dispatch(db: FunctionalDatabase, name: str, x: Value, y: Value,
              base, derived) -> None:
    """Run ``name``'s procedure, then hand over what waits outside."""
    try:
        if db.is_base(name):
            base(db, name, x, y)
        else:
            derived(db, name, x, y)
    finally:
        db._hand_off()


def replace(
    db: FunctionalDatabase,
    name: str,
    old: tuple[Value, Value],
    new: tuple[Value, Value],
) -> None:
    """REP(f, <x1, y1>, <x2, y2>): atomic delete of the old pair and
    insert of the new one (Section 3 lists replace as the third update
    type; its semantics follow from the other two)."""
    # atomic(), not db.transaction(): a REP arriving through the WAL's
    # write-ahead wrapper already runs inside that wrapper's
    # transaction, and opening a second one would be misuse.
    cancel.checkpoint()
    if OBS.enabled:
        with OBS.span("update.replace", cause=_update_cause(),
                      function=name):
            with atomic(db):
                delete(db, name, *old)
                insert(db, name, *new)
        return
    with atomic(db):
        delete(db, name, *old)
        insert(db, name, *new)


# -- update streams --------------------------------------------------------------


@dataclass(frozen=True)
class Update:
    """One simple update, as in Section 3: a general update request is a
    sequence of these."""

    kind: str  # "INS" | "DEL" | "REP"
    function: str
    pair: tuple[Value, Value]
    new_pair: tuple[Value, Value] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("INS", "DEL", "REP"):
            raise UpdateError(f"unknown update kind {self.kind!r}")
        if (self.kind == "REP") != (self.new_pair is not None):
            raise UpdateError("REP takes two pairs; INS/DEL take one")

    def __str__(self) -> str:
        # format_value keeps indexed nulls printing as n<i> even inside
        # product-type tuples, so update strings are diffable across
        # runs that issue the same null indices.
        x, y = (format_value(v) for v in self.pair)
        if self.kind == "REP":
            assert self.new_pair is not None
            x2, y2 = (format_value(v) for v in self.new_pair)
            return f"REP({self.function}, <{x}, {y}>, <{x2}, {y2}>)"
        return f"{self.kind}({self.function}, <{x}, {y}>)"

    @classmethod
    def ins(cls, function: str, x: Value, y: Value) -> "Update":
        return cls("INS", function, (x, y))

    @classmethod
    def delete(cls, function: str, x: Value, y: Value) -> "Update":
        return cls("DEL", function, (x, y))

    @classmethod
    def rep(cls, function: str, old: tuple[Value, Value],
            new: tuple[Value, Value]) -> "Update":
        return cls("REP", function, old, new)


def apply_update(db: FunctionalDatabase, update: Update) -> None:
    """Execute one :class:`Update` against the database."""
    if update.kind == "INS":
        insert(db, update.function, *update.pair)
    elif update.kind == "DEL":
        delete(db, update.function, *update.pair)
    else:
        assert update.new_pair is not None
        replace(db, update.function, update.pair, update.new_pair)


@dataclass(frozen=True)
class UpdateSequence:
    """A general update request: "a general update request can be
    viewed as a sequence of such simple updates" (Section 3). Executed
    atomically — all or nothing."""

    updates: tuple[Update, ...]
    label: str = ""

    def __post_init__(self) -> None:
        if not self.updates:
            raise UpdateError("an update sequence needs at least one "
                              "update")

    def __len__(self) -> int:
        return len(self.updates)

    def __iter__(self):
        return iter(self.updates)

    def __str__(self) -> str:
        name = f" {self.label}" if self.label else ""
        inner = "; ".join(str(u) for u in self.updates)
        return f"BEGIN{name} {{ {inner} }}"


def apply_entry(db: FunctionalDatabase,
                entry: Update | UpdateSequence) -> None:
    """Apply one committed entry — a simple update or a general update
    request — all or nothing: the one apply step behind the write path,
    replica apply, recovery and every replay oracle."""
    with atomic(db):
        if isinstance(entry, UpdateSequence):
            for update in entry:
                apply_update(db, update)
        else:
            apply_update(db, entry)


def apply_sequence(db: FunctionalDatabase,
                   sequence: UpdateSequence) -> None:
    """Execute a general update request atomically."""
    apply_entry(db, sequence)
