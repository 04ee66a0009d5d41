"""Chain enumeration and truth valuation of derived facts.

Section 3.2 defines how the truth value of a derived fact follows from
the stored base facts:

    "A derived fact can be obtained by composing a chain of base facts
    if adjacent pairs of facts in the chain match. ... A chain of base
    facts matches exactly if each adjacent pair of facts match exactly.
    A derived fact is true if it is obtained from a chain of true base
    facts which matches exactly. It is ambiguous if it can be obtained
    from a chain of base facts which is not a superset of a NC and each
    chain of base facts from which it can be obtained either does not
    match exactly or contains at least one ambiguous fact. A derived
    fact is false if it is neither true nor ambiguous."

A :class:`Chain` is one sequence of stored facts, one per derivation
step (facts of inverted steps are traversed range-to-domain). The fact
*obtained* from a chain has the chain's endpoint values; endpoints are
therefore matched exactly, while adjacent interior values may match
exactly or ambiguously (through nulls).

Two evaluators share that definition: :func:`iter_chains` walks one
derivation and yields every :class:`Chain` (the reference semantics;
updates, and point lookups no memo answers); ``_join`` joins it a hop at
a time and builds none, from the first step for an extension
(:func:`evaluate_derivations`), or outward from facts bound at any step
for the delta rules of a maintained extension (:mod:`repro.fdb.memo`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

from repro import cancel
from repro.core.derivation import Derivation, Op
from repro.fdb.facts import Fact, FactRef
from repro.fdb.logic import Truth
from repro.fdb.nc import NCRegistry
from repro.fdb.table import FunctionTable
from repro.fdb.values import Value, is_null
from repro.obs.hooks import OBS

if TYPE_CHECKING:
    from repro.fdb.database import FunctionalDatabase

__all__ = [
    "Chain",
    "negating_ncs",
    "iter_chains",
    "truth_of",
    "truth_of_derived",
    "truth_over",
    "evaluate_derivations",
    "derived_extension",
    "derived_image",
]


@dataclass(frozen=True)
class Chain:
    """One chain of stored base facts realizing a derivation.

    ``facts[i]`` comes from the table of ``derivation.steps[i]``'s
    function; inverted steps use the fact backwards. ``all_exact``
    records whether every adjacent pair matched exactly.
    """

    derivation: Derivation
    facts: tuple[Fact, ...]
    all_exact: bool

    @property
    def start(self) -> Value:
        step = self.derivation.steps[0]
        fact = self.facts[0]
        return fact.y if step.op is Op.INVERSE else fact.x

    @property
    def end(self) -> Value:
        step = self.derivation.steps[-1]
        fact = self.facts[-1]
        return fact.x if step.op is Op.INVERSE else fact.y

    @property
    def pair(self) -> tuple[Value, Value]:
        """The derived fact this chain obtains."""
        return (self.start, self.end)

    @property
    def all_true(self) -> bool:
        return all(fact.truth is Truth.TRUE for fact in self.facts)

    def conjuncts(self) -> list[tuple[str, Fact]]:
        """(function name, fact) pairs — the Conj-list for create-NC."""
        return [
            (step.function.name, fact)
            for step, fact in zip(self.derivation.steps, self.facts)
        ]

    @property
    def refs(self) -> frozenset[FactRef]:
        return frozenset(
            fact.ref(step.function.name)
            for step, fact in zip(self.derivation.steps, self.facts)
        )

    def is_known_false(self, db: FunctionalDatabase) -> bool:
        """Whether this chain's conjunction is already negated: some
        live NC negates its facts (:func:`negating_ncs`)."""
        return any(negating_ncs(db.ncs, self.facts))

    def supports(self, db: FunctionalDatabase) -> Truth:
        """What this single chain contributes to its derived fact."""
        if self.all_exact and self.all_true:
            return Truth.TRUE
        if self.is_known_false(db):
            return Truth.FALSE
        return Truth.AMBIGUOUS

    def __str__(self) -> str:
        parts = [
            f"<{step.function.name}, {fact.x}, {fact.y}>"
            for step, fact in zip(self.derivation.steps, self.facts)
        ]
        return " . ".join(parts)


def negating_ncs(ncs: NCRegistry, facts: Iterable[Fact]) -> Iterator[int]:
    """The indices of the live NCs that ``facts`` are a superset of —
    what makes a chain "a superset of a NC" (Section 3.2) — each once
    per fact listing it. NC *i* negates them iff as many distinct
    facts list *i* in their NCL as NC *i* has distinct members: the
    NC <-> NCL pairing (DESIGN.md, "Counting NCL entries"). An index
    no live NC has negates nothing; ``structure_fault`` names that
    damage."""
    listed = [index for fact in set(facts) for index in fact.ncl]
    for index in listed:
        if index in ncs and listed.count(index) == len(
                ncs.get(index).member_set):
            yield index


def iter_chains(
    db: FunctionalDatabase,
    derivation: Derivation,
    x: Value | None = None,
    y: Value | None = None,
    *,
    allow_ambiguous: bool = True,
) -> Iterator[Chain]:
    """Enumerate chains of stored facts realizing ``derivation``.

    ``x``/``y`` fix the chain endpoints (matched exactly, per the
    definition of the obtained fact). ``allow_ambiguous=False``
    restricts to exactly-matching chains — the ones whose conjunction
    implies the derived fact, which is what ``derived-delete`` negates.

    Chains come in lexicographic order of (choice at step 1, ...), exact
    matches first. A walk reads each step's pools once (:class:`_Hop`),
    the last step's cut to the facts ending at ``y``: no consumer may
    change the instance while it consumes one.
    """
    hops = [_Hop(db.table(step.function.name), step.op is Op.INVERSE,
                 allow_ambiguous) for step in derivation.steps]
    hops[-1].y = y  # Section 3.2: the last fact must end at y exactly
    starts = hops[0].table.facts() if x is None else hops[0].exact(x)
    chains = _extend(derivation, y, hops, 0, (), ((starts, True, None),), True)
    if not OBS.enabled:
        if not cancel.cancellation_active():
            # Fast path: no per-chain work without OBS or a deadline.
            yield from chains
            return
        for chain in chains:
            cancel.checkpoint()
            yield chain
        return
    # Instrumented path: count enumerations and every chain yielded.
    # Per-yield counting stays correct when a consumer abandons the
    # generator early (exists_nvc stops at the first NVC).
    OBS.inc("fdb.chains.enumerations")
    for chain in chains:
        cancel.checkpoint()
        OBS.inc("fdb.chains.enumerated")
        yield chain


# The walk behind iter_chains: module-level, its context passed along,
# as a closure over itself and ``db`` would keep the database alive.
class _Hop:
    """One step of one walk. A chain arriving at a value takes its exact
    matches from the value index, its ambiguous ones from a pool read on
    first use: the step's null list for a non-null (every null differs
    from it), else a snapshot of the step's facts, skipping the null's own.
    A last hop with ``y`` bound reads, for either pool, only the facts
    ending at ``y`` (its y-bucket)."""

    __slots__ = ("table", "inverse", "ambiguous", "exact", "y", "nulls",
                 "facts")

    def __init__(self, table: FunctionTable, inverse: bool,
                 ambiguous: bool) -> None:
        self.table, self.inverse, self.ambiguous = table, inverse, ambiguous
        self.exact = table.facts_with_y if inverse else table.facts_with_x
        self.y = self.nulls = self.facts = None

    def pools(self, current: Value) -> tuple:
        """``(facts, match is exact, value to skip)`` for each pool."""
        exact = (self.exact(current), True, None)
        if not self.ambiguous:
            return (exact,)
        if is_null(current):
            return exact, (self.snapshot(), False, current)
        if self.nulls is None:
            self.nulls = (self.table.null_y_facts() if self.inverse
                          else self.table.null_x_facts())
            if self.nulls and self.y is not None:
                self.nulls = [fact for fact in self.snapshot() if is_null(
                    fact.y if self.inverse else fact.x)]
        return exact, (self.nulls, False, None)

    def snapshot(self) -> tuple[Fact, ...]:
        """The step's facts, or with ``y`` bound its y-bucket, read once."""
        if self.facts is None:
            table, y = self.table, self.y
            self.facts = (tuple(table.facts()) if y is None else
                          table.facts_with_x(y) if self.inverse
                          else table.facts_with_y(y))
        return self.facts


def _extend(
    derivation: Derivation, y: Value | None, hops: list[_Hop], index: int,
    facts: tuple[Fact, ...], pools: tuple, all_exact: bool,
) -> Iterator[Chain]:
    inverse = hops[index].inverse
    following = hops[index + 1] if index + 1 < len(hops) else None
    for candidates, exact_match, skip in pools:
        still_exact = all_exact and exact_match
        for fact in candidates:
            if skip is not None and (fact.y if inverse else fact.x) == skip:
                continue
            end = fact.x if inverse else fact.y
            if following is not None:
                yield from _extend(derivation, y, hops, index + 1,
                                   facts + (fact,), following.pools(end),
                                   still_exact)
            elif y is None or end == y:
                yield Chain(derivation, facts + (fact,), still_exact)


def truth_of_derived(
    db: FunctionalDatabase, name: str, x: Value, y: Value
) -> Truth:
    """Section 3.2 truth valuation of the derived fact ``name(x) = y``,
    considering every confirmed derivation of the function: the kept
    extension's (:mod:`repro.fdb.memo`) or else the chains' verdict."""
    if OBS.enabled:
        OBS.inc("fdb.evaluate.truth_checks")
    truth = db.memo(name).truth(db, x, y, _join)
    if truth is None:
        return truth_over(db, db.derived(name).derivations, x, y)
    return truth


def truth_over(
    db: FunctionalDatabase, derivations: Iterable[Derivation],
    x: Value, y: Value,
) -> Truth:
    """The strongest verdict any chain of ``derivations`` gives (x, y).
    Past the first ambiguous chain only a true one can change it, so
    later chains are tested for that alone."""
    ambiguous_found = False
    for derivation in derivations:
        for chain in iter_chains(db, derivation, x, y):
            if ambiguous_found:
                if chain.all_exact and chain.all_true:
                    return Truth.TRUE
                continue
            support = chain.supports(db)
            if support is Truth.TRUE:
                return Truth.TRUE
            if support is Truth.AMBIGUOUS:
                ambiguous_found = True
    return Truth.AMBIGUOUS if ambiguous_found else Truth.FALSE


def truth_of(db: FunctionalDatabase, name: str, x: Value, y: Value) -> Truth:
    """Truth of any fact: stored flag (or FALSE) for base functions,
    chain valuation for derived ones."""
    if db.is_base(name):
        return db.table(name).truth_of(x, y)
    return truth_of_derived(db, name, x, y)


def evaluate_derivations(
    db: FunctionalDatabase, derivations: Iterable[Derivation],
    x: Value | None = None,
) -> dict[tuple[Value, Value], Truth]:
    """The facts ``derivations`` obtain, each with the strongest verdict
    of its chains (false facts absent, keys in :func:`iter_chains`'s
    order); ``x`` fixes the chains' start. From scratch."""
    result: dict[tuple[Value, Value], Truth] = {}
    for derivation in derivations:
        _join(db, derivation, result, x=x)
    return result


def _join(db: FunctionalDatabase, derivation: Derivation, out: dict | None,
          firsts: Iterable[Fact] | None = None, x: Value | None = None,
          at: int = 0, chains: dict | None = None) -> None:
    """Each fact the chains through ``firsts``, facts of step ``at``
    (else every first-step fact, or those starting at ``x``), obtain,
    into ``out`` with the strongest verdict so far (``at`` is 0 then).
    With ``chains``, every chain not known false goes there instead, as
    ``facts: (key, clean)`` (:mod:`repro.fdb.memo`): a chain found twice
    is one entry.

    A join, a hop at a time over partial chains ``(facts, fixed,
    moving, clean, members)``, outward from step ``at``: to the first
    step, each hop matching a fact's end to the chain's start, then to
    the last. ``clean`` — every match exact, every fact true — makes a
    chain true; ``members``, its facts that sit in an NC, say whether
    it is known false. Why that is the Section 3.2 valuation:
    DESIGN.md, "Evaluating an extension".
    """
    @functools.cache  # within this call: many chains share their NC members
    def known_false(members: tuple[Fact, ...]) -> bool:
        return any(negating_ncs(db.ncs, members))

    checkpoint = cancel.checkpoint if cancel.cancellation_active() else None
    true, ambiguous, obs_on = Truth.TRUE, Truth.AMBIGUOUS, OBS.enabled
    track = chains is not None
    if obs_on:
        OBS.inc("fdb.evaluate.accumulations")
        OBS.inc("fdb.chains.enumerations")
    steps = derivation.steps
    inverse = steps[at].op is Op.INVERSE
    table = db.table(steps[at].function.name)
    if firsts is None:
        firsts = (table.facts() if x is None else table.facts_with_y(x)
                  if inverse else table.facts_with_x(x))
    frontier = []
    for fact in firsts:
        if checkpoint:
            checkpoint()  # one per bound fact: a memo may join only one
        start, end = (fact.y, fact.x) if inverse else (fact.x, fact.y)
        fixed, moving = (end, start) if at else (start, end)
        frontier.append(((fact,) if track else (), fixed, moving,
                         fact.truth is true, (fact,) if fact.ncl else ()))
    hops = [*range(at - 1, -1, -1), *range(at + 1, len(steps))]
    chains_found = 0 if hops else len(frontier)
    for hop in hops:
        last, left = hop == hops[-1], hop < at
        if at and hop == at + 1:  # past the left hops the start is fixed
            frontier = [(facts, moving, fixed, clean, members) for
                        facts, fixed, moving, clean, members in frontier]
        table = db.table(steps[hop].function.name)
        # A right hop matches a fact's start and moves to its end, a
        # left hop the other way round.
        to_y = (steps[hop].op is Op.INVERSE) is left
        match = table.matching_x if to_y else table.matching_y
        # The hash join: per distinct value, what a chain arriving there
        # grows by — (next value, stays clean, NC member or None, the fact).
        matches: dict[Value, list[tuple]] = {}
        parents, frontier = frontier, []
        for facts, fixed, current, clean, members in parents:
            if checkpoint:
                checkpoint()
            found = matches.get(current)
            if found is None:
                exact, fuzzy = match(current)
                found = matches[current] = [
                    (fact.y if to_y else fact.x, hit and fact.truth is true,
                     fact if fact.ncl else None, fact)
                    for hit, pool in ((True, exact), (False, fuzzy))
                    for fact in pool]
            if last:
                chains_found += len(found)
            for value, ok, member, fact in found:
                grown = (members if member is None or member in members
                         else members + (member,))
                if not last:
                    frontier.append(((
                        (fact, *facts) if left else (*facts, fact)
                    ) if track else facts, fixed, value, clean and ok, grown))
                elif track:
                    if clean and ok or not (grown and known_false(grown)):
                        chains[(fact, *facts) if left else (*facts, fact)] = (
                            (value, fixed) if left else (fixed, value),
                            clean and ok)
                elif clean and ok:  # complete: fold it in here
                    out[fixed, value] = true
                elif not (grown and known_false(grown)):
                    out.setdefault((fixed, value), ambiguous)
    for facts, start, end, clean, members in frontier:  # one-step chains
        if track:
            if clean or not (members and known_false(members)):
                chains[facts] = (start, end), clean
        elif clean:
            out[start, end] = true  # keeps an earlier chain's place
        elif not (members and known_false(members)):
            out.setdefault((start, end), ambiguous)
    if obs_on:
        OBS.inc("fdb.chains.enumerated", chains_found)


def derived_extension(
    db: FunctionalDatabase, name: str
) -> dict[tuple[Value, Value], Truth]:
    """All derivable facts of a derived function with their truth
    values (false facts are absent — they are simply not derivable).

    This is what the paper prints as the Pupil column of the Section 4.2
    tables, ambiguous facts starred. Each call returns a fresh dict,
    maintained between calls by counted support (:mod:`repro.fdb.memo`).
    """
    extension = db.memo(name).extension(db, _join)
    if extension is None:  # a first scan, or in the caller's transaction
        return evaluate_derivations(db, db.derived(name).derivations)
    return extension


def derived_image(
    db: FunctionalDatabase, name: str, x: Value
) -> dict[Value, Truth]:
    """Range values of ``x`` under a derived function, with truths."""
    pairs = evaluate_derivations(db, db.derived(name).derivations, x)
    return {y: truth for (_, y), truth in pairs.items()}
