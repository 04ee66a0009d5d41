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

One loop evaluates a derivation: ``_join``, a hop at a time, from ``x``
with ``y`` bound at the last step (:func:`iter_chains` makes each chain
a :class:`Chain`), from every first-step fact for an extension
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
from repro.fdb.values import NullValue, Value
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

    The join's chains from ``x`` to ``y`` (``_join``), in order: by
    choice at step 1, 2, ..., exact matches first.
    """
    if obs_on := OBS.enabled:
        OBS.inc("fdb.chains.enumerations")
    for facts, _, _, exact, _, _ in _join(db, derivation, x=x, y=y,
                                       exact_only=not allow_ambiguous):
        if obs_on:
            # Per yield: a consumer may stop early (exists_nvc does).
            OBS.inc("fdb.chains.enumerated")
        yield Chain(derivation, facts, exact)


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
        _join(db, derivation, x=x, into=result, track=False)
    return result


def _join(db: FunctionalDatabase, derivation: Derivation,
          firsts: Iterable[Fact] | None = None, x: Value | None = None,
          y: Value | None = None, at: int = 0, *, exact_only: bool = False,
          into: dict | None = None, track: bool = True) -> list[tuple]:
    """The chains of ``derivation`` through ``firsts``, facts of step
    ``at`` (else all first-step facts, or those starting at ``x``),
    ending at ``y`` if given, exact matches only if ``exact_only``: each
    ``(facts, start, end, exact, clean, members)`` — its facts in step
    order, whether every match is exact and every fact true as well,
    its facts in an NC. ``into`` folds each chain not known false
    instead, with the strongest verdict found for it, under its facts
    (a memo) or, without ``track``, its key (an extension, from step 0).

    The one loop that extends partial chains, a hop at a time outward
    from step ``at``: to the first step, then to the last. A chain
    arriving at a value takes its exact matches from the value index,
    its ambiguous ones from a pool read once per hop: the null list for
    a non-null, else a snapshot of the step's facts, skipping the null's
    own. With ``y`` bound the last hop's pools come from the facts
    ending at ``y``, read only once the step holds a null. What a value
    grows a chain by is worked out once per hop, save for exact matches
    from a bound start. A hop keeps its parents' order, so from step 0
    the chains come in a depth-first walk's order. Why that is Section
    3.2's valuation: DESIGN.md, "One evaluator".
    """
    checkpoint = cancel.checkpoint if cancel.cancellation_active() else None
    true, ambiguous, obs_on = Truth.TRUE, Truth.AMBIGUOUS, OBS.enabled
    if into is not None:  # cached: many chains share their NC members
        known_false = functools.cache(
            lambda members: any(negating_ncs(db.ncs, members)))
        if obs_on:
            OBS.inc("fdb.evaluate.accumulations")
            OBS.inc("fdb.chains.enumerations")
    steps = derivation.steps
    last = len(steps) - 1
    inverse = steps[at].op is Op.INVERSE
    if firsts is None:
        table = db.table(steps[at].function.name)
        firsts = (table.facts() if x is None else table.facts_with_y(x)
                  if inverse else table.facts_with_x(x))
    frontier = []
    for fact in firsts:
        if checkpoint:
            checkpoint()  # one per partial chain, a bound fact included
        start, end = (fact.y, fact.x) if inverse else (fact.x, fact.y)
        if y is None or at < last or end == y:
            frontier.append(((fact,) if track else (), start, end, True,
                             fact.truth is true, (fact,) if fact.ncl else ()))
    lean = exact_only and x is not None  # a point listed: right hops only
    hops = (*range(at - 1, -1, -1), *range(at + 1, last + 1))
    folded = 0 if hops else len(frontier)  # complete chains
    for hop in hops:
        if not frontier:
            break
        left, final = hop < at, hop == hops[-1]
        table = db.table(steps[hop].function.name)
        # A right hop matches a fact's start and moves to its end, a
        # left hop the other way round.
        to_y = (steps[hop].op is Op.INVERSE) is left
        # The facts starting, and those ending, at a value.
        index, bucket = ((table.facts_with_x, table.facts_with_y) if to_y
                         else (table.facts_with_y, table.facts_with_x))
        bound = y if hop == last else None  # the last fact ends at y
        nulls = snapshot = None
        matches: dict[Value, list[tuple]] = {}
        parents, frontier = frontier, []
        grow = frontier.append
        for facts, start, end, exact, clean, members in parents:
            if checkpoint:
                checkpoint()
            current = start if left else end
            if lean:  # few values, each reached once: nothing to share
                for fact in index(current):
                    value = fact.y if to_y else fact.x
                    if bound is None or value == bound:
                        grow((facts + (fact,), start, value, True,
                              clean and fact.truth is true,
                              members + ((fact,) if fact.ncl else ())))
                continue
            found = matches.get(current)
            if found is None:
                # (a pool, its matches are exact, a start to skip)
                pools = [(index(current), True, None)]
                if not exact_only and isinstance(current, NullValue):
                    if snapshot is None:
                        snapshot = (tuple(table.facts()) if bound is None
                                    else bucket(bound))
                    pools.append((snapshot, False, current))
                elif not exact_only:
                    if nulls is None:
                        nulls = (table.null_x_facts() if to_y
                                 else table.null_y_facts())
                        if nulls and bound is not None:
                            if snapshot is None:
                                snapshot = bucket(bound)
                            nulls = [fact for fact in snapshot if isinstance(
                                fact.x if to_y else fact.y, NullValue)]
                    pools.append((nulls, False, None))
                # (the fact alone, where it moves to, exact, clean, member)
                found = matches[current] = []
                for pool, hit, skip in pools:
                    for fact in pool:
                        value = fact.y if to_y else fact.x
                        if (bound is None or value == bound) and (
                                skip is None or (
                                    fact.x if to_y else fact.y) != skip):
                            found.append((
                                (fact,) if track else (), value, hit,
                                hit and fact.truth is true,
                                (fact,) if fact.ncl else ()))
            if into is None or not final:
                for one, value, hit, ok, member in found:
                    if left:
                        grow((one + facts, value, end, exact and hit,
                              clean and ok, members + member))
                    else:
                        grow((facts + one, start, value, exact and hit,
                              clean and ok, members + member))
                continue
            folded += len(found)
            for one, value, hit, ok, member in found:  # complete: fold it
                chain = ((one + facts if left else facts + one) if track
                         else (start, value))
                if clean and ok:
                    into[chain] = true  # keeps an earlier chain's place
                elif not ((grown := members + member) and known_false(grown)):
                    into.setdefault(chain, ambiguous)
    if into is None:
        return frontier
    for facts, start, end, _, clean, members in frontier:  # one-step chains
        chain = facts if track else (start, end)
        if clean:
            into[chain] = true
        elif not (members and known_false(members)):
            into.setdefault(chain, ambiguous)
    if obs_on:
        OBS.inc("fdb.chains.enumerated", folded)
    return []


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
