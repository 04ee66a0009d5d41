"""The one chain evaluator against the walks it replaced.

``iter_chains`` yields the chains of the hop-at-a-time join
(``evaluate._join``), which also answers extensions, images and the
maintained extension's delta rules. Two older evaluators live on here
as oracles, independent of that join:

* :func:`reference_chains`, the per-partial-chain walk that rebuilt
  both candidate lists for every partial chain and filtered by ``y``
  after the last step's scan, copied as it was;
* :func:`walk_chains`, the depth-first walk that replaced it and took
  each step's ambiguous candidates once per walk — the step's null
  list, or one snapshot of its facts when a chain arrives at a null,
  at the last step of a walk with ``y`` bound only the facts ending at
  ``y`` — copied as it left ``src/``.

``iter_chains`` must yield the very same facts as both, in the same
order, with the same ``all_exact``. The folds the other test files
hold the engine to (``reference_truth`` here, ``reference_pairs`` in
``tests/test_extension_join.py``) run over :func:`walk_chains`.

The point fold over the chains (``truth_over``) stops valuing chains
once one came out ambiguous, and reads "superset of an NC" off the NCLs
(``negating_ncs``). The fold that valued every chain against NC member
sets is its reference (:func:`reference_truth`): same verdict, with
telemetry on or off. Derived INS's "already true?" check joins exact
chains alone; the same reference says when it must be a no-op.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.derivation import Derivation, Op, Step
from repro.core.schema import FunctionDef
from repro.core.types import ObjectType, TypeFunctionality
from repro.fdb import updates
from repro.fdb.database import FunctionalDatabase
from repro.fdb import evaluate
from repro.fdb.evaluate import (
    Chain,
    evaluate_derivations,
    iter_chains,
    negating_ncs,
    truth_over,
)
from repro.fdb.facts import Fact
from repro.fdb.logic import Truth
from repro.fdb.query import fn
from repro.fdb.table import FunctionTable
from repro.fdb.values import Value, is_null
from repro.obs import OBS, CallbackSink
from repro.workloads.generator import chain_fdb, random_instance
from tests.test_transaction_properties import (
    Abort,
    apply_step,
    build,
    make_steps,
)

MM = TypeFunctionality.MANY_MANY


# -- the reference: the per-partial-chain walk ------------------------------


def _candidates(
    db: FunctionalDatabase, derivation: Derivation, x: Value | None,
    allow_ambiguous: bool, index: int, current: Value | None,
) -> Iterator[tuple[Fact, bool]]:
    step = derivation.steps[index]
    table = db.table(step.function.name)
    inverse = step.op is Op.INVERSE
    if index == 0:
        if x is None:
            for fact in table.facts():
                yield fact, True
        elif inverse:
            for fact in table.facts_with_y(x):
                yield fact, True
        else:
            for fact in table.facts_with_x(x):
                yield fact, True
        return
    exact, ambiguous = (
        table.matching_y(current) if inverse else table.matching_x(current)
    )
    for fact in exact:
        yield fact, True
    if allow_ambiguous:
        for fact in ambiguous:
            yield fact, False


def _extend(
    db: FunctionalDatabase, derivation: Derivation, x: Value | None,
    y: Value | None, allow_ambiguous: bool, index: int,
    facts: tuple[Fact, ...], current: Value | None, all_exact: bool,
) -> Iterator[Chain]:
    steps = derivation.steps
    if index == len(steps):
        yield Chain(derivation, facts, all_exact)
        return
    inverse = steps[index].op is Op.INVERSE
    last = index == len(steps) - 1
    for fact, exact_match in _candidates(db, derivation, x,
                                         allow_ambiguous, index, current):
        effective_end = fact.x if inverse else fact.y
        if last and y is not None and effective_end != y:
            continue
        yield from _extend(
            db, derivation, x, y, allow_ambiguous,
            index + 1,
            facts + (fact,),
            effective_end,
            all_exact and exact_match,
        )


def reference_chains(db, derivation, x=None, y=None, *,
                     allow_ambiguous=True) -> list[Chain]:
    return list(_extend(db, derivation, x, y, allow_ambiguous,
                        0, (), None, True))


# -- the walk that left src/: one pool read per step and walk -----------------


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


def _walk(derivation: Derivation, y: Value | None, hops: list[_Hop],
          index: int, facts: tuple[Fact, ...], pools: tuple,
          all_exact: bool) -> Iterator[Chain]:
    inverse = hops[index].inverse
    following = hops[index + 1] if index + 1 < len(hops) else None
    for candidates, exact_match, skip in pools:
        still_exact = all_exact and exact_match
        for fact in candidates:
            if skip is not None and (fact.y if inverse else fact.x) == skip:
                continue
            end = fact.x if inverse else fact.y
            if following is not None:
                yield from _walk(derivation, y, hops, index + 1,
                                 facts + (fact,), following.pools(end),
                                 still_exact)
            elif y is None or end == y:
                yield Chain(derivation, facts + (fact,), still_exact)


def walk_chains(db, derivation, x=None, y=None, *,
                allow_ambiguous=True) -> Iterator[Chain]:
    """The depth-first walk ``iter_chains`` ran before the join did."""
    hops = [_Hop(db.table(step.function.name), step.op is Op.INVERSE,
                 allow_ambiguous) for step in derivation.steps]
    hops[-1].y = y  # Section 3.2: the last fact must end at y exactly
    starts = hops[0].table.facts() if x is None else hops[0].exact(x)
    return _walk(derivation, y, hops, 0, (), ((starts, True, None),), True)


def shape(chains) -> list:
    """Each chain as its facts (by identity) and its ``all_exact``."""
    return [(tuple(map(id, chain.facts)), chain.all_exact)
            for chain in chains]


def assert_walk_matches_reference(db, derivation, x=None, y=None) -> None:
    for allow_ambiguous in (True, False):
        joined = list(iter_chains(db, derivation, x, y,
                                  allow_ambiguous=allow_ambiguous))
        expected = reference_chains(db, derivation, x, y,
                                    allow_ambiguous=allow_ambiguous)
        assert shape(joined) == shape(expected)
        assert all(chain.derivation is derivation for chain in joined)


def queries_over_chain(k: int) -> list:
    """Expressions over ``chain_fdb(k)`` whose normal forms start or
    end on an inverse step, repeat a function, or have one step."""
    v, first, last = fn("v"), fn("f1"), fn(f"f{k}")
    return [v, ~v, ~first, v * ~last, ~first * v, first * ~first]


def derivations_over_chain(db, k: int) -> list[Derivation]:
    return [derivation for query in queries_over_chain(k)
            for derivation in query.derivations(db)]


def endpoints(db, derivation) -> tuple[list, list]:
    """A few start and end values the instance has, nulls included, and
    one it lacks."""
    steps = derivation.steps
    starts = {chain.start for chain in walk_chains(db, derivation)}
    ends = {chain.end for chain in walk_chains(db, derivation)}
    head = db.table(steps[0].function.name)
    starts |= {fact.y if steps[0].op is Op.INVERSE else fact.x
               for fact in head.facts()}
    order = sorted(starts, key=repr)[:3], sorted(ends, key=repr)[:3]
    return order[0] + ["absent"], order[1] + ["absent"]


def assert_every_walk_matches(db, k: int) -> None:
    for derivation in derivations_over_chain(db, k):
        xs, ys = endpoints(db, derivation)
        assert_walk_matches_reference(db, derivation)
        for allow_ambiguous in (True, False):  # the oracle the folds use
            assert shape(walk_chains(
                db, derivation, allow_ambiguous=allow_ambiguous)) == shape(
                iter_chains(db, derivation, allow_ambiguous=allow_ambiguous))
        for x in xs:
            assert_walk_matches_reference(db, derivation, x=x)
        for y in ys:
            assert_walk_matches_reference(db, derivation, y=y)
        for x, y in zip(xs, reversed(ys)):
            assert_walk_matches_reference(db, derivation, x, y)


# -- the reference point fold: the parent's superset test ---------------------


def reference_negated_by(db, chain) -> set[int]:
    """The NCs whose member set lies inside the chain's fact references."""
    refs = chain.refs
    return {index for fact in chain.facts for index in fact.ncl
            if index in db.ncs
            and frozenset(db.ncs.get(index).members) <= refs}


def reference_supports(db, chain) -> Truth:
    if chain.all_exact and chain.all_true:
        return Truth.TRUE
    return Truth.FALSE if reference_negated_by(db, chain) else Truth.AMBIGUOUS


def reference_truth(db, derivations, x, y) -> Truth:
    """The fold that valued every chain up to the first true one."""
    verdict = Truth.FALSE
    for derivation in derivations:
        for chain in walk_chains(db, derivation, x, y):
            support = reference_supports(db, chain)
            if support is Truth.TRUE:
                return support
            if support is Truth.AMBIGUOUS:
                verdict = support
    return verdict


def reference_pairs(db, derivations, x=None) -> dict:
    """The extension fold over the walk: every chain classified by
    ``Chain.supports`` and accumulated into a pair -> strongest-truth
    map, keys in the order the walk first obtains them. Once a pair is
    ambiguous only a true chain can change it, so later chains are
    tested for that alone."""
    into: dict = {}
    for derivation in derivations:
        for chain in walk_chains(db, derivation, x=x):
            held = into.get(chain.pair)
            if held is Truth.AMBIGUOUS and chain.all_exact and chain.all_true:
                into[chain.pair] = Truth.TRUE
            elif held is None:
                support = chain.supports(db)
                if support is not Truth.FALSE:
                    into[chain.pair] = support
    return into


def walk_truth(db, derivations, x, y) -> Truth:
    """The strongest verdict a chain of the walk from ``x`` to ``y``
    supports: the point fold over the walk, with the engine's NC rule
    (``Chain.supports``), which a rewrite merging two members of an NC
    can set apart from the member-set test of :func:`reference_truth`."""
    verdict = Truth.FALSE
    for derivation in derivations:
        for chain in walk_chains(db, derivation, x, y):
            if chain.all_exact and chain.all_true:
                return Truth.TRUE
            if verdict is Truth.FALSE and not chain.is_known_false(db):
                verdict = Truth.AMBIGUOUS
    return verdict


def recorded(call) -> tuple[object, list]:
    """``call()`` with telemetry on: its result and the events emitted."""
    seen: list = []
    sink = OBS.events.add_sink(CallbackSink(seen.append))
    try:
        with OBS.collecting():
            result = call()
    finally:
        OBS.events.remove_sink(sink)
        OBS.reset()
    return result, seen


def assert_point_fold_matches_reference(db, k: int) -> None:
    for derivation in derivations_over_chain(db, k):
        chains = list(walk_chains(db, derivation))
        for chain in chains:
            expected = reference_negated_by(db, chain)
            assert set(negating_ncs(db.ncs, chain.facts)) == expected
            assert chain.is_known_false(db) is bool(expected)
        # The points most chains obtain, and one no chain does.
        busiest = Counter(chain.pair for chain in chains).most_common(4)
        points = [pair for pair, _ in busiest] + [("absent", "absent")]
        for x, y in points:
            verdict = reference_truth(db, [derivation], x, y)
            assert truth_over(db, [derivation], x, y) is verdict
            observed, seen = recorded(
                lambda: truth_over(db, [derivation], x, y))
            assert observed is verdict
            assert "chain.evaluated" not in {record.name for record in seen}


# -- random streams -----------------------------------------------------------


streams = dict(
    seed=st.integers(0, 10_000), k=st.integers(2, 4),
    rows=st.integers(0, 8), count=st.integers(1, 20),
    single_valued=st.booleans(), abort=st.booleans(), twice=st.booleans())


def stream_db(seed, k, rows, count, single_valued, abort, twice):
    """A chain database after a random stream of base and derived
    INS/DEL, its second half rolled back when ``abort``. ``twice`` adds
    ``h = f1 o f1^-1`` to the schema, so one fact can serve both steps
    of a chain: ``INS h(a, a)`` stores ``f1(a, n)`` once for both, and a
    DEL negating such a chain deletes that one fact (a conjunction of
    one distinct fact) instead of storing an NC."""
    db = build(seed, k, rows, single_valued)
    if twice:
        f1 = db.schema["f1"]
        db.declare_derived(
            FunctionDef("h", f1.domain, f1.domain, MM),
            Derivation([Step(f1), Step(f1, Op.INVERSE)]))
    steps = make_steps(db, seed, count)
    kept = steps[:len(steps) // 2] if abort else steps
    for step in kept:
        apply_step(db, step)
    if abort:
        # Rolled-back discards go back in seq order (_restore_order).
        with pytest.raises(Abort):
            with db.transaction():
                for step in steps[len(kept):]:
                    apply_step(db, step)
                raise Abort
    assert db.structure_fault() is None
    return db


@settings(max_examples=200, deadline=None)
@given(**streams)
def test_walk_equals_reference_on_random_streams(
        seed, k, rows, count, single_valued, abort, twice):
    db = stream_db(seed, k, rows, count, single_valued, abort, twice)
    assert_every_walk_matches(db, k)


@settings(max_examples=150, deadline=None)
@given(**streams)
def test_point_fold_equals_reference_on_random_streams(
        seed, k, rows, count, single_valued, abort, twice):
    """The shared rule reads every chain as the member-set test did;
    ``truth_over`` gives the verdict of the fold that valued every
    chain, with telemetry on or off, and emits no per-chain event."""
    db = stream_db(seed, k, rows, count, single_valued, abort, twice)
    assert_point_fold_matches_reference(db, k)


@settings(max_examples=150, deadline=None)
@given(**streams)
def test_insert_check_equals_reference_on_random_streams(
        seed, k, rows, count, single_valued, abort, twice):
    """Derived INS asks only for an exact chain of true facts: at every
    derived INS of a stream (REPs and rolled-back ones included) it is a
    no-op exactly when the fold that valued every chain found the fact
    true, and it values no chain on the way."""
    checked: list = []
    derived_insert = updates.derived_insert

    def check(db, name, x, y):
        verdict = reference_truth(db, db.derived(name).derivations, x, y)
        _, seen = recorded(lambda: derived_insert(db, name, x, y))
        names = {record.name for record in seen}
        assert "chain.evaluated" not in names
        checked.append((verdict is Truth.TRUE, "insert.already_true" in names))

    with mock.patch.object(updates, "derived_insert", check):
        stream_db(seed, k, rows, count, single_valued, abort, twice)
    assert all(true == no_op for true, no_op in checked)


def test_insert_check_values_no_chain():
    """With telemetry on, a derived INS of a true fact says so and a
    fresh pair gets its NVC; neither emits ``chain.evaluated`` nor counts
    a truth check, though ambiguous chains obtain the fresh pair."""
    db = chain_fdb(2)
    db.load("f1", [("a", "b")])
    db.load("f2", [("b", "c")])
    db.insert("v", "a2", "c2")  # f1(a2, n1), f2(n1, c2)
    assert any(not chain.all_exact for chain in walk_chains(
        db, db.derived("v").primary, "a", "c2"))

    def insert(x, y):
        db.insert("v", x, y)
        return OBS.metrics.snapshot()["counters"]

    for (x, y), event in ((("a", "c"), "insert.already_true"),
                          (("a", "c2"), "nvc.created")):
        counters, seen = recorded(lambda: insert(x, y))
        names = [record.name for record in seen]
        assert event in names and "chain.evaluated" not in names
        assert not counters.get("fdb.evaluate.truth_checks")
    assert db.truth_of("v", "a", "c2") is Truth.TRUE


def test_walk_equals_reference_with_many_nulls():
    """Derived inserts of fresh pairs: every step has a long null list
    and chains arrive at nulls mid-walk."""
    db = chain_fdb(3)
    random_instance(db, 12, seed=7, value_pool=5)
    for i in range(15):
        db.insert("v", f"T0_{i % 5}", f"T3_new{i}")
    db.delete("v", "T0_1", "T3_new1")
    assert db.nulls.next_index > 20 and len(db.ncs) >= 1
    assert_every_walk_matches(db, 3)
    assert_point_fold_matches_reference(db, 3)


@pytest.mark.parametrize("value", ["T1_0", "missing"])
def test_matching_agrees_with_the_filtered_scan(value):
    """A non-null value's ambiguous side is the whole null list: the
    ``!= value`` filter it used to run kept every null."""
    db = chain_fdb(2)
    random_instance(db, 10, seed=3, value_pool=4)
    db.insert("v", "T0_0", "T2_new")
    db.table("f2").add_pair(db.nulls.fresh(), "T2_0")
    for table in (db.table("f1"), db.table("f2")):
        for probe in [value, *(f.x for f in table.null_x_facts()),
                      *(f.y for f in table.null_y_facts())]:
            _, ambiguous = table.matching_x(probe)
            assert ambiguous == [f for f in table.facts()
                                 if f.x != probe and (is_null(f.x)
                                                      or is_null(probe))]
            _, ambiguous = table.matching_y(probe)
            assert ambiguous == [f for f in table.facts()
                                 if f.y != probe and (is_null(f.y)
                                                      or is_null(probe))]


# -- the pools are taken once per hop -----------------------------------------


COPIES = ("facts", "null_x_facts", "null_y_facts", "matching_x",
          "matching_y")
READS = COPIES + ("facts_with_x", "facts_with_y")


def spy_on_tables(monkeypatch) -> list[tuple]:
    """Every table read from now on, as (table, method, args)."""
    calls: list[tuple] = []
    for name in READS:
        original = getattr(FunctionTable, name)

        def spy(table, *args, _original=original, _name=name):
            calls.append((table.name, _name, args))
            return _original(table, *args)

        monkeypatch.setattr(FunctionTable, name, spy)
    return calls


def spy_on_joins(monkeypatch) -> list[tuple]:
    """Every run of the one loop (``evaluate._join``) from now on, as the
    (x, y) it was bound to."""
    joins: list[tuple] = []
    join = evaluate._join

    def spy(db, derivation, *args, **kwargs):
        joins.append((kwargs.get("x"), kwargs.get("y")))
        return join(db, derivation, *args, **kwargs)

    monkeypatch.setattr(evaluate, "_join", spy)
    return joins


def nvc_chain_db() -> FunctionalDatabase:
    """``chain_fdb(3)`` with 25 NVCs, two nulls each, beside 20 rows a
    table: chains arrive at nulls and at non-nulls on every step."""
    db = chain_fdb(3)
    random_instance(db, 20, seed=5, value_pool=6)
    for i in range(25):
        db.insert("v", f"T0_{i % 6}", f"T3_new{i}")
    assert db.nulls.next_index > 2 * 20
    return db


def test_one_walk_copies_each_table_at_most_twice(monkeypatch):
    """One join copies each table at most twice — its null list and one
    snapshot, however many nulls chains arrive at: a walk from ``x`` or
    from every start, a scan from scratch, and a maintained extension's
    delta rule for writes to several facts that start at nulls."""
    db = nvc_chain_db()
    derivation = db.derived("v").primary
    # Every chain reached f2 and f3; far more than two partial chains did.
    assert len({chain.facts[:2] for chain in walk_chains(db, derivation)}
               ) > 100
    small = chain_fdb(3)  # the scan and the delta: 8 NVCs, 16 nulls
    random_instance(small, 6, seed=5, value_pool=3)
    for i in range(8):
        small.insert("v", f"T0_{i % 3}", f"T3_new{i}")
    for _ in range(2):  # a memo starts at the second scan
        small.extension("v")
    calls = spy_on_tables(monkeypatch)

    def copying_at_most_twice(call):
        calls.clear()
        result = call()
        copies = [table for table, method, _ in calls if method in COPIES]
        assert max(copies.count(name) for name in ("f1", "f2", "f3")) <= 2
        return result

    for x, allow_ambiguous in ((None, True), (None, False), ("T0_1", True)):
        walked = copying_at_most_twice(lambda: list(iter_chains(
            db, derivation, x, allow_ambiguous=allow_ambiguous)))
        assert walked
    assert shape(walked) == shape(reference_chains(db, derivation, "T0_1"))
    derivations = small.derived("v").derivations
    extension = copying_at_most_twice(
        lambda: evaluate_derivations(small, derivations))
    assert extension == reference_pairs(small, derivations)
    starts = [fact.x for fact in small.table("f2").null_x_facts()[:4]]
    for i, null in enumerate(starts):  # each joins from f1 to a null
        small.insert("f2", null, f"T2_d{i}")
    assert len(small.memo("v").pending) == len(starts)
    kept = copying_at_most_twice(lambda: small.extension("v"))
    assert not small.memo("v").pending
    assert kept == reference_pairs(small, derivations)


# -- a bound y cuts the last step to its y-bucket -----------------------------


def inverted_last_db() -> FunctionalDatabase:
    """``v = f1 o f2^-1`` (f1: T0 -> T1, f2: T2 -> T1) over random rows,
    NVCs and one NC: the last step is inverted, so its y-bucket is the
    x index and its null list the null *y* facts."""
    db = FunctionalDatabase()
    t0, t1, t2 = (ObjectType(f"T{i}") for i in range(3))
    f1, f2 = FunctionDef("f1", t0, t1, MM), FunctionDef("f2", t2, t1, MM)
    db.declare_base(f1)
    db.declare_base(f2)
    db.declare_derived(FunctionDef("v", t0, t2, MM),
                       Derivation([Step(f1), Step(f2, Op.INVERSE)]))
    random_instance(db, 10, seed=11, value_pool=4)
    for i in range(12):
        db.insert("v", f"T0_{i % 5}", f"T2_{i % 3}")
    db.delete("v", "T0_4", "T2_1")
    assert db.table("f2").null_y_facts() and len(db.ncs) >= 1
    return db


def last_bucket(derivation, y) -> tuple:
    """The (table, method, args) call reading the last step's y-bucket."""
    step = derivation.steps[-1]
    method = "facts_with_x" if step.op is Op.INVERSE else "facts_with_y"
    return step.function.name, method, (y,)


@pytest.mark.parametrize("which", ["chain", "inverted"])
def test_a_bound_walk_reads_only_the_last_steps_y_bucket(which, monkeypatch):
    """With ``y`` bound the join's last hop takes its pools from the
    step's y-bucket, read at most once per join: never a snapshot of
    the whole table. A point enumeration is one run of the join, bound
    to ``x`` and ``y``."""
    db = nvc_chain_db() if which == "chain" else inverted_last_db()
    derivation = db.derived("v").primary
    last = derivation.steps[-1].function.name
    chains = list(walk_chains(db, derivation))
    ys = sorted({chain.end for chain in chains}, key=repr)
    # The last step but one is forward in both: some chains reach the
    # last step at a null.
    assert any(is_null(chain.facts[-2].y) for chain in chains)
    calls, joins = spy_on_tables(monkeypatch), spy_on_joins(monkeypatch)
    ambiguous = 0
    for y in ys[:3] + ys[-2:] + ["absent"]:  # rows' ends, then NVCs'
        for x in (None, "T0_1"):
            for allow_ambiguous in (True, False):
                calls.clear()
                joins.clear()
                walked = list(iter_chains(db, derivation, x, y,
                                          allow_ambiguous=allow_ambiguous))
                assert joins == [(x, y)]
                assert (last, "facts", ()) not in calls
                assert calls.count(last_bucket(derivation, y)) <= 1
                ambiguous += sum(not chain.all_exact for chain in walked)
                assert shape(walked) == shape(reference_chains(
                    db, derivation, x, y, allow_ambiguous=allow_ambiguous))
    assert ambiguous  # the cut pools did yield chains


def test_a_bound_walk_over_no_nulls_reads_what_an_unbound_one_does(
        monkeypatch):
    """The read path's guard: with no null stored, the join bound to
    ``y`` makes exactly the table calls of the join that is not — no
    y-bucket read."""
    db = chain_fdb(3)
    random_instance(db, 20, seed=5, value_pool=6)
    assert not any(table.null_x_facts() or table.null_y_facts()
                   for table in map(db.table, ("f1", "f2", "f3")))
    calls, joins = spy_on_tables(monkeypatch), spy_on_joins(monkeypatch)
    for query in queries_over_chain(3):
        for derivation in query.derivations(db):
            for x in (None, "T0_1", "T3_2"):
                calls.clear()
                list(iter_chains(db, derivation, x))
                unbound = list(calls)
                for y in ("T3_2", "T0_1", "absent"):
                    calls.clear()
                    joins.clear()
                    list(iter_chains(db, derivation, x, y))
                    assert joins == [(x, y)]
                    assert calls == unbound


def test_bound_walk_to_a_null_equals_reference():
    """``y`` a null: the last step's y-bucket is that null's facts,
    reached from a null (all but the null's own facts) and from a
    non-null (the bucket's null-start facts)."""
    db = chain_fdb(2)
    random_instance(db, 10, seed=3, value_pool=4)
    for i in range(8):
        db.insert("v", f"T0_{i % 4}", f"T2_new{i}")
    db.delete("v", "T0_1", "T2_new1")
    f2 = db.table("f2")
    # Two nulls of T2, each ending a non-null-, an NVC null- and a
    # fresh null-start fact.
    targets = [db.nulls.fresh() for _ in range(2)]
    for i, target in enumerate(targets):
        for start in (f"T1_{i}", f2.null_x_facts()[i].x, db.nulls.fresh()):
            f2.add_pair(start, target)
    # v o f2^-1 ends on f2's domain, where the NVCs left their nulls.
    ends = [fact.x for fact in f2.null_x_facts()[:3]]
    for query, ys in ((fn("v"), targets), (fn("v") * ~fn("f2"), ends)):
        for derivation in query.derivations(db):
            for y in ys:
                for x in (None, "T0_0", "T0_1"):
                    assert_walk_matches_reference(db, derivation, x, y)
    assert any(not chain.all_exact for y in targets
               for chain in walk_chains(db, db.derived("v").primary, y=y))


def test_bound_walk_with_inverted_last_step_equals_reference():
    """``f1 o f2^-1``: the bound last step reads f2's x index and keeps
    its null-y facts for non-null arrivals."""
    db = inverted_last_db()
    derivation = db.derived("v").primary
    xs, ys = endpoints(db, derivation)
    for y in ys:
        for x in [None, *xs]:
            assert_walk_matches_reference(db, derivation, x, y)
