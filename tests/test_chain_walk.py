"""The chain walk against the walk it replaced.

``iter_chains`` takes each step's ambiguous candidates once per
enumeration: the step's null list, or one snapshot of its facts when a
chain arrives at a null — at the last step of a walk with ``y`` bound,
only the facts ending at ``y``. The walk it replaced rebuilt both lists
for every partial chain and filtered by ``y`` after the last step's
scan; it lives on here, copied as it was, as the
*reference* (:func:`reference_chains`): the walk must yield the very
same facts, in the same order, with the same ``all_exact``. Since
``tests/test_extension_join.py`` holds the join to the live walk, this
file ties both back to the old one.

The point fold over the walk (``truth_over``) stops valuing chains once
one came out ambiguous, and reads "superset of an NC" off the NCLs
(``negating_ncs``). The fold that valued every chain against NC member
sets is its reference (:func:`reference_truth`): same verdict, with
telemetry on or off. Derived INS's "already true?" check walks exact
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
from repro.fdb.evaluate import Chain, iter_chains, negating_ncs, truth_over
from repro.fdb.facts import Fact
from repro.fdb.logic import Truth
from repro.fdb.query import fn
from repro.fdb.table import FunctionTable
from repro.fdb.values import Value, is_null
from repro.obs import OBS, CallbackSink
from repro.workloads.generator import chain_fdb, random_instance
from tests.test_extension_join import queries_over_chain
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


def shape(chains) -> list:
    """Each chain as its facts (by identity) and its ``all_exact``."""
    return [(tuple(map(id, chain.facts)), chain.all_exact)
            for chain in chains]


def assert_walk_matches_reference(db, derivation, x=None, y=None) -> None:
    for allow_ambiguous in (True, False):
        walked = list(iter_chains(db, derivation, x, y,
                                  allow_ambiguous=allow_ambiguous))
        expected = reference_chains(db, derivation, x, y,
                                    allow_ambiguous=allow_ambiguous)
        assert shape(walked) == shape(expected)
        assert all(chain.derivation is derivation for chain in walked)


def derivations_over_chain(db, k: int) -> list[Derivation]:
    return [derivation for query in queries_over_chain(k)
            for derivation in query.derivations(db)]


def endpoints(db, derivation) -> tuple[list, list]:
    """A few start and end values the instance has, nulls included, and
    one it lacks."""
    steps = derivation.steps
    starts = {chain.start for chain in iter_chains(db, derivation)}
    ends = {chain.end for chain in iter_chains(db, derivation)}
    head = db.table(steps[0].function.name)
    starts |= {fact.y if steps[0].op is Op.INVERSE else fact.x
               for fact in head.facts()}
    order = sorted(starts, key=repr)[:3], sorted(ends, key=repr)[:3]
    return order[0] + ["absent"], order[1] + ["absent"]


def assert_every_walk_matches(db, k: int) -> None:
    for derivation in derivations_over_chain(db, k):
        xs, ys = endpoints(db, derivation)
        assert_walk_matches_reference(db, derivation)
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
        for chain in iter_chains(db, derivation, x, y):
            support = reference_supports(db, chain)
            if support is Truth.TRUE:
                return support
            if support is Truth.AMBIGUOUS:
                verdict = support
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
        chains = list(iter_chains(db, derivation))
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
    assert any(not chain.all_exact for chain in iter_chains(
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


# -- the pools are taken once per enumeration ---------------------------------


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
    db = nvc_chain_db()
    derivation = db.derived("v").primary
    # Every chain reached f2 and f3; far more than two partial chains did.
    assert len({chain.facts[:2] for chain in iter_chains(db, derivation)}
               ) > 100

    calls = spy_on_tables(monkeypatch)
    for x, allow_ambiguous in ((None, True), (None, False), ("T0_1", True)):
        calls.clear()
        walked = list(iter_chains(db, derivation, x,
                                  allow_ambiguous=allow_ambiguous))
        assert walked
        copies = [table for table, method, _ in calls if method in COPIES]
        assert max(copies.count(name) for name in ("f1", "f2", "f3")) <= 2
    assert shape(walked) == shape(reference_chains(db, derivation, "T0_1"))


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
    """With ``y`` bound the last step's pools come from its y-bucket,
    read at most once per walk: never a snapshot of the whole table."""
    db = nvc_chain_db() if which == "chain" else inverted_last_db()
    derivation = db.derived("v").primary
    last = derivation.steps[-1].function.name
    chains = list(iter_chains(db, derivation))
    ys = sorted({chain.end for chain in chains}, key=repr)
    # The last step but one is forward in both: some chains reach the
    # last step at a null.
    assert any(is_null(chain.facts[-2].y) for chain in chains)
    calls = spy_on_tables(monkeypatch)
    ambiguous = 0
    for y in ys[:3] + ys[-2:] + ["absent"]:  # rows' ends, then NVCs'
        for x in (None, "T0_1"):
            for allow_ambiguous in (True, False):
                calls.clear()
                walked = list(iter_chains(db, derivation, x, y,
                                          allow_ambiguous=allow_ambiguous))
                assert (last, "facts", ()) not in calls
                assert calls.count(last_bucket(derivation, y)) <= 1
                ambiguous += sum(not chain.all_exact for chain in walked)
                assert shape(walked) == shape(reference_chains(
                    db, derivation, x, y, allow_ambiguous=allow_ambiguous))
    assert ambiguous  # the cut pools did yield chains


def test_a_bound_walk_over_no_nulls_reads_what_an_unbound_one_does(
        monkeypatch):
    """The read path's guard: with no null stored, a bound walk makes
    exactly the table calls of the unbound walk — no y-bucket read."""
    db = chain_fdb(3)
    random_instance(db, 20, seed=5, value_pool=6)
    assert not any(table.null_x_facts() or table.null_y_facts()
                   for table in map(db.table, ("f1", "f2", "f3")))
    calls = spy_on_tables(monkeypatch)
    for query in queries_over_chain(3):
        for derivation in query.derivations(db):
            for x in (None, "T0_1", "T3_2"):
                calls.clear()
                list(iter_chains(db, derivation, x))
                unbound = list(calls)
                for y in ("T3_2", "T0_1", "absent"):
                    calls.clear()
                    list(iter_chains(db, derivation, x, y))
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
               for chain in iter_chains(db, db.derived("v").primary, y=y))


def test_bound_walk_with_inverted_last_step_equals_reference():
    """``f1 o f2^-1``: the bound last step reads f2's x index and keeps
    its null-y facts for non-null arrivals."""
    db = inverted_last_db()
    derivation = db.derived("v").primary
    xs, ys = endpoints(db, derivation)
    for y in ys:
        for x in [None, *xs]:
            assert_walk_matches_reference(db, derivation, x, y)
