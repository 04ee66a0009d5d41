"""The maintained extension against the walk's fold.

``db.extension`` / ``derived_extension`` answer from counted chains kept
since the last scan (:mod:`repro.fdb.memo`) and join again only the
chains through the facts a write changed. The fold over the depth-first
walk (``reference_pairs`` in ``tests/test_chain_walk.py``, which shares
no code with the join the memo runs) computes the same extension from
scratch; after every op of a random stream the two must be the same
mapping (the maintained keys' order follows the op history, the walk's
the walk). The streams mix base and derived INS / DEL, REP, atomic
sequences, aborted transactions (null resolution inside some), journal
undo and redo, bare INS / DEL, null resolution on a many-one schema,
bare NC dismantling and new derived functions declared between scans,
over chains of two to four steps, inverse steps, self-joins and a
function with two derivations. A function's first scan keeps nothing,
so each stream scans every function twice before its first op. The
memos learn of a change only from the undo records
(:mod:`repro.fdb.undo`), handed over at a commit, a journal undo, the
end of a bare INS or DEL, a scan and a point read. On the same streams
a point ``truth_of``, which applies what waits to a kept memo and then
answers from it, or else joins the chains from ``x`` to ``y``, must
give the walk's verdict (``reference_pairs`` from ``x``; ``walk_truth``
for a single read).
"""

from __future__ import annotations

import random
import sys
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import cancel
from repro.core.derivation import Derivation, Op, Step
from repro.core.schema import FunctionDef
from repro.core.types import ObjectType, TypeFunctionality
from repro.errors import DeadlineExceeded, ReproError
from repro.fdb import evaluate
from repro.fdb.constraints import resolve_nulls
from repro.fdb.evaluate import derived_extension
from repro.fdb.journal import Journal
from repro.fdb.logic import Truth
from repro.fdb.memo import ExtensionMemo
from repro.fdb.updates import Update, UpdateSequence, apply_update
from repro.fdb.values import NullValue
from repro.service import DatabaseService
from repro.workloads.generator import (WorkloadConfig, chain_fdb,
                                       random_instance, random_updates)
from repro.workloads.university import pupil_database
from tests.test_chain_walk import reference_pairs, walk_chains, walk_truth

POOL = 5
SHAPES = ("chain", "inverse", "self-join", "two-derivations")


class Abort(Exception):
    pass


def declare(db, name: str, *steps) -> None:
    """Declare ``name`` over ``steps``: a FunctionDef or ``(f, "inv")``."""
    steps = [Step(s[0], Op.INVERSE) if isinstance(s, tuple) else Step(s)
             for s in steps]
    derivation = Derivation(steps)
    db.declare_derived(
        FunctionDef(name, derivation.domain, derivation.range,
                    TypeFunctionality.MANY_MANY), derivation)


def build(shape: str, k: int, many_one: bool):
    """The database and the declarations a stream may add later."""
    db = chain_fdb(k if shape == "chain" else 2, functionality=(
        TypeFunctionality.MANY_ONE if many_one
        else TypeFunctionality.MANY_MANY))
    f1, f2 = db.schema["f1"], db.schema["f2"]
    later = [("late_self", (f1, (f1, "inv"))), ("late_chain", (f1, f2))]
    if shape == "inverse":
        f3 = FunctionDef("f3", ObjectType("T3"), f1.range,
                         TypeFunctionality.MANY_MANY)
        db.declare_base(f3)
        declare(db, "u", f1, (f3, "inv"))
        declare(db, "w", (f2, "inv"), (f1, "inv"))
    elif shape == "self-join":
        declare(db, "s", f1, (f1, "inv"))
        declare(db, "t", (f1, "inv"), f1, f2)
    elif shape == "two-derivations":
        g1 = FunctionDef("g1", f1.domain, f1.range,
                         TypeFunctionality.MANY_MANY)
        db.declare_base(g1)
        db.declare_derived(
            FunctionDef("v2", f1.domain, f2.range,
                        TypeFunctionality.MANY_MANY),
            (Derivation.of(f1, f2), Derivation.of(g1, f2)))
    return db, later


def assert_maintained(db, name: str) -> None:
    scratch = reference_pairs(db, db.derived(name).derivations)
    assert db.extension(name) == scratch


def one_update(db, rng: random.Random):
    updates = random_updates(db, 1, WorkloadConfig(
        seed=rng.randrange(2 ** 32), value_pool=POOL, fresh_value_rate=0.2))
    return updates[0] if updates else None


def merges(db) -> list:
    """``(null, value)`` pairs whose rewrite merges two members of a
    live NC, as null resolution does to the NC (not to the tables)."""
    found = []
    for nc in db.ncs:
        for a in nc.members:
            for b in nc.members:
                if a.function != b.function or a == b:
                    continue
                if isinstance(a.x, NullValue) and a.y == b.y:
                    found.append((a.x, b.x))
                if isinstance(a.y, NullValue) and a.x == b.x:
                    found.append((a.y, b.y))
    return found


def redoable(journal: Journal) -> bool:
    """Whether an undone update waits for redo (``describe``'s count)."""
    return not journal.describe().split("\n", 1)[0].endswith(" 0 undone")


def step(db, journal: Journal, later: list, rng: random.Random) -> bool:
    """One random op; True when its changes may still wait outside a
    transaction (a raw primitive's)."""
    op = rng.choice(("update", "update", "update", "rep", "sequence",
                     "fail", "undo", "redo", "resolve", "declare",
                     "dismantle", "bare"))
    if op == "undo" and journal.history:
        journal.undo()
    elif op == "redo" and redoable(journal):
        journal.redo()
    elif op == "resolve":
        resolve_nulls(db)
        journal.clear()  # its records name facts the resolution merged
        return True
    elif op == "dismantle" and db.ncs:
        # The bare procedure: members keep their A flags, lose the NCL.
        db.ncs.dismantle(rng.choice([nc.index for nc in db.ncs]))
        journal.clear()
        return True
    elif op == "bare":  # an INS or DEL outside any transaction
        update = one_update(db, rng)
        if update is None:
            return False
        journal.clear()
        try:
            apply_update(db, update)
        except ReproError:
            pass  # what it did before it raised is handed over too
    elif op == "declare" and later:
        name, steps = later.pop()
        declare(db, name, *steps)
    elif op == "fail":
        try:
            with db.transaction():
                for _ in range(rng.randint(1, 3)):
                    update = one_update(db, rng)
                    if update is not None:
                        try:
                            apply_update(db, update)
                        except ReproError:
                            pass
                if rng.random() < 0.5:
                    resolve_nulls(db)
                raise Abort
        except (Abort, ReproError):
            pass
    else:
        update = one_update(db, rng)
        if update is None:
            return False
        if op == "rep" and update.kind == "DEL":
            target = db.schema[update.function].range.name
            update = Update.rep(update.function, update.pair,
                                (update.pair[0],
                                 f"{target}_{rng.randrange(POOL)}"))
        elif op == "sequence":
            second = one_update(db, rng)
            if second is not None:
                update = UpdateSequence((update, second))
        try:
            journal.execute(update)
        except ReproError:
            pass
    return False


def assert_reads(db, name: str) -> None:
    """Every point read of ``name`` against the walk: every start x end
    of the current tables (an end may be a null), and absent values on
    either side."""
    starts, ends = {"absent"}, {"absent"}
    derivations = db.derived(name).derivations
    for derivation in derivations:
        first, last = derivation.steps[0], derivation.steps[-1]
        starts.update(fact.y if first.op is Op.INVERSE else fact.x
                      for fact in db.table(first.function.name).facts())
        ends.update(fact.x if last.op is Op.INVERSE else fact.y
                    for fact in db.table(last.function.name).facts())
    for x in starts:
        image = reference_pairs(db, derivations, x)  # the walk from x
        for y in ends:
            assert db.truth_of(name, x, y) is image.get(
                (x, y), Truth.FALSE), (name, x, y)


def run_stream(seed, shape, k, rows, ops, many_one, every, reads) -> None:
    """One random stream, each function scanned after the ops as below;
    with ``reads``, every function's point reads checked before that."""
    db, later = build(shape, k, many_one)
    random_instance(db, rows, seed=seed, value_pool=POOL)
    rng = random.Random(seed)
    journal = Journal(db)
    for name in db.derived_names:  # a memo starts at the second scan
        assert_maintained(db, name)
        assert_maintained(db, name)
    for done in range(1, ops + 1):
        if not step(db, journal, later, rng):
            # A commit, an undo and a bare INS or DEL each hand over
            # what waits: only a scan is left to take a raw change.
            assert not db._undo.standing
        for name in db.derived_names if reads else ():
            assert_reads(db, name)
        # One function is scanned after every op, the others every
        # ``every`` ops, so changes also pile up between scans.
        for i, name in enumerate(db.derived_names):
            if i == 0 or done % every == 0:
                assert_maintained(db, name)
    # Last, a bare rewrite that merges two members of an NC: it changes
    # what the NC negates and no member's flag or NCL, so only its
    # ``nc`` record says so. (It leaves a fact listing an NC that no
    # longer lists it, which null resolution never does: so no op
    # follows it.)
    if merges(db):
        db.ncs.rewrite_value(*rng.choice(merges(db)))
        for name in db.derived_names:
            if reads:
                assert_reads(db, name)
            assert_maintained(db, name)


STREAMS = given(
    seed=st.integers(0, 10 ** 6), shape=st.sampled_from(SHAPES),
    k=st.integers(2, 4), rows=st.integers(0, 9), ops=st.integers(1, 30),
    many_one=st.booleans(), every=st.integers(1, 3))


@settings(max_examples=250, deadline=None)
@STREAMS
# Streams that fail, on every run, when the memos stop taking any one
# record kind (``fact``, ``ncl``, an ``nc`` rewrite), lose any one
# hand-off (a commit's, a bare INS / DEL's, a scan's, a journal
# undo's), keep the chains of a deleted fact, count a chain found
# through two changed facts twice, or bind a changed fact only at the
# first step its table fills: the first fails for each of the ten, the
# second for all but the undo, the third for all but the rewrite and
# the binding.
@example(seed=583006, shape="self-join", k=4, rows=4, ops=22,
         many_one=False, every=2)
@example(seed=674358, shape="self-join", k=2, rows=6, ops=25,
         many_one=True, every=2)
@example(seed=265770, shape="inverse", k=4, rows=6, ops=27,
         many_one=False, every=1)
def test_maintained_extension_equals_the_join(
        seed, shape, k, rows, ops, many_one, every):
    run_stream(seed, shape, k, rows, ops, many_one, every, reads=False)


@settings(max_examples=250, deadline=None)
@STREAMS
# Streams that fail, on every run, when a read answers without applying
# what waits (all three), without handing over what waits outside a
# transaction (the third), or after keeping a deleted fact's chains
# (all three); the second and third also when a removed chain's key
# starts at the x of an inverted first step's fact, or a changed fact
# is bound only at the first step its table fills.
@example(seed=881557, shape="inverse", k=4, rows=3, ops=6, many_one=True,
         every=3)
@example(seed=225671, shape="self-join", k=4, rows=6, ops=11,
         many_one=False, every=2)
@example(seed=583006, shape="self-join", k=4, rows=4, ops=22,
         many_one=False, every=2)
def test_point_reads_equal_the_walk(seed, shape, k, rows, ops, many_one,
                                    every):
    """``truth_of`` applies what waits to a kept memo, then answers from
    it; on the same streams as the scans, every read must give the
    walk's verdict (its fold from the read's ``x``)."""
    run_stream(seed, shape, k, rows, ops, many_one, every, reads=True)


def chains_kept(memo: ExtensionMemo) -> int:
    return sum(map(len, memo.chains))


def kept_chains(db, name: str) -> list:
    """The chains of ``name`` a memo keeps: those not known false."""
    return [chain for derivation in db.derived(name).derivations
            for chain in walk_chains(db, derivation)
            if chain.supports(db) is not Truth.FALSE]


def test_each_call_returns_a_fresh_dict():
    db = chain_fdb(2)
    random_instance(db, 6, seed=1, value_pool=3)
    first = derived_extension(db, "v")
    first.clear()
    assert derived_extension(db, "v") == reference_pairs(
        db, db.derived("v").derivations)


def test_a_function_scanned_once_keeps_nothing():
    """A first scan is the join from scratch: no chain is kept and no
    record list stands outside a transaction, so later writes pay no
    hand-off. The second keeps every chain not known false."""
    db = chain_fdb(2)
    random_instance(db, 6, seed=1, value_pool=3)
    assert_maintained(db, "v")
    assert chains_kept(db.memo("v")) == 0
    assert db._undo.records is None
    assert_maintained(db, "v")
    assert chains_kept(db.memo("v")) == len(kept_chains(db, "v")) > 0


def test_an_nc_rewritten_in_place_reaches_the_extension():
    """``rewrite_value`` alone can shrink an NC's member set, so a chain
    it did not negate before is negated after, while no member's flag
    or NCL changes; undoing the rewrite grows the set back."""
    db = chain_fdb(2)
    db.load_instance({"f1": [("a", "b")], "f2": [("b", "c")]})
    null = db.nulls.fresh()
    f1, f2 = db.table("f1"), db.table("f2")
    f2.add_pair("b", null)
    db.ncs.create([("f1", f1.get("a", "b")), ("f2", f2.get("b", "c")),
                   ("f2", f2.get("b", null))])
    for _ in range(2):  # a memo starts at the second scan
        assert_maintained(db, "v")
    try:
        with db.transaction():
            db.ncs.rewrite_value(null, "c")
            assert_maintained(db, "v")
            assert ("a", "c") not in db.extension("v")
            raise Abort
    except Abort:
        pass
    assert_maintained(db, "v")
    assert ("a", "c") in db.extension("v")


def rewritable_db():
    """An NC over ``f1(a, b)``, ``f2(b, c)`` and ``f2(b, n)``, and a
    memo kept: rewriting ``n`` to ``c`` shrinks the NC to the chain
    ``a, b, c`` and no member's flag or NCL changes."""
    db = chain_fdb(2)
    db.load_instance({"f1": [("a", "b")], "f2": [("b", "c")]})
    null = db.nulls.fresh()
    f1, f2 = db.table("f1"), db.table("f2")
    f2.add_pair("b", null)
    db.ncs.create([("f1", f1.get("a", "b")), ("f2", f2.get("b", "c")),
                   ("f2", f2.get("b", null))])
    for _ in range(2):  # a memo starts at the second scan
        assert_maintained(db, "v")
    assert ("a", "c") in db.extension("v")
    return db, null


def test_an_nc_rewrite_reaches_a_kept_memo():
    """The ``nc`` record of a rewrite names the NC's stored members, old
    and new: a bare rewrite (handed over by the next scan), one
    committed in a transaction, and that one undone by the journal,
    each between two scans."""
    db, null = rewritable_db()
    db.ncs.rewrite_value(null, "c")
    assert_maintained(db, "v")
    assert ("a", "c") not in db.extension("v")
    db, null = rewritable_db()
    journal = Journal(db)
    with db.transaction() as txn:
        db.ncs.rewrite_value(null, "c")
        records = txn.records
    # The update only labels the entry; an undo replays ``records``.
    journal.record(Update.ins("f2", "b", "c"), records)
    assert_maintained(db, "v")
    assert ("a", "c") not in db.extension("v")
    journal.undo()
    assert_maintained(db, "v")
    assert ("a", "c") in db.extension("v")


def test_an_aborted_transaction_hands_nothing_to_a_memo(monkeypatch):
    """An abort undoes its changes in place, so no memo hears of them;
    a scan inside the writer's own transaction joins from scratch and
    leaves the memo alone."""
    db = chain_fdb(3)
    random_instance(db, 30, seed=3, value_pool=8)
    for _ in range(2):  # a memo starts at the second scan
        assert_maintained(db, "v")
    memo = db.memo("v")
    kept = memo.result.copy(), chains_kept(memo)
    taken = []
    monkeypatch.setattr(ExtensionMemo, "take", lambda self, records,
                        tables: taken.append(list(records)))
    x, y = next(iter(db.extension("v")))
    for scan in (False, True):
        try:
            with db.transaction():
                db.insert("f3", "T2_1", "T3_aborted")
                db.delete("v", x, y)
                if scan:
                    assert_maintained(db, "v")
                raise Abort
        except Abort:
            pass
        assert taken == [] and db._undo.standing == []
        assert (memo.result, chains_kept(memo)) == kept and not memo.pending
    monkeypatch.undo()
    assert_maintained(db, "v")


def test_a_read_in_its_own_transaction_sees_its_write():
    """Inside the caller's open transaction the memo does not answer:
    its records come at commit, so ``truth_of`` walks and sees the
    uncommitted DEL. After the abort the memo answers as before."""
    db = chain_fdb(3)
    random_instance(db, 30, seed=3, value_pool=8)
    for _ in range(2):  # a memo starts at the second scan
        assert_maintained(db, "v")
    memo, derivations = db.memo("v"), db.derived("v").derivations
    x, y = next(pair for pair, truth in db.extension("v").items()
                if truth is Truth.TRUE)
    assert memo.truth(db, x, y) is db.truth_of("v", x, y) is Truth.TRUE
    try:
        with db.transaction():
            db.delete("v", x, y)
            assert memo.truth(db, x, y) is None
            seen = db.truth_of("v", x, y)
            assert seen is walk_truth(db, derivations, x, y)
            assert seen is not Truth.TRUE
            raise Abort
    except Abort:
        pass
    assert not memo.pending
    assert memo.truth(db, x, y) is db.truth_of("v", x, y) is Truth.TRUE


def test_a_dropped_memo_comes_back_at_the_next_locked_point_read(
        monkeypatch):
    """The Section 4.2 instance through one service: two scans keep 4
    chains over 4 facts, and five ``teach`` inserts, more changes than
    the build read facts, drop them. The first point read after that
    declines the lookup, takes the cluster lock and builds the memo
    again (14 chains); the 99 after it are lookups, and every verdict
    is the walk's."""
    service = DatabaseService(pupil_database())
    db, memo = service.db, service.db.memo("pupil")
    for _ in range(2):  # the second scan keeps the memo
        service.extension("pupil")
    assert chains_kept(memo) == 4
    faculty = ["euclid", "laplace"]
    for i in range(5):
        faculty.append(f"f{i}")
        service.execute(Update.ins("teach", faculty[-1], "math"))
    assert not memo.chains  # dropped
    events: list = []
    truth, apply = ExtensionMemo.truth, ExtensionMemo._apply

    def counted_truth(self, db, x, y, join=None):
        verdict = truth(self, db, x, y, join)
        if join is None and verdict is not None:
            events.append("lookup")
        return verdict

    def counted_apply(self, db, join, pending):
        events.append("build" if pending is None else "delta")
        return apply(self, db, join, pending)

    monkeypatch.setattr(ExtensionMemo, "truth", counted_truth)
    monkeypatch.setattr(ExtensionMemo, "_apply", counted_apply)
    derivations = db.derived("pupil").derivations
    try:
        for i in range(100):
            x, y = faculty[i % 7], ("john", "bill", "ann")[i % 3]
            assert service.truth_of("pupil", x, y) is walk_truth(
                db, derivations, x, y)
    finally:
        service.close()
    assert events == ["build"] + ["lookup"] * 99
    assert chains_kept(memo) == 14


def test_a_schema_change_then_a_point_read_rebuilds(monkeypatch):
    """A declaration moves ``schema_version``; the next point read that
    brings the join starts the memo over and builds it instead of
    walking. With a join, the memo declines only before its first build
    and inside the caller's own transaction."""
    db = pupil_database()
    memo = db.memo("pupil")
    db.extension("pupil")  # the first scan keeps nothing
    assert memo.truth(db, "euclid", "bill", evaluate._join) is None
    db.extension("pupil")
    db.declare_base(FunctionDef("advises", ObjectType("faculty"),
                                ObjectType("student"),
                                TypeFunctionality.MANY_MANY))
    assert memo.version != db.schema_version
    assert memo.truth(db, "euclid", "bill") is None  # a lookup declines

    def walk(*args):
        raise AssertionError("the point read walked")

    monkeypatch.setattr(evaluate, "truth_over", walk)
    assert db.truth_of("pupil", "euclid", "bill") is Truth.TRUE
    assert memo.version == db.schema_version and chains_kept(memo) == 4
    with db.transaction():
        assert memo.truth(db, "euclid", "bill", evaluate._join) is None
    assert memo.truth(db, "euclid", "bill") is Truth.TRUE


def two_clusters():
    """``v`` over ``f1, f2`` and ``w`` over ``g1, g2``, both memos kept."""
    db = chain_fdb(2)
    g1, g2 = (FunctionDef(f"g{i}", ObjectType(f"U{i - 1}"),
                          ObjectType(f"U{i}"), TypeFunctionality.MANY_MANY)
              for i in (1, 2))
    db.declare_base(g1)
    db.declare_base(g2)
    declare(db, "w", g1, g2)
    random_instance(db, 8, seed=2, value_pool=4)
    for name in ("v", "w"):
        for _ in range(2):  # a memo starts at the second scan
            assert_maintained(db, name)
    return db


def test_a_commit_reaches_only_the_memos_over_its_tables():
    """Commits to ``v``'s tables, each write in its own transaction as
    the service makes them, outnumber the partitions of ``w``'s memo:
    that memo is neither appended to nor dropped."""
    db = two_clusters()
    memo = db.memo("w")
    size = chains_kept(memo)
    assert size
    for i in range(3 * size):
        with db.transaction():
            db.insert("f2", f"T1_{i % 4}", f"T2_w{i}")
        assert chains_kept(memo) == size and not memo.pending
        if i == 0:  # the first function's memo hears of it
            assert db.memo("v").pending
    assert_maintained(db, "v")
    assert_maintained(db, "w")
    assert chains_kept(memo) == size


def test_a_bare_write_cut_short_hands_over_what_it_did(monkeypatch):
    """A bare derived DEL that a deadline stops after its first chain's
    NC leaves no change waiting outside a transaction: what it did
    before it raised reaches the memo when it ends."""
    db = chain_fdb(2)
    db.load_instance({"f1": [("a", "b"), ("a", "b2"), ("d", "e"),
                             ("g", "h"), ("i", "j")],
                      "f2": [("b", "c"), ("b2", "c"), ("e", "k"),
                             ("h", "k"), ("j", "k")]})
    for _ in range(2):  # a memo starts at the second scan
        assert_maintained(db, "v")
    # More chains kept than the NC's records name: the memo keeps them.
    assert chains_kept(db.memo("v")) == 5
    checkpoints = iter(range(3))

    def checkpoint() -> None:  # the DEL's own, then one per chain
        if next(checkpoints) == 2:
            raise DeadlineExceeded("deadline passed")

    with monkeypatch.context() as patch:
        patch.setattr(cancel, "checkpoint", checkpoint)
        with pytest.raises(DeadlineExceeded):
            db.delete("v", "a", "c")
    assert db.ncs and not db._undo.standing and db.memo("v").pending
    assert_maintained(db, "v")


def test_a_flag_change_alone_reaches_the_extension():
    """A bare dismantle leaves an NC's members ambiguous with an empty
    NCL; a base INS of such a fact then changes only its flag."""
    db = chain_fdb(2)
    db.load_instance({"f1": [("a", "b")], "f2": [("b", "c")]})
    db.delete("v", "a", "c")  # one NC over both facts, both ambiguous
    db.ncs.dismantle(next(iter(db.ncs)).index)
    for _ in range(2):  # a memo starts at the second scan
        assert_maintained(db, "v")
    assert db.extension("v")["a", "c"] is Truth.AMBIGUOUS
    db.insert("f1", "a", "b")
    db.insert("f2", "b", "c")
    assert_maintained(db, "v")
    assert db.extension("v")["a", "c"] is Truth.TRUE


def test_two_replays_of_one_stream_give_one_key_order():
    """The maintained order follows the op history: a new key goes last.
    Replayed on a fresh database, the same ops give the same order."""
    def replay() -> list:
        db, later = build("chain", 3, False)
        random_instance(db, 8, seed=11, value_pool=POOL)
        rng, journal, orders = random.Random(11), Journal(db), []
        for name in db.derived_names:
            db.extension(name)
        for _ in range(40):
            step(db, journal, later, rng)
            orders += [list(db.extension(name)) for name in db.derived_names]
        return orders

    assert replay() == replay()


def dense_db():
    """Every first fact's chains reach every value at the last hop."""
    db = chain_fdb(3)
    random_instance(db, 30, seed=3, value_pool=3)
    for _ in range(2):  # a memo starts at the second scan
        assert_maintained(db, "v")
    return db


def test_a_write_joins_only_the_chains_through_the_facts_it_changed(
        monkeypatch):
    """On a dense instance an ``f3`` insert joins the chains through the
    new fact, not every chain kept; so does a new null-valued fact in a
    looked-up column, whose chains match ambiguously on both sides."""
    db = dense_db()
    memo = db.memo("v")
    joined = []  # chains joined per count
    count = ExtensionMemo._count
    monkeypatch.setattr(ExtensionMemo, "_count", lambda self, found,
                        changed: (joined.append(sum(map(len, found))),
                                  count(self, found, changed)))
    x = next(iter(db.table("f3").facts())).x
    db.insert("f3", x, "T3_dense")
    fact = db.table("f3").get(x, "T3_dense")
    assert_maintained(db, "v")
    through = [chain for chain in kept_chains(db, "v") if fact in chain.facts]
    assert joined == [len(through)]
    assert 0 < len(through) < chains_kept(memo) // 4
    null = db.table("f2").add_pair(db.nulls.fresh(), "T2_0")
    assert_maintained(db, "v")
    through = [chain for chain in kept_chains(db, "v") if null in chain.facts]
    assert not any(chain.all_exact for chain in through)
    assert joined[1:] == [len(through)]
    assert 0 < len(through) < chains_kept(memo)


def test_a_deadline_inside_a_counted_rejoin_changes_nothing(monkeypatch):
    """A deadline during the join of the chains through the fact a
    write changed leaves the counts and the pending changes as they
    were."""
    db = chain_fdb(3)
    random_instance(db, 40, seed=6, value_pool=12)
    for _ in range(2):  # a memo starts at the second scan
        assert_maintained(db, "v")
    memo = db.memo("v")
    db.insert("f3", next(iter(db.table("f3").facts())).x, "T3_cut")
    kept = (memo.result.copy(), dict(memo.held), dict(memo.clean),
            chains_kept(memo), [dict(chains) for chains in memo.chains])
    join = evaluate._join

    def cut_short(db, derivation, firsts, *, at, into):
        assert at == 2 and len(firsts) == 1  # the delta
        join(db, derivation, firsts, at=at, into=into)
        assert into  # it joined the chains through the fact
        raise DeadlineExceeded("deadline passed")

    with monkeypatch.context() as patch:
        patch.setattr(evaluate, "_join", cut_short)
        with pytest.raises(DeadlineExceeded):
            db.extension("v")
    assert memo.pending
    assert (memo.result, memo.held, memo.clean, chains_kept(memo),
            memo.chains) == kept
    db.insert("f2", next(iter(db.table("f2").facts())).x, "T2_late")
    assert_maintained(db, "v")


@pytest.mark.parametrize("memo", ("cold", "dropped"))
def test_a_scan_cut_short_keeps_no_partition(monkeypatch, memo):
    """A deadline can stop a scan in its second derivation's join, after
    the first derivation's chains are joined: on the memo's first
    build (the function's second scan), or after the pending list
    dropped every chain. A later write to the first derivation's
    second step must still reach the extension."""
    db, _ = build("two-derivations", 2, False)
    random_instance(db, 8, seed=4, value_pool=3)
    assert_maintained(db, "v2")  # the first scan keeps nothing
    if memo == "dropped":
        assert_maintained(db, "v2")
        db.memo("v2").drop()
    second = db.derived("v2").derivations[1]
    join = evaluate._join

    def cut_short(db, derivation, *args, **kwargs):
        if derivation is second:
            raise DeadlineExceeded("deadline passed")
        return join(db, derivation, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(evaluate, "_join", cut_short)
        with pytest.raises(DeadlineExceeded):
            db.extension("v2")
    x, y = next(iter(db.table("f1").pairs()))
    db.insert("f2", y, "T2_late")
    assert_maintained(db, "v2")
    assert (x, "T2_late") in db.extension("v2")


def test_readers_of_another_cluster_scan_while_a_writer_commits():
    """Through one service: readers scan ``w`` while a writer commits to
    ``v``'s tables, a cluster of its own. The commits reach ``w``'s
    memo in no way: it keeps its partitions, no change waits in it, and
    each scan equals the join from scratch."""
    db = two_clusters()
    service = DatabaseService(db, lock_timeout=10.0)
    memo = db.memo("w")
    size = chains_kept(memo)
    mismatches, errors = [], []

    def both(db):
        return db.extension("w"), reference_pairs(
            db, db.derived("w").derivations)

    def reader() -> None:
        try:
            for _ in range(40):
                kept, scratch = service.read(("w",), both)
                if (kept != scratch or chains_kept(memo) != size
                        or memo.pending):
                    mismatches.append((len(kept), chains_kept(memo)))
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    def writer() -> None:
        try:
            for i in range(120):
                service.insert("f2", f"T1_{i % 4}", f"T2_s{i}")
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=reader) for _ in range(3)]
    threads.append(threading.Thread(target=writer))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # threads trade places inside a scan
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
        service.close()
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert not mismatches
    assert_maintained(db, "v")


def test_point_readers_of_two_clusters_while_a_writer_commits():
    """Through one service: point readers of ``v`` (scanning now and
    then, so its memo is kept and clean again) and of ``w`` run while a
    writer commits to ``v``'s tables. Inside one read hold every verdict
    equals the walk, whether the memo answered it or not; ``w``'s memo,
    which no commit reaches, answers every read of it."""
    db = two_clusters()
    service = DatabaseService(db, lock_timeout=10.0)
    mismatches, errors = [], []
    answered, asked = {"v": 0, "w": 0}, {"v": 0, "w": 0}
    counting = threading.Lock()  # readers of one cluster run together
    columns = {"v": ("f1", "f2"), "w": ("g1", "g2")}

    def point(name, rng):
        def read(db):
            first, last = (db.table(column) for column in columns[name])
            if rng.random() < 0.1:
                db.extension(name)
            x = rng.choice([*first.pairs(), ("absent", None)])[0]
            y = rng.choice([*last.pairs(), (None, "absent")])[1]
            kept = db.memo(name).truth(db, x, y)
            walked = walk_truth(db, db.derived(name).derivations,
                                     x, y)
            if db.truth_of(name, x, y) is not walked or kept not in (
                    None, walked):
                mismatches.append((name, x, y))
            with counting:
                answered[name] += kept is not None
                asked[name] += 1
        return read

    written = threading.Event()

    def reader(seed: int) -> None:
        # At least 150 reads, and on until the writer is done, so the
        # readers see its commits land however fast a read is; bounded
        # all the same.
        rng = random.Random(seed)
        try:
            for count in range(100_000):
                if count >= 150 and written.is_set():
                    break
                name = rng.choice(("v", "w"))
                service.read((name,), point(name, rng))
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    def writer() -> None:
        rng = random.Random(99)
        try:
            for i in range(120):
                name = rng.choice(("f1", "f2"))
                pairs = tuple(service.read(
                    (name,), lambda db: tuple(db.table(name).pairs())))
                if pairs and rng.random() < 0.5:
                    service.delete(name, *rng.choice(pairs))
                else:
                    k = int(name[1])
                    service.insert(name, f"T{k - 1}_{rng.randrange(5)}",
                                   f"T{k}_{rng.randrange(5)}")
                # A read of v between two commits (waited for, briefly):
                # a writer that loops can otherwise commit them all while
                # every reader is parked on v's cluster.
                seen, until = asked["v"], time.monotonic() + 1.0
                while asked["v"] == seen and time.monotonic() < until:
                    time.sleep(0.0002)
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)
        finally:
            written.set()

    threads = [threading.Thread(target=reader, args=(seed,))
               for seed in range(3)] + [threading.Thread(target=writer)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # threads trade places inside a read
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
        service.close()
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert not mismatches
    assert 0 < answered["v"] < asked["v"] and answered["w"] == asked["w"]
    assert_maintained(db, "v")
    assert_maintained(db, "w")


def test_a_commit_elsewhere_lands_while_a_scan_recounts(monkeypatch):
    """A scan of ``w`` that drops most of its chains and joins the ones
    through one new fact recounts to fewer chains than the changes it
    took. Commits to ``v``'s tables landing inside that scan, during its
    join and right after its count, neither append to ``w``'s memo nor
    drop it."""
    db = two_clusters()
    memo = db.memo("w")
    pairs = list(db.table("g1").pairs())[1:]
    for x, y in pairs:  # one transaction each, as the service makes them
        with db.transaction():
            db.delete("g1", x, y)
    with db.transaction():
        db.insert("g1", "U0_new", "U1_0")
    size = len(kept_chains(db, "w"))  # what the scan will leave
    assert len(memo.pending) == len(pairs) + 1 > size
    commits = iter(range(1000))

    def commit() -> None:
        with db.transaction():
            db.insert("f2", "T1_0", f"T2_c{next(commits)}")

    join, count = evaluate._join, ExtensionMemo._count

    def joining(*args, **kwargs):
        commit()
        return join(*args, **kwargs)

    def counting(self, found, changed) -> None:
        count(self, found, changed)
        if self is memo:
            commit()
            assert chains_kept(self) == size

    with monkeypatch.context() as patch:
        patch.setattr(evaluate, "_join", joining)
        patch.setattr(ExtensionMemo, "_count", counting)
        kept = db.extension("w")
    assert next(commits) == 2 and chains_kept(memo) == size
    assert kept == reference_pairs(db, db.derived("w").derivations)
    assert_maintained(db, "v")


def test_a_thinned_cluster_scans_while_another_commits():
    """Through one service: a thread of ``w``'s cluster deletes all but
    one of its first-step facts, scans, puts them back and scans again,
    while a writer commits to ``v``'s tables and readers scan ``w``.
    Every scan equals the join from scratch. The kept fact's chains
    reach most keys, so a thinned scan deletes too few keys to build
    the memo's dicts anew, which would hide a memo dropped under it."""
    db = two_clusters()
    pairs = list(db.table("g1").pairs())
    with db.transaction():
        db.insert("g1", "U0_fan", "U1_fan")
        for i in range(200):
            db.insert("g2", "U1_fan", f"U2_fan{i}")
    assert_maintained(db, "w")
    service = DatabaseService(db, lock_timeout=10.0)
    mismatches, errors = [], []

    def both(db):
        return db.extension("w"), reference_pairs(
            db, db.derived("w").derivations)

    def scan() -> None:
        kept, scratch = service.read(("w",), both)
        if kept != scratch:
            mismatches.append(len(kept))

    def thinner() -> None:
        try:
            for _ in range(30):
                for x, y in pairs:
                    service.delete("g1", x, y)
                scan()
                for x, y in pairs:
                    service.insert("g1", x, y)
                scan()
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    def reader() -> None:
        try:
            for _ in range(40):
                scan()
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    def writer() -> None:
        try:
            for i in range(400):
                service.insert("f2", f"T1_{i % 4}", f"T2_t{i}")
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=target)
               for target in (thinner, reader, writer)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # threads trade places inside a scan
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
        service.close()
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert not mismatches
    assert_maintained(db, "v")
    assert_maintained(db, "w")


def test_readers_of_one_cluster_share_the_memo_under_a_writer():
    """Through one service: readers scan two derived functions over the
    same base tables while a writer commits to that cluster. Inside one
    read hold the maintained extension equals the join from scratch."""
    db = chain_fdb(3)
    f2, f3 = db.schema["f2"], db.schema["f3"]
    declare(db, "w", f2, f3)
    random_instance(db, 60, seed=5, value_pool=15)
    service = DatabaseService(db, lock_timeout=10.0)
    service.extension("v")  # one scan each before the threads start
    mismatches, errors = [], []

    def both(name):
        return lambda db: (db.extension(name), reference_pairs(
            db, db.derived(name).derivations))

    def reader(seed: int) -> None:
        rng = random.Random(seed)
        try:
            for _ in range(25):
                name = rng.choice(("v", "w"))
                kept, scratch = service.read(("v", "w"), both(name))
                if kept != scratch:
                    mismatches.append(name)
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    def writer() -> None:
        rng = random.Random(99)
        try:
            for i in range(120):
                name = rng.choice(("f2", "f3"))
                pairs = tuple(service.read(
                    (name,), lambda db: tuple(db.table(name).pairs())))
                k = int(name[1])
                if pairs and rng.random() < 0.5:
                    service.delete(name, *rng.choice(pairs))
                else:
                    service.insert(name, f"T{k - 1}_{rng.randrange(15)}",
                                   f"T{k}_{rng.randrange(20)}")
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=reader, args=(seed,))
               for seed in range(3)] + [threading.Thread(target=writer)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # threads trade places inside a scan
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
        service.close()
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert not mismatches
