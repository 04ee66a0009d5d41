"""The maintained extension against the join from scratch.

``db.extension`` / ``derived_extension`` answer from counted partitions
kept since the last scan (:mod:`repro.fdb.memo`) and join again only
those a write reached. :func:`evaluate_derivations` computes the same
extension from scratch; after every op of a random stream the two must
be the same mapping (the maintained keys' order follows the op history,
the join's the walk). The streams mix base and derived INS / DEL, REP,
atomic sequences, aborted transactions (null resolution inside some),
journal undo and redo, bare INS / DEL, null resolution on a many-one
schema, bare NC dismantling and new derived functions declared between
scans, over chains of two to four steps, inverse steps, self-joins and
a function with two derivations. A function's first scan keeps
nothing, so each stream scans every function twice before its first
op. The memos learn of a change only from the undo records
(:mod:`repro.fdb.undo`), handed over at a commit, a journal undo, the
end of a bare INS or DEL and a scan.
"""

from __future__ import annotations

import random
import sys
import threading

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
from repro.fdb.evaluate import derived_extension, evaluate_derivations
from repro.fdb.journal import Journal
from repro.fdb.logic import Truth
from repro.fdb.memo import ExtensionMemo
from repro.fdb.updates import Update, UpdateSequence, apply_update
from repro.fdb.values import NullValue
from repro.service import DatabaseService
from repro.workloads.generator import (WorkloadConfig, chain_fdb,
                                       random_instance, random_updates)

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
    scratch = evaluate_derivations(db, db.derived(name).derivations)
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


def step(db, journal: Journal, later: list, rng: random.Random) -> bool:
    """One random op; True when its changes may still wait outside a
    transaction (a raw primitive's)."""
    op = rng.choice(("update", "update", "update", "rep", "sequence",
                     "fail", "undo", "redo", "resolve", "declare",
                     "dismantle", "bare"))
    if op == "undo" and journal.can_undo:
        journal.undo()
    elif op == "redo" and journal.can_redo:
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


@settings(max_examples=250, deadline=None)
@given(seed=st.integers(0, 10 ** 6), shape=st.sampled_from(SHAPES),
       k=st.integers(2, 4), rows=st.integers(0, 9), ops=st.integers(1, 30),
       many_one=st.booleans(), every=st.integers(1, 3))
# Streams that fail, on every run, when the memos stop taking any one
# record kind (``fact``, ``ncl``, an ``nc`` rewrite) or lose any one
# hand-off (a commit's, a bare INS / DEL's, a scan's, a journal
# undo's): the first fails for each of the seven, the second for all
# but the undo, the third for all but the rewrite.
@example(seed=583006, shape="self-join", k=4, rows=4, ops=22,
         many_one=False, every=2)
@example(seed=674358, shape="self-join", k=2, rows=6, ops=25,
         many_one=True, every=2)
@example(seed=265770, shape="inverse", k=4, rows=6, ops=27,
         many_one=False, every=1)
def test_maintained_extension_equals_the_join(
        seed, shape, k, rows, ops, many_one, every):
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
            assert_maintained(db, name)


def test_each_call_returns_a_fresh_dict():
    db = chain_fdb(2)
    random_instance(db, 6, seed=1, value_pool=3)
    first = derived_extension(db, "v")
    first.clear()
    assert derived_extension(db, "v") == evaluate_derivations(
        db, db.derived("v").derivations)


def test_a_function_scanned_once_keeps_nothing():
    """A first scan is the join from scratch: no partition is kept and
    no record list stands outside a transaction, so later writes pay
    no hand-off."""
    db = chain_fdb(2)
    random_instance(db, 6, seed=1, value_pool=3)
    assert_maintained(db, "v")
    assert db.memo("v").size == 0
    assert db._undo.records is None
    assert_maintained(db, "v")
    assert db.memo("v").size == len(db.table("f1")) > 0


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
    kept = memo.result.copy(), memo.size
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
        assert (memo.result, memo.size) == kept and not memo.pending
    monkeypatch.undo()
    assert_maintained(db, "v")


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
    size = memo.size
    assert size
    for i in range(3 * size):
        with db.transaction():
            db.insert("f2", f"T1_{i % 4}", f"T2_w{i}")
        assert memo.size == size and not memo.pending
        if i == 0:  # the first function's memo hears of it
            assert db.memo("v").pending
    assert_maintained(db, "v")
    assert_maintained(db, "w")
    assert memo.size == size


def test_a_bare_write_cut_short_hands_over_what_it_did(monkeypatch):
    """A bare derived DEL that a deadline stops after its first chain's
    NC leaves no change waiting outside a transaction: what it did
    before it raised reaches the memo when it ends."""
    db = chain_fdb(2)
    db.load_instance({"f1": [("a", "b"), ("a", "b2"), ("d", "e"),
                             ("g", "h"), ("i", "j")],
                      "f2": [("b", "c"), ("b2", "c")]})
    for _ in range(2):  # a memo starts at the second scan
        assert_maintained(db, "v")
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


def test_a_write_reaching_every_partition_is_counted(monkeypatch):
    """A write that reaches every partition of a dense instance joins
    them all again and moves the counts, as a smaller write does; so
    does a new null-valued fact in a looked-up column, whose pool is not
    indexed. A one-partition write in between joins one."""
    db = dense_db()
    memo = db.memo("v")
    size = memo.size
    recounted = []  # (partitions kept, partitions joined) per recount
    recount = type(memo)._recount
    monkeypatch.setattr(type(memo), "_recount", lambda self, joined: (
        recounted.append((self.size, sum(map(len, joined)))),
        recount(self, joined)))
    x = next(iter(db.table("f3").facts())).x
    db.insert("f3", x, "T3_dense")
    assert_maintained(db, "v")
    assert recounted == [(size, size)]
    db.insert("f1", "T0_new", "T1_new")
    assert_maintained(db, "v")
    assert recounted[-1] == (size, 1) and memo.size == size + 1
    db.table("f2").add_pair(db.nulls.fresh(), "T2_0")
    assert_maintained(db, "v")
    assert recounted[-1] == (size + 1, size + 1)


def test_a_deadline_inside_a_counted_rejoin_changes_nothing(monkeypatch):
    """A deadline during the join of the partitions a write reached
    leaves the counts and the pending changes as they were."""
    db = chain_fdb(3)
    random_instance(db, 40, seed=6, value_pool=12)
    for _ in range(2):  # a memo starts at the second scan
        assert_maintained(db, "v")
    memo = db.memo("v")
    db.insert("f3", next(iter(db.table("f3").facts())).x, "T3_cut")
    kept = memo.result.copy(), dict(memo.held), dict(memo.clean), memo.size
    join = evaluate._join

    def cut_short(db, derivation, outs, firsts, **kwargs):
        assert kwargs["lookups"] and len(firsts) < memo.size  # a re-join
        join(db, derivation, outs[:1], firsts[:1], lookups=kwargs[
            "lookups"][:1])
        raise DeadlineExceeded("deadline passed")

    with monkeypatch.context() as patch:
        patch.setattr(evaluate, "_join", cut_short)
        with pytest.raises(DeadlineExceeded):
            db.extension("v")
    assert memo.pending
    assert (memo.result, memo.held, memo.clean, memo.size) == kept
    db.insert("f2", next(iter(db.table("f2").facts())).x, "T2_late")
    assert_maintained(db, "v")


@pytest.mark.parametrize("memo", ("cold", "dropped"))
def test_a_scan_cut_short_keeps_no_partition(monkeypatch, memo):
    """A deadline can stop a scan in its second derivation's join, after
    the first derivation's partitions are joined: on the memo's first
    build (the function's second scan), or after the pending list
    dropped every partition. A later write to the first derivation's
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
    size = memo.size
    mismatches, errors = [], []

    def both(db):
        return db.extension("w"), evaluate_derivations(
            db, db.derived("w").derivations)

    def reader() -> None:
        try:
            for _ in range(40):
                kept, scratch = service.read(("w",), both)
                if kept != scratch or memo.size != size or memo.pending:
                    mismatches.append((len(kept), memo.size))
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


def test_a_commit_elsewhere_lands_while_a_scan_recounts(monkeypatch):
    """A scan of ``w`` that drops most of its partitions and joins one
    new one recounts to fewer partitions than the changes it took.
    Commits to ``v``'s tables landing inside that scan, during its join
    and right after its recount, neither append to ``w``'s memo nor
    drop it."""
    db = two_clusters()
    memo = db.memo("w")
    pairs = list(db.table("g1").pairs())[1:]
    for x, y in pairs:  # one transaction each, as the service makes them
        with db.transaction():
            db.delete("g1", x, y)
    with db.transaction():
        db.insert("g1", "U0_new", "U1_0")
    size = memo.size - len(pairs) + 1  # what the scan will leave
    assert len(memo.pending) == len(pairs) + 1 > size
    commits = iter(range(1000))

    def commit() -> None:
        with db.transaction():
            db.insert("f2", "T1_0", f"T2_c{next(commits)}")

    join, recount = evaluate._join, ExtensionMemo._recount

    def joining(*args, **kwargs):
        commit()
        return join(*args, **kwargs)

    def recounting(self, joined) -> None:
        recount(self, joined)
        if self is memo:
            commit()
            assert self.size == size

    with monkeypatch.context() as patch:
        patch.setattr(evaluate, "_join", joining)
        patch.setattr(ExtensionMemo, "_recount", recounting)
        kept = db.extension("w")
    assert next(commits) == 2 and memo.size == size
    assert kept == evaluate_derivations(db, db.derived("w").derivations)
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
        return db.extension("w"), evaluate_derivations(
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
        return lambda db: (db.extension(name), evaluate_derivations(
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
