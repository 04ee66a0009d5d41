"""The maintained extension against the join from scratch.

``db.extension`` / ``derived_extension`` answer from counted partitions
kept since the last scan (:mod:`repro.fdb.memo`) and join again only
those a write reached. :func:`evaluate_derivations` computes the same
extension from scratch; after every op of a random stream the two must
be the same mapping (the maintained keys' order follows the op history,
the join's the walk). The streams mix base and derived INS / DEL, REP,
atomic sequences, aborted transactions (null resolution inside some),
journal undo and redo, null resolution on a many-one schema, bare NC
dismantling and new derived functions declared between scans, over
chains of two to four steps, inverse steps, self-joins and a function
with two derivations. A function's first scan keeps nothing, so each
stream scans every function twice before its first op.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.derivation import Derivation, Op, Step
from repro.core.schema import FunctionDef
from repro.core.types import ObjectType, TypeFunctionality
from repro.errors import DeadlineExceeded, ReproError
from repro.fdb import evaluate
from repro.fdb.constraints import resolve_nulls
from repro.fdb.evaluate import derived_extension, evaluate_derivations
from repro.fdb.journal import Journal
from repro.fdb.logic import Truth
from repro.fdb.updates import Update, UpdateSequence, apply_update
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


def step(db, journal: Journal, later: list, rng: random.Random) -> None:
    op = rng.choice(("update", "update", "update", "rep", "sequence",
                     "fail", "undo", "redo", "resolve", "declare",
                     "dismantle"))
    if op == "undo" and journal.can_undo:
        journal.undo()
    elif op == "redo" and journal.can_redo:
        journal.redo()
    elif op == "resolve":
        resolve_nulls(db)
        journal.clear()  # its records name facts the resolution merged
    elif op == "dismantle" and db.ncs:
        # The bare procedure: members keep their A flags, lose the NCL.
        db.ncs.dismantle(rng.choice([nc.index for nc in db.ncs]))
        journal.clear()
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
            return
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


@settings(max_examples=250, deadline=None)
@given(seed=st.integers(0, 10 ** 6), shape=st.sampled_from(SHAPES),
       k=st.integers(2, 4), rows=st.integers(0, 9), ops=st.integers(1, 30),
       many_one=st.booleans(), every=st.integers(1, 3))
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
        step(db, journal, later, rng)
        # One function is scanned after every op, the others every
        # ``every`` ops, so changes also pile up between scans.
        for i, name in enumerate(db.derived_names):
            if i == 0 or done % every == 0:
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
    no table gets a watcher, so later writes pay no notes."""
    db = chain_fdb(2)
    random_instance(db, 6, seed=1, value_pool=3)
    assert_maintained(db, "v")
    assert db.memo("v").size == 0
    assert not any(table._watchers for table in db.tables())
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
