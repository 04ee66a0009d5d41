"""Properties of the undo log, the one mechanism behind transaction
abort, journal undo and journal state diffs.

The retired mechanism — copy every table, the NC registry and both
counters on entry, swap the copies back in on abort — lives on here as
the *reference*: a twin database is rolled back the old way and the
real one must be indistinguishable from it, down to the order of every
index list, while keeping the very objects it had before.
"""

from __future__ import annotations

import random
import tempfile
from contextlib import closing
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.types import TypeFunctionality
from repro.faults import FAULTS, ErrorFault, Fault
from repro.faults.harness import states_diff
from repro.fdb import persistence
from repro.fdb.constraints import resolve_nulls
from repro.fdb.database import FunctionalDatabase
from repro.fdb.diff import diff_snapshots
from repro.fdb.journal import Journal
from repro.fdb.nc import NCRegistry
from repro.fdb.updates import (
    Update,
    UpdateSequence,
    apply_sequence,
    apply_update,
)
from repro.fdb.values import NullFactory
from repro.fdb.wal import LoggedDatabase, UpdateLog, recover
from repro.workloads.generator import (
    WorkloadConfig,
    chain_fdb,
    random_instance,
    random_updates,
)

RESOLVE = "resolve-nulls"
POOL = 6


# -- the reference: snapshot / restore ----------------------------------------


def snapshot_state(db: FunctionalDatabase) -> dict:
    return {
        "tables": {name: db.table(name).copy() for name in db.base_names},
        "ncs": {nc.index: nc for nc in db.ncs},
        "nc_next": db.ncs.next_index,
        "null_next": db.nulls.next_index,
    }


def restore_state(db: FunctionalDatabase, snapshot: dict) -> None:
    db._tables = snapshot["tables"]
    db.ncs = NCRegistry(db.table, snapshot["nc_next"])
    db.ncs._ncs = snapshot["ncs"]
    db.nulls = NullFactory(snapshot["null_next"])


# -- random instances and update streams --------------------------------------


def build(seed: int, k: int, rows: int,
          single_valued: bool) -> FunctionalDatabase:
    """A chain database; single-valued functions give ``resolve_nulls``
    identifications to force."""
    db = chain_fdb(k, functionality=(
        TypeFunctionality.MANY_ONE if single_valued
        else TypeFunctionality.MANY_MANY))
    random_instance(db, rows, seed=seed, value_pool=POOL)
    return db


def make_steps(db: FunctionalDatabase, seed: int, count: int,
               *, resolve: bool = True) -> list:
    """Base and derived INS / DEL from ``random_updates``, some turned
    into REPs, some grouped into ``UpdateSequence``s, with null
    resolution steps in between."""
    rng = random.Random(seed)
    updates = random_updates(db, count, WorkloadConfig(
        seed=seed, value_pool=POOL, fresh_value_rate=0.4))
    steps: list = []
    while updates:
        roll = rng.random()
        update = updates.pop()
        if roll < 0.15:
            target = db.schema[update.function].range.name
            steps.append(Update.rep(
                update.function, update.pair,
                (update.pair[0], f"{target}_{rng.randrange(POOL)}"),
            ))
        elif roll < 0.3 and updates:
            steps.append(UpdateSequence((update, updates.pop())))
        elif roll < 0.4 and resolve:
            steps.extend((update, RESOLVE))
        else:
            steps.append(update)
    return steps


def apply_step(db: FunctionalDatabase, step) -> None:
    if step == RESOLVE:
        resolve_nulls(db)
    elif isinstance(step, UpdateSequence):
        apply_sequence(db, step)
    else:
        apply_update(db, step)


def index_order(db: FunctionalDatabase) -> dict:
    """Every table's internal indices, as pairs in list order."""
    def pairs(facts):
        return [fact.pair for fact in facts]

    def indices(table):
        return (
            list(table._facts),
            {x: pairs(facts) for x, facts in table._by_x.items()},
            {y: pairs(facts) for y, facts in table._by_y.items()},
            pairs(table._null_x),
            pairs(table._null_y),
        )

    return {name: indices(db.table(name)) for name in db.base_names}


class Abort(Exception):
    pass


class Probe(Fault):
    """Looks at the database when its fault point fires, then lets the
    caller carry on."""

    def __init__(self, db: FunctionalDatabase) -> None:
        self.db = db
        self.seen: list[dict] = []

    def trigger(self, point: str, **context) -> None:
        self.seen.append(persistence.to_dict(self.db))


streams = dict(
    seed=st.integers(0, 10_000),
    k=st.integers(2, 3),
    rows=st.integers(0, 10),
    count=st.integers(1, 24),
    single_valued=st.booleans(),
)


# -- Transaction abort --------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(cut=st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)),
       **streams)
def test_abort_equals_snapshot_rollback_in_place(
        seed, k, rows, count, single_valued, cut):
    db = build(seed, k, rows, single_valued)
    twin = build(seed, k, rows, single_valued)
    steps = make_steps(db, seed, count)
    start, stop = sorted(round(c * len(steps)) for c in cut[:2])
    block = steps[start:stop]
    block = block[:round(cut[2] * len(block))]  # abort after these
    for step in steps[:start]:
        apply_step(db, step)
        apply_step(twin, step)

    before = persistence.to_dict(db)
    rows_before = {n: db.table(n).rows() for n in db.base_names}
    objects = ([db.table(n) for n in db.base_names], db.ncs, db.nulls)

    reference = snapshot_state(twin)
    for step in block:
        apply_step(twin, step)
    restore_state(twin, reference)

    probe = Probe(db)
    with FAULTS.injected("txn.rollback.before-restore", probe):
        with pytest.raises(Abort):
            with db.transaction():
                for step in block:
                    apply_step(db, step)
                dirty = persistence.to_dict(db)
                raise Abort

    # The fault point still sits between the failure and the replay.
    assert probe.seen == [dirty]
    assert states_diff(twin, db) is None
    assert persistence.to_dict(db) == before
    assert {n: db.table(n).rows() for n in db.base_names} == rows_before
    assert index_order(db) == index_order(twin)
    assert db.nulls.next_index == before["next_null_index"]
    assert db.ncs.next_index == before["next_nc_index"]
    tables, ncs, nulls = objects
    assert all(db.table(n) is t for n, t in zip(db.base_names, tables))
    assert db.ncs is ncs and db.nulls is nulls
    assert db._undo.records is None
    assert db.structure_fault() is None

    # And it behaves like an instance that never saw the block.
    for step in steps[stop:]:
        apply_step(db, step)
        apply_step(twin, step)
    assert states_diff(twin, db) is None
    assert index_order(db) == index_order(twin)
    assert db.structure_fault() is None


@pytest.mark.parametrize("history", [
    # n1 := b merges two ambiguous rows: NCL union + NC member rewrite.
    [("ins", "v"), ("ins", "f1"), ("ins", "f2"), ("del", "v")],
    # ... or an ambiguous row into a true one: its NC is dismantled.
    [("ins", "v"), ("del", "v"), ("ins", "f1"), ("ins", "f2")],
])
def test_abort_undoes_a_merging_null_resolution(history):
    """Random streams rarely make ``substitute_null`` collide two
    stored rows; these two histories always do."""
    pairs = {"v": ("a", "c"), "f1": ("a", "b"), "f2": ("b", "c")}
    db = chain_fdb(2, functionality=TypeFunctionality.MANY_ONE)
    for kind, name in history:
        (db.insert if kind == "ins" else db.delete)(name, *pairs[name])
    before = persistence.to_dict(db)
    order = index_order(db)
    with pytest.raises(Abort):
        with db.transaction():
            assert len(resolve_nulls(db)) == 1
            assert len(db.table("f1")) == 1  # the rows did merge
            assert any(op == "ncl" for _, op, *_ in db._undo.records)
            raise Abort
    assert persistence.to_dict(db) == before
    assert index_order(db) == order


@settings(max_examples=15, deadline=None)
@given(aborted=st.sets(st.integers(0, 23)), **streams)
def test_wal_abort_leaves_live_state_equal_to_recovery(
        seed, k, rows, count, single_valued, aborted):
    db = build(seed, k, rows, single_valued)
    twin = build(seed, k, rows, single_valued)
    steps = make_steps(db, seed, count, resolve=False)
    with tempfile.TemporaryDirectory() as workdir:
        snapshot = Path(workdir) / "snapshot.json"
        persistence.save(db, snapshot)
        logged = LoggedDatabase(
            db, UpdateLog(Path(workdir) / "wal.log", fsync=False))
        for position, step in enumerate(steps):
            if position not in aborted:
                logged.execute(step)
                apply_step(twin, step)
                continue
            with FAULTS.injected("wal.apply.before", ErrorFault(times=1)):
                with pytest.raises(RuntimeError):
                    logged.execute(step)
        logged.close()
        recovered = recover(snapshot, logged.log.path)
    assert recovered.aborted == len(aborted & set(range(len(steps))))
    assert states_diff(twin, db) is None
    assert states_diff(recovered.db, db) is None


@settings(max_examples=200, deadline=None)
@given(victim=st.integers(0, 10_000), **streams)
def test_commit_check_on_the_undo_records_agrees_with_the_whole_walk(
        seed, k, rows, count, single_valued, victim):
    """A logged commit checks the tables and NCs its undo records
    name. Over base and derived INS / DEL / REP and sequences — NCs
    created and dismantled, NVC nulls, several tables written at once
    — a commit it passes leaves an instance the whole walk passes too,
    and it sees what the whole walk sees in any table the commit
    wrote."""
    db = build(seed, k, rows, single_valued)
    steps = make_steps(db, seed, count, resolve=False)
    verdicts = []
    whole_walk = db.structure_fault

    def commit_check(records=None):
        verdicts.append((records, whole_walk(records)))
        return verdicts[-1][1]

    db.structure_fault = commit_check
    with tempfile.TemporaryDirectory() as workdir, closing(LoggedDatabase(
            db, UpdateLog(Path(workdir) / "wal.log", fsync=False))) as logged:
        for step in steps:
            logged.execute(step)
            (records, verdict), = verdicts
            del verdicts[:]
            assert records is not None and verdict is None
            assert whole_walk() is None
            written = [owner for owner, op, *_ in records
                       if op in ("fact", "ncl") and len(owner)]
            if not written:
                continue
            table = written[victim % len(written)]
            fact = list(table.facts())[victim % len(table)]
            for damage, repair in (
                    (lambda: setattr(fact, "ncl", fact.ncl | {99}),
                     lambda: setattr(fact, "ncl", fact.ncl - {99})),
                    (lambda: table._by_y[fact.y].remove(fact),
                     table._restore_order)):
                damage()
                assert whole_walk(records) is not None
                assert whole_walk() is not None
                repair()
            assert whole_walk() is None


# -- Journal ------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(**streams)
def test_journal_undo_redo_and_changes(seed, k, rows, count,
                                       single_valued):
    db = build(seed, k, rows, single_valued)
    steps = make_steps(db, seed, count, resolve=False)
    journal = Journal(db)
    states = [persistence.to_dict(db)]
    for step in steps:
        journal.execute(step)
        states.append(persistence.to_dict(db))
        # undo . execute = identity, redo . undo = identity
        journal.undo()
        assert persistence.to_dict(db) == states[-2]
        journal.redo()
        assert persistence.to_dict(db) == states[-1]
    for index in range(1, len(steps) + 1):
        assert journal.change_of(index) == diff_snapshots(
            states[index - 1], states[index])
    for index in range(len(steps), 0, -1):
        journal.undo()
        assert persistence.to_dict(db) == states[index - 1]
    for index in range(1, len(steps) + 1):
        journal.redo()
        assert persistence.to_dict(db) == states[index]
    assert journal.history == tuple(steps)


def test_journal_undo_refused_inside_a_transaction(pupil_db):
    from repro.errors import TransactionError

    journal = Journal(pupil_db)
    with pupil_db.transaction():
        journal.execute(Update.ins("teach", "gauss", "cs"))
        with pytest.raises(TransactionError):
            journal.undo()
    journal.undo()
    assert pupil_db.table("teach").get("gauss", "cs") is None


# -- cost ---------------------------------------------------------------------


def test_undo_records_of_a_write_do_not_grow_with_the_instance():
    """A commit costs what the update changed: the same writes leave
    the same number of records on 40 and on 6000 stored facts."""
    def records_of(rows: int) -> list[int]:
        db = chain_fdb(2)
        random_instance(db, rows, seed=7, value_pool=400)
        assert sum(len(db.table(n)) for n in db.base_names) == 2 * rows
        x, y = next(db.table("f1").pairs())
        counts = []
        for update in (Update.ins("f1", "T0_fresh", "T1_fresh"),
                       Update.delete("f1", x, y),
                       Update.ins("v", "T0_other", "T2_other"),
                       Update.delete("v", "T0_other", "T2_other")):
            with db.transaction():
                apply_update(db, update)
                counts.append(len(db._undo.records))
        return counts

    small, large = records_of(20), records_of(3000)
    assert small == large
    assert small[:2] == [1, 1]
