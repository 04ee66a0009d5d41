"""Deeper semantic properties of the update machinery."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fdb.journal import Journal
from repro.fdb.logic import Truth
from repro.fdb.updates import (
    Update,
    UpdateSequence,
    apply_entry,
    apply_update,
)
from repro.workloads.generator import (
    WorkloadConfig,
    chain_fdb,
    random_instance,
    random_updates,
)


def build(seed: int, k: int = 2, rows: int = 6):
    db = chain_fdb(k)
    random_instance(db, rows, seed=seed, value_pool=5)
    return db


def fingerprint(db) -> tuple:
    tables = tuple(
        (name, tuple(db.table(name).rows())) for name in db.base_names
    )
    ncs = tuple(sorted(str(nc) for nc in db.ncs))
    return (tables, ncs, db.nulls.next_index)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 8))
def test_sequence_equals_individual_application(seed, n):
    """An UpdateSequence that succeeds produces exactly the state of
    applying its updates one by one."""
    db_a = build(seed)
    db_b = build(seed)
    updates = random_updates(
        db_a, n, WorkloadConfig(seed=seed + 7, value_pool=5)
    )
    if not updates:
        return
    apply_entry(db_a, UpdateSequence(tuple(updates)))
    for update in updates:
        apply_update(db_b, update)
    assert fingerprint(db_a) == fingerprint(db_b)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_derived_insert_idempotent(seed):
    """Inserting a derived fact twice changes nothing the second time
    (the fact is already true)."""
    db = build(seed)
    db.insert("v", "T0_p", "T2_q")
    once = fingerprint(db)
    db.insert("v", "T0_p", "T2_q")
    assert fingerprint(db) == once


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_derived_delete_idempotent(seed):
    from repro.fdb.evaluate import derived_extension

    db = build(seed, rows=8)
    extension = list(derived_extension(db, "v"))
    if not extension:
        return
    target = extension[0]
    db.delete("v", *target)
    once = fingerprint(db)
    db.delete("v", *target)
    assert fingerprint(db) == once


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_delete_insert_delete_never_true(seed):
    """DEL; INS; DEL on a derived fact always ends not-true."""
    from repro.fdb.evaluate import derived_extension

    db = build(seed, rows=8)
    extension = list(derived_extension(db, "v"))
    if not extension:
        return
    x, y = extension[0]
    db.delete("v", x, y)
    db.insert("v", x, y)
    assert db.truth_of("v", x, y) is Truth.TRUE
    db.delete("v", x, y)
    assert db.truth_of("v", x, y) is not Truth.TRUE


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 10))
def test_journal_redo_equals_original_run(seed, n):
    """undo-all + redo-all lands on the exact original state."""
    db = build(seed)
    journal = Journal(db)
    updates = random_updates(db, n, WorkloadConfig(seed=seed + 3,
                                                   value_pool=5))
    for update in updates:
        journal.execute(update)
    final = fingerprint(db)
    for _ in updates:
        journal.undo()
    for _ in updates:
        journal.redo()
    assert fingerprint(db) == final


def test_stress_run_keeps_invariants():
    """A larger, deterministic run: 3-hop chain, ~240 stored facts,
    150 mixed updates, dual-structure check at the end. (Sizes chosen
    to keep the whole suite fast: the derived-valuation check
    re-enumerates chains per TRUE pair and grows superlinearly with
    the join fan-out, which is exactly what bench E15 measures — the
    invariant check here only needs a non-trivial instance.)"""
    from tests.test_update_properties import (
        check_derived_valuation,
        check_invariants,
    )

    db = chain_fdb(3)
    random_instance(db, 80, seed=99, value_pool=40)
    updates = random_updates(
        db, 150, WorkloadConfig(seed=100, value_pool=40)
    )
    for update in updates:
        apply_update(db, update)
    check_invariants(db)
    check_derived_valuation(db)
    counts = db.counts()
    assert counts["stored_facts"] > 150
    assert counts["ncs"] >= 1
