"""Property-based tests: structural invariants hold under arbitrary
update streams.

A database built from random chains and hammered with random mixed
update streams must always satisfy:

* the NC/NCL dual structure is consistent (every NC member fact exists,
  is ambiguous, and points back; every NCL index points to a live NC);
* stored facts are never FALSE;
* an insert makes its fact true, a delete makes it not-true (base
  deletes: false);
* derived truth valuation agrees with its definition (a TRUE derived
  pair is witnessed by an exact all-true chain).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fdb.database import FunctionalDatabase
from repro.fdb.evaluate import derived_extension, iter_chains
from repro.fdb.logic import Truth
from repro.fdb.updates import apply_update
from repro.workloads.generator import (
    WorkloadConfig,
    chain_fdb,
    random_instance,
    random_updates,
)


def check_invariants(db: FunctionalDatabase) -> None:
    assert db.structure_fault() is None
    # -- NC -> fact direction
    for nc in db.ncs:
        assert len(nc.members) >= 1
        for ref in nc.members:
            fact = db.table(ref.function).get(ref.x, ref.y)
            assert fact is not None, f"dangling NC member {ref}"
            assert fact.truth is Truth.AMBIGUOUS, f"NC member not A: {ref}"
            assert nc.index in fact.ncl, f"missing back-pointer: {ref}"
    # -- fact -> NC direction, and no stored falsity
    for name in db.base_names:
        for fact in db.table(name).facts():
            assert fact.truth is not Truth.FALSE
            for index in fact.ncl:
                assert index in db.ncs, (
                    f"fact points to dead NC g{index}"
                )
                member_refs = db.ncs.get(index).members
                assert fact.ref(name) in member_refs


def check_derived_valuation(db: FunctionalDatabase) -> None:
    for name in db.derived_names:
        extension = derived_extension(db, name)
        derived = db.derived(name)
        for (x, y), truth in extension.items():
            if truth is Truth.TRUE:
                witnessed = any(
                    chain.all_exact and chain.all_true
                    for derivation in derived.derivations
                    for chain in iter_chains(db, derivation, x, y)
                )
                assert witnessed, f"TRUE {name}({x})={y} has no witness"


def build(seed: int, k: int, rows: int) -> FunctionalDatabase:
    db = chain_fdb(k)
    random_instance(db, rows, seed=seed, value_pool=6)
    return db


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    k=st.integers(2, 4),
    rows=st.integers(0, 10),
    n_updates=st.integers(0, 25),
)
def test_invariants_hold_under_random_streams(seed, k, rows, n_updates):
    db = build(seed, k, rows)
    updates = random_updates(
        db, n_updates,
        WorkloadConfig(seed=seed + 1, value_pool=6, fresh_value_rate=0.4),
    )
    for update in updates:
        apply_update(db, update)
        check_invariants(db)
    check_derived_valuation(db)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_insert_asserts_truth(seed):
    db = build(seed, 2, 5)
    db.insert("v", "T0_x", "T2_y")
    assert db.truth_of("v", "T0_x", "T2_y") is Truth.TRUE
    db.insert("f1", "T0_a", "T1_b")
    assert db.truth_of("f1", "T0_a", "T1_b") is Truth.TRUE
    check_invariants(db)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_delete_denies_truth(seed):
    db = build(seed, 2, 8)
    extension = derived_extension(db, "v")
    for (x, y), truth in list(extension.items())[:3]:
        db.delete("v", x, y)
        assert db.truth_of("v", x, y) is not Truth.TRUE
        check_invariants(db)
    for fact in list(db.table("f1").facts())[:3]:
        x, y = fact.pair
        db.delete("f1", x, y)
        assert db.truth_of("f1", x, y) is Truth.FALSE
        check_invariants(db)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_derived_updates_never_remove_base_facts(seed):
    """The side-effect-freedom property, at scale: derived INS/DEL only
    ever adds rows or flips flags — stored pairs survive."""
    db = build(seed, 3, 8)
    before = {
        name: {fact.pair for fact in db.table(name).facts()}
        for name in db.base_names
    }
    extension = list(derived_extension(db, "v"))
    for pair in extension[:4]:
        db.delete("v", *pair)
    db.insert("v", "T0_fresh", "T3_fresh")
    for name, pairs in before.items():
        now = {fact.pair for fact in db.table(name).facts()}
        assert pairs <= now


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_insert_after_delete_restores_truth(seed):
    db = build(seed, 2, 8)
    extension = list(derived_extension(db, "v"))
    if not extension:
        return
    x, y = extension[0]
    db.delete("v", x, y)
    db.insert("v", x, y)
    assert db.truth_of("v", x, y) is Truth.TRUE
    check_invariants(db)
