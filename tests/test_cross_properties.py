"""Cross-layer property tests: the big invariants that tie the
subsystems together, under randomized workloads.

* persistence is lossless for any reachable state;
* the journal's undo_all is a true inverse of any update stream;
* query-layer answers coincide with the evaluation layer, and both
  with the chain walk they replaced;
* possible-worlds marginals are consistent with the three-valued
  verdicts;
* insert_mode='all' leaves no derivation-coverage gaps.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fdb import persistence
from repro.fdb.audit import audit_insert_coverage
from repro.fdb.evaluate import derived_extension
from repro.fdb.journal import Journal
from repro.fdb.logic import Truth
from repro.fdb.query import fn
from repro.fdb.worlds import analyze, derived_marginal
from repro.workloads.generator import (
    WorkloadConfig,
    chain_fdb,
    random_instance,
    random_updates,
)
from tests.test_extension_join import reference_extension


def build_db(seed: int, k: int = 2, rows: int = 6):
    db = chain_fdb(k)
    random_instance(db, rows, seed=seed, value_pool=5)
    return db


def updates_for(db, seed: int, count: int):
    return random_updates(
        db, count, WorkloadConfig(seed=seed, value_pool=5,
                                  fresh_value_rate=0.3)
    )


def state_fingerprint(db) -> tuple:
    tables = tuple(
        (name, tuple(db.table(name).rows())) for name in db.base_names
    )
    ncs = tuple(sorted(
        (nc.index, tuple(str(m) for m in nc.members)) for nc in db.ncs
    ))
    return (tables, ncs, db.nulls.next_index, db.ncs.next_index)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), n_updates=st.integers(0, 15))
def test_persistence_lossless_for_any_reachable_state(seed, n_updates):
    db = build_db(seed)
    for update in updates_for(db, seed + 1, n_updates):
        from repro.fdb.updates import apply_update

        apply_update(db, update)
    clone = persistence.loads(persistence.dumps(db))
    assert state_fingerprint(clone) == state_fingerprint(db)
    assert derived_extension(clone, "v") == derived_extension(db, "v")


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), n_updates=st.integers(1, 12))
def test_journal_undo_all_is_exact_inverse(seed, n_updates):
    db = build_db(seed)
    before = state_fingerprint(db)
    journal = Journal(db)
    journal.execute_all(updates_for(db, seed + 1, n_updates))
    journal.undo_all()
    assert state_fingerprint(db) == before


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), n_updates=st.integers(0, 12))
def test_query_layer_agrees_with_evaluation_layer(seed, n_updates):
    db = build_db(seed)
    for update in updates_for(db, seed + 1, n_updates):
        from repro.fdb.updates import apply_update

        apply_update(db, update)
    # Both layers answer through the one join now; the chain walk's
    # fold is the independent side.
    assert (fn("v").pairs(db) == derived_extension(db, "v")
            == reference_extension(db, "v"))
    inverted = (~fn("v")).pairs(db)
    assert {(y, x) for (x, y) in fn("v").pairs(db)} == set(inverted)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_world_marginals_respect_three_valued_verdicts(seed):
    db = build_db(seed, rows=5)
    extension = list(derived_extension(db, "v"))
    for pair in extension[:2]:
        db.delete("v", *pair)
    for (x, y), truth in list(derived_extension(db, "v").items())[:5]:
        probability = derived_marginal(db, "v", x, y)
        if truth is Truth.TRUE:
            assert probability == 1.0
    for pair in extension[:2]:
        if db.truth_of("v", *pair) is Truth.FALSE:
            assert derived_marginal(db, "v", *pair) == 0.0
    report = analyze(db)
    for probability in report.base_marginals.values():
        assert 0.0 <= probability < 1.0  # ambiguous: never certain


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000), n_inserts=st.integers(1, 5))
def test_mode_all_never_leaves_coverage_gaps(seed, n_inserts):
    from repro.core.derivation import Derivation
    from repro.core.schema import FunctionDef
    from repro.core.types import ObjectType, TypeFunctionality
    from repro.fdb.database import FunctionalDatabase

    A, B, C = (ObjectType(n) for n in "ABC")
    MM = TypeFunctionality.MANY_MANY
    db = FunctionalDatabase(insert_mode="all")
    f1 = FunctionDef("f1", A, C, MM)
    f2 = FunctionDef("f2", C, B, MM)
    g = FunctionDef("g", A, B, MM)
    for f in (f1, f2, g):
        db.declare_base(f)
    db.declare_derived(
        FunctionDef("v", A, B, MM),
        [Derivation.of(f1, f2), Derivation.of(g)],
    )
    import random

    rng = random.Random(seed)
    for i in range(n_inserts):
        db.insert("v", f"a{rng.randrange(4)}", f"b{rng.randrange(4)}")
    assert audit_insert_coverage(db) == []
