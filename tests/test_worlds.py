"""Tests for the possible-worlds quantification of ambiguity."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cancel import Deadline, deadline_scope
from repro.core.derivation import Derivation, Op, Step
from repro.core.schema import FunctionDef
from repro.core.types import ObjectType, TypeFunctionality
from repro.errors import DeadlineExceeded, ReproError
from repro.fdb.database import FunctionalDatabase
from repro.fdb.evaluate import derived_extension, iter_chains
from repro.fdb.facts import FactRef
from repro.fdb.logic import Truth
from repro.fdb.updates import apply_update
from repro.fdb.worlds import (
    EXACT_LIMIT,
    ambiguous_atoms,
    analyze,
    certain,
    count_worlds,
    default_truth,
    derived_marginal,
    iter_worlds,
    marginal,
    possible,
    preferred_worlds,
)
from repro.workloads.generator import (
    WorkloadConfig,
    chain_fdb,
    random_instance,
    random_updates,
)
from repro.workloads.university import pupil_database

TEACH = FactRef("teach", "euclid", "math")
CLASS = FactRef("class_list", "math", "john")


class TestCleanDatabase:
    def test_single_world(self, pupil_db):
        assert ambiguous_atoms(pupil_db) == ()
        assert count_worlds(pupil_db) == 1
        assert list(iter_worlds(pupil_db)) == [frozenset()]

    def test_true_facts_certain(self, pupil_db):
        assert marginal(pupil_db, "teach", "euclid", "math") == 1.0
        assert certain(pupil_db, "teach", "euclid", "math")

    def test_absent_facts_impossible(self, pupil_db):
        assert marginal(pupil_db, "teach", "gauss", "cs") == 0.0
        assert not possible(pupil_db, "teach", "gauss", "cs")


class TestAfterDerivedDelete:
    """DEL(pupil, <euclid, john>) leaves one NC over two facts: worlds
    are the three truth assignments with not-both-true."""

    @pytest.fixture
    def db(self, pupil_db):
        pupil_db.delete("pupil", "euclid", "john")
        return pupil_db

    def test_atoms(self, db):
        assert set(ambiguous_atoms(db)) == {TEACH, CLASS}

    def test_three_worlds(self, db):
        worlds = set(iter_worlds(db))
        assert worlds == {
            frozenset(), frozenset({TEACH}), frozenset({CLASS}),
        }
        assert count_worlds(db) == 3

    def test_member_marginals_one_third(self, db):
        assert marginal(db, "teach", "euclid", "math") == pytest.approx(1 / 3)
        assert marginal(db, "class_list", "math", "john") == pytest.approx(1 / 3)

    def test_deleted_derived_fact_impossible(self, db):
        # Its only chain needs both NC members true: in no world.
        assert derived_marginal(db, "pupil", "euclid", "john") == 0.0
        assert not possible(db, "pupil", "euclid", "john")

    def test_sibling_derived_marginals(self, db):
        # pupil(euclid, bill) needs only <teach, euclid, math>: 1/3.
        assert derived_marginal(db, "pupil", "euclid", "bill") == (
            pytest.approx(1 / 3)
        )
        # pupil(laplace, bill) needs only true facts: certain.
        assert derived_marginal(db, "pupil", "laplace", "bill") == 1.0
        assert certain(db, "pupil", "laplace", "bill")

    def test_modal_refinement(self, db):
        """An ambiguous fact is possible but not certain."""
        assert possible(db, "teach", "euclid", "math")
        assert not certain(db, "teach", "euclid", "math")


class TestTwoNCs:
    def test_overlapping_ncs(self, pupil_db):
        """NCs {teach, class_john} and {teach, class_bill}: worlds must
        violate neither."""
        pupil_db.delete("pupil", "euclid", "john")
        pupil_db.delete("pupil", "euclid", "bill")
        worlds = set(iter_worlds(pupil_db))
        class_bill = FactRef("class_list", "math", "bill")
        # Atoms: TEACH, CLASS, class_bill. Forbidden: TEACH with either
        # class fact. Allowed: {}, {T}, {Cj}, {Cb}, {Cj, Cb}.
        assert frozenset({TEACH, CLASS}) not in worlds
        assert frozenset({TEACH, class_bill}) not in worlds
        assert frozenset({CLASS, class_bill}) in worlds
        assert len(worlds) == 5

    def test_marginal_reflects_shared_member(self, pupil_db):
        pupil_db.delete("pupil", "euclid", "john")
        pupil_db.delete("pupil", "euclid", "bill")
        # TEACH is in both NCs: true in exactly 1 of 5 worlds.
        assert marginal(pupil_db, "teach", "euclid", "math") == (
            pytest.approx(1 / 5)
        )


class TestReport:
    def test_analyze(self, pupil_db):
        pupil_db.delete("pupil", "euclid", "john")
        report = analyze(pupil_db)
        assert report.atom_count == 2
        assert report.world_count == 3
        assert report.base_marginals[TEACH] == pytest.approx(1 / 3)
        assert 0 < report.entropy_like <= 0.5

    def test_clean_entropy_zero(self, pupil_db):
        assert analyze(pupil_db).entropy_like == 0.0

    def test_str(self, pupil_db):
        pupil_db.delete("pupil", "euclid", "john")
        text = str(analyze(pupil_db))
        assert "3 possible worlds" in text
        assert "P(<teach, euclid, math>)" in text


class TestDefaultLogic:
    def test_clean_db_single_preferred_world(self, pupil_db):
        from repro.fdb.worlds import default_truth, preferred_worlds

        assert preferred_worlds(pupil_db) == [frozenset()]
        assert default_truth(
            pupil_db, "teach", "euclid", "math"
        ) is Truth.TRUE

    def test_single_nc_preferred_worlds(self, pupil_db):
        from repro.fdb.worlds import preferred_worlds

        pupil_db.delete("pupil", "euclid", "john")
        preferred = set(preferred_worlds(pupil_db))
        # By default exactly one suspect is wrong, never both.
        assert preferred == {frozenset({TEACH}), frozenset({CLASS})}

    def test_default_truth_of_members(self, pupil_db):
        from repro.fdb.worlds import default_truth

        pupil_db.delete("pupil", "euclid", "john")
        # Each member holds in one of two preferred worlds: ambiguous.
        assert default_truth(
            pupil_db, "teach", "euclid", "math"
        ) is Truth.AMBIGUOUS
        # The deleted derived fact needs both: false in all preferred.
        assert default_truth(
            pupil_db, "pupil", "euclid", "john"
        ) is Truth.FALSE
        # Unrelated true facts stay true.
        assert default_truth(
            pupil_db, "pupil", "laplace", "bill"
        ) is Truth.TRUE

    def test_defaults_can_promote(self, pupil_db):
        """A fact in every maximal repair is defaulted true even though
        the three-valued verdict says ambiguous."""
        from repro.fdb.worlds import default_truth

        # Two NCs sharing teach: {T, Cj} and {T, Cb}. Worlds of max
        # size: {Cj, Cb} (size 2) only -- teach false by default, both
        # class facts defaulted true.
        pupil_db.delete("pupil", "euclid", "john")
        pupil_db.delete("pupil", "euclid", "bill")
        assert default_truth(
            pupil_db, "class_list", "math", "john"
        ) is Truth.TRUE
        assert default_truth(
            pupil_db, "teach", "euclid", "math"
        ) is Truth.FALSE
        assert pupil_db.truth_of(
            "class_list", "math", "john"
        ) is Truth.AMBIGUOUS  # 3VL stays cautious

    def test_absent_fact_false(self, pupil_db):
        from repro.fdb.worlds import default_truth

        assert default_truth(
            pupil_db, "teach", "nobody", "nothing"
        ) is Truth.FALSE


class TestEnumerationLimit:
    def test_exact_limit_enforced(self, pupil_db):
        """Only the enumerators stop at EXACT_LIMIT; counting does not.
        Each one-member NC forces its fact false: one world."""
        table = pupil_db.table("teach")
        for i in range(EXACT_LIMIT + 1):
            fact = table.add_pair(f"x{i}", f"y{i}")
            pupil_db.ncs.create([("teach", fact)])
        with pytest.raises(ReproError):
            next(iter_worlds(pupil_db))
        with pytest.raises(ReproError):
            preferred_worlds(pupil_db)
        assert count_worlds(pupil_db) == 1
        assert marginal(pupil_db, "teach", "x0", "y0") == 0.0
        assert default_truth(pupil_db, "teach", "x0", "y0") is Truth.FALSE


def star(n_deletes: int) -> FunctionalDatabase:
    """``n`` derived deletes through one shared hub fact: the E14 star."""
    db = chain_fdb(2)
    db.load("f2", [("hub", "c")])
    db.load("f1", [(f"a{i}", "hub") for i in range(n_deletes)])
    for i in range(n_deletes):
        db.delete("v", f"a{i}", "c")
    return db


def independent(n_deletes: int) -> FunctionalDatabase:
    """``n`` derived deletes sharing no fact: n two-member NCs."""
    db = chain_fdb(2)
    db.load("f1", [(f"a{i}", f"b{i}") for i in range(n_deletes)])
    db.load("f2", [(f"b{i}", f"c{i}") for i in range(n_deletes)])
    for i in range(n_deletes):
        db.delete("v", f"a{i}", f"c{i}")
    return db


class TestPastTheOldCliff:
    """Instances the enumerator refuses and the sampler gave up on."""

    def test_star_of_200(self):
        db = star(200)
        assert count_worlds(db) == 2 ** 200 + 1
        # The hub is true in exactly one world: every private fact false.
        assert marginal(db, "f2", "hub", "c") == 1 / (2 ** 200 + 1)
        assert possible(db, "f2", "hub", "c")
        assert not certain(db, "f1", "a0", "hub")
        assert derived_marginal(db, "v", "a0", "c") == 0.0
        # Preferred: hub false, all 200 private facts true.
        assert default_truth(db, "f1", "a0", "hub") is Truth.TRUE
        assert default_truth(db, "f2", "hub", "c") is Truth.FALSE
        assert analyze(db).world_count == 2 ** 200 + 1

    def test_200_independent_ncs(self):
        db = independent(200)
        assert count_worlds(db) == 3 ** 200
        report = analyze(db)
        assert report.atom_count == 400
        assert all(p == 1 / 3 for p in report.base_marginals.values())
        assert derived_marginal(db, "v", "a7", "c7") == 0.0
        assert not possible(db, "v", "a7", "c7")
        assert default_truth(db, "f1", "a7", "b7") is Truth.AMBIGUOUS

    def test_expired_deadline_cancels_the_count(self):
        db = star(50)
        with deadline_scope(Deadline(expires_at=0.0)):
            with pytest.raises(DeadlineExceeded):
                count_worlds(db)


# -- the oracle: brute force over all 2^n assignments -------------------------


def reference_worlds(db) -> list[frozenset]:
    """Every subset of the ambiguous facts that leaves each live NC a
    false member."""
    atoms = ambiguous_atoms(db)
    ncs = [nc.member_set & set(atoms) for nc in db.ncs]
    subsets = (
        frozenset(c) for size in range(len(atoms) + 1)
        for c in itertools.combinations(atoms, size)
    )
    return [
        world for world in subsets
        if not any(nc and nc <= world for nc in ncs)
    ]


def holds_in(db, function, x, y, world) -> bool:
    """Truth of one fact in one world: a stored base fact that is true
    or chosen, or a derived fact with an exactly-matching chain whose
    every fact is."""
    def stored(name, fact):
        return fact.truth is Truth.TRUE or fact.ref(name) in world

    if db.is_base(function):
        fact = db.table(function).get(x, y)
        return fact is not None and stored(function, fact)
    return any(
        all(stored(name, fact) for name, fact in found.conjuncts())
        for derivation in db.derived(function).derivations
        for found in iter_chains(db, derivation, x, y,
                                 allow_ambiguous=False)
    )


def reference_default(db, function, x, y, worlds) -> Truth:
    best = max(len(world) for world in worlds)
    preferred = [world for world in worlds if len(world) == best]
    holding = sum(holds_in(db, function, x, y, w) for w in preferred)
    if holding == len(preferred):
        return Truth.TRUE
    return Truth.FALSE if holding == 0 else Truth.AMBIGUOUS


def assert_agrees_with_reference(db) -> None:
    worlds = reference_worlds(db)
    assert count_worlds(db) == len(worlds)
    best = max(len(world) for world in worlds)
    assert len(preferred_worlds(db)) == sum(
        1 for world in worlds if len(world) == best
    )
    report = analyze(db)
    assert report.world_count == len(worlds)
    questions = [
        (ref.function, ref.x, ref.y) for ref in ambiguous_atoms(db)
    ] + [
        (name, x, y) for name in db.derived_names
        for (x, y) in derived_extension(db, name)
    ]
    for function, x, y in questions:
        holding = sum(holds_in(db, function, x, y, w) for w in worlds)
        assert marginal(db, function, x, y) == holding / len(worlds)
        assert certain(db, function, x, y) == (holding == len(worlds))
        assert possible(db, function, x, y) == (holding > 0)
        assert default_truth(db, function, x, y) is reference_default(
            db, function, x, y, worlds
        )
    for ref, probability in report.base_marginals.items():
        assert probability == marginal(db, ref.function, ref.x, ref.y)


def two_derivation_db(rng: random.Random) -> FunctionalDatabase:
    """``v = f1 o f2 | g``: a derived fact with rival derivations, so
    one fact has several ways to hold."""
    A, B, C = (ObjectType(n) for n in "ABC")
    MM = TypeFunctionality.MANY_MANY
    f1, f2, g = (FunctionDef("f1", A, C, MM), FunctionDef("f2", C, B, MM),
                 FunctionDef("g", A, B, MM))
    db = FunctionalDatabase(insert_mode="all")
    for function in (f1, f2, g):
        db.declare_base(function)
    db.declare_derived(
        FunctionDef("v", A, B, MM),
        [Derivation.of(f1, f2), Derivation.of(g)],
    )
    def pairs(left: str, right: str) -> list[tuple[str, str]]:
        return sorted({
            (f"{left}{rng.randrange(3)}", f"{right}{rng.randrange(3)}")
            for _ in range(rng.randrange(1, 6))
        })

    db.load("f1", pairs("a", "c"))
    db.load("f2", pairs("c", "b"))
    db.load("g", pairs("a", "b"))
    return db


def random_stream_db(k: int, rng: random.Random) -> FunctionalDatabase:
    db = chain_fdb(k)
    random_instance(db, 5, seed=rng.randrange(10_000), value_pool=4)
    config = WorkloadConfig(seed=rng.randrange(10_000), value_pool=4,
                            fresh_value_rate=0.2, derived_delete=0.4,
                            base_delete=0.05)
    for update in random_updates(db, rng.randrange(1, 9), config):
        apply_update(db, update)
    return db


def self_join_db(rng: random.Random) -> FunctionalDatabase:
    """``chain_fdb(2)`` plus ``h = f1 o f1^-1`` after random INS and DEL
    on ``h``: one stored f1 fact can fill both steps of a chain, and a
    way to hold or an NC names it once (a conjunction is a set)."""
    db = chain_fdb(2)
    f1 = db.schema["f1"]
    db.declare_derived(
        FunctionDef("h", f1.domain, f1.domain, TypeFunctionality.MANY_MANY),
        Derivation([Step(f1), Step(f1, Op.INVERSE)]))
    random_instance(db, 5, seed=rng.randrange(10_000), value_pool=4)
    for _ in range(rng.randrange(1, 9)):
        update = db.insert if rng.random() < 0.5 else db.delete
        update("h", f"T0_{rng.randrange(4)}", f"T0_{rng.randrange(4)}")
    return db


def delete_some(db, rng: random.Random, most: int) -> None:
    for name in db.derived_names:
        pairs = list(derived_extension(db, name))
        for pair in rng.sample(pairs, min(len(pairs), rng.randrange(1, most))):
            db.delete(name, *pair)


SHAPES = {
    "chain2": lambda rng: random_stream_db(2, rng),
    "chain3": lambda rng: random_stream_db(3, rng),
    "two_derivations": two_derivation_db,
    "star": lambda rng: star(rng.randrange(1, 7)),
    "overlapping": lambda rng: pupil_database(),
    "self_join": self_join_db,
}


@settings(max_examples=250, deadline=None)
@given(shape=st.sampled_from(sorted(SHAPES)), seed=st.integers(0, 10_000),
       unit_ncs=st.integers(0, 2))
def test_counting_agrees_with_brute_force(shape, seed, unit_ncs):
    rng = random.Random(seed)
    db = SHAPES[shape](rng)
    delete_some(db, rng, 4)
    # One-member NCs (the paper's reading: the fact is simply false),
    # on ambiguous facts already in other NCs and on fresh ones.
    atoms = list(ambiguous_atoms(db))
    for ref in rng.sample(atoms, min(len(atoms), unit_ncs)):
        fact = db.table(ref.function).get(ref.x, ref.y)
        db.ncs.create([(ref.function, fact)])
    assume(len(ambiguous_atoms(db)) <= 12)
    assert_agrees_with_reference(db)
