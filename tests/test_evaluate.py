"""Tests for chain enumeration and the Section 3.2 truth valuation."""

from __future__ import annotations

import pytest

from repro.core.derivation import Derivation, Op, Step
from repro.core.schema import FunctionDef
from repro.core.types import ObjectType, TypeFunctionality
from repro.fdb.database import FunctionalDatabase
from repro.fdb.evaluate import (
    derived_extension,
    iter_chains,
    truth_of,
    truth_of_derived,
)
from repro.fdb.logic import Truth
from repro.fdb.query import fn
from repro.fdb.values import NullValue

A, B, C = (ObjectType(n) for n in "ABC")
MM = TypeFunctionality.MANY_MANY


@pytest.fixture
def db() -> FunctionalDatabase:
    """f1: A->B, f2: B->C, v = f1 o f2, small real instance."""
    database = FunctionalDatabase()
    f1 = FunctionDef("f1", A, B, MM)
    f2 = FunctionDef("f2", B, C, MM)
    database.declare_base(f1)
    database.declare_base(f2)
    database.declare_derived(
        FunctionDef("v", A, C, MM), Derivation.of(f1, f2)
    )
    database.load("f1", [("a1", "b1"), ("a2", "b1"), ("a3", "b2")])
    database.load("f2", [("b1", "c1"), ("b2", "c2")])
    return database


class TestChainEnumeration:
    def test_all_chains(self, db):
        derivation = db.derived("v").primary
        chains = list(iter_chains(db, derivation))
        pairs = sorted(c.pair for c in chains)
        assert pairs == [("a1", "c1"), ("a2", "c1"), ("a3", "c2")]
        assert all(c.all_exact for c in chains)

    def test_fixed_endpoints(self, db):
        derivation = db.derived("v").primary
        chains = list(iter_chains(db, derivation, "a1", "c1"))
        assert len(chains) == 1
        assert str(chains[0]) == "<f1, a1, b1> . <f2, b1, c1>"

    def test_no_chain(self, db):
        derivation = db.derived("v").primary
        assert list(iter_chains(db, derivation, "a1", "c2")) == []

    def test_inverse_direction(self, db):
        inverted = db.derived("v").primary.inverted()
        chains = list(iter_chains(db, inverted, "c1", "a1"))
        assert len(chains) == 1
        assert chains[0].pair == ("c1", "a1")

    def test_ambiguous_matching_through_null(self, db):
        n1 = db.nulls.fresh()
        db.table("f1").add_pair("a9", n1)
        derivation = db.derived("v").primary
        chains = list(iter_chains(db, derivation, "a9", "c1"))
        assert len(chains) == 1
        assert not chains[0].all_exact

    def test_exact_only_mode(self, db):
        n1 = db.nulls.fresh()
        db.table("f1").add_pair("a9", n1)
        derivation = db.derived("v").primary
        assert list(
            iter_chains(db, derivation, "a9", "c1", allow_ambiguous=False)
        ) == []

    def test_null_probe_matches_everything_ambiguously(self, db):
        n1 = db.nulls.fresh()
        db.table("f1").add_pair("a9", n1)
        derivation = db.derived("v").primary
        # From a9 through n1 ambiguously into both f2 rows.
        pairs = {c.pair for c in iter_chains(db, derivation, x="a9")}
        assert pairs == {("a9", "c1"), ("a9", "c2")}

    def test_endpoints_are_exact(self, db):
        """A chain starting at a null is the derived fact <null, ...>,
        not a witness for any data endpoint."""
        n1 = db.nulls.fresh()
        db.table("f1").add_pair(n1, "b1")
        derivation = db.derived("v").primary
        assert list(iter_chains(db, derivation, "zzz", "c1")) == []
        with_null_start = [
            c for c in iter_chains(db, derivation) if c.start == n1
        ]
        assert {c.pair for c in with_null_start} == {(n1, "c1")}

    def test_conjuncts_and_refs(self, db):
        derivation = db.derived("v").primary
        chain = next(iter_chains(db, derivation, "a1", "c1"))
        assert [(name, fact.pair) for name, fact in chain.conjuncts()] == [
            ("f1", ("a1", "b1")), ("f2", ("b1", "c1")),
        ]
        assert len(chain.refs) == 2


class TestTruthValuation:
    def test_true_via_exact_true_chain(self, db):
        assert truth_of_derived(db, "v", "a1", "c1") is Truth.TRUE

    def test_false_when_no_chain(self, db):
        assert truth_of_derived(db, "v", "a1", "c2") is Truth.FALSE

    def test_ambiguous_via_ambiguous_fact(self, db):
        db.table("f1").get("a1", "b1").truth = Truth.AMBIGUOUS
        assert truth_of_derived(db, "v", "a1", "c1") is Truth.AMBIGUOUS

    def test_ambiguous_via_null_match(self, db):
        n1 = db.nulls.fresh()
        db.table("f1").add_pair("a9", n1)
        assert truth_of_derived(db, "v", "a9", "c1") is Truth.AMBIGUOUS

    def test_true_wins_over_ambiguous(self, db):
        n1 = db.nulls.fresh()
        db.table("f1").add_pair("a1", n1)  # extra ambiguous route
        assert truth_of_derived(db, "v", "a1", "c1") is Truth.TRUE

    def test_nc_superset_chain_excluded(self, db):
        """A chain that is a superset of an NC cannot make the fact
        ambiguous — the paper's 'not a superset of a NC' clause."""
        f1_fact = db.table("f1").get("a1", "b1")
        f2_fact = db.table("f2").get("b1", "c1")
        db.ncs.create([("f1", f1_fact), ("f2", f2_fact)])
        assert truth_of_derived(db, "v", "a1", "c1") is Truth.FALSE

    def test_nc_on_one_fact_leaves_other_chains(self, db):
        """a2 shares <f2, b1, c1> with the NC chain of a1 but has its
        own f1 fact: its chain is not a superset of the NC."""
        f1_fact = db.table("f1").get("a1", "b1")
        f2_fact = db.table("f2").get("b1", "c1")
        db.ncs.create([("f1", f1_fact), ("f2", f2_fact)])
        assert truth_of_derived(db, "v", "a2", "c1") is Truth.AMBIGUOUS

    def test_truth_of_dispatches(self, db):
        assert truth_of(db, "f1", "a1", "b1") is Truth.TRUE
        assert truth_of(db, "f1", "a1", "zzz") is Truth.FALSE
        assert truth_of(db, "v", "a1", "c1") is Truth.TRUE

    def test_multiple_derivations_any_can_witness(self):
        database = FunctionalDatabase()
        f = FunctionDef("f", A, B, MM)
        g = FunctionDef("g", A, B, MM)
        database.declare_base(f)
        database.declare_base(g)
        database.declare_derived(
            FunctionDef("v", A, B, MM),
            [Derivation.of(f), Derivation.of(g)],
        )
        database.load("g", [("a", "b")])
        assert truth_of_derived(database, "v", "a", "b") is Truth.TRUE


class TestExtensionAndImage:
    def test_extension(self, db):
        extension = derived_extension(db, "v")
        assert extension == {
            ("a1", "c1"): Truth.TRUE,
            ("a2", "c1"): Truth.TRUE,
            ("a3", "c2"): Truth.TRUE,
        }

    def test_extension_with_ambiguity(self, db):
        db.table("f1").get("a3", "b2").truth = Truth.AMBIGUOUS
        extension = derived_extension(db, "v")
        assert extension[("a3", "c2")] is Truth.AMBIGUOUS
        assert extension[("a1", "c1")] is Truth.TRUE

    def test_extension_excludes_nc_only_pairs(self, db):
        f1_fact = db.table("f1").get("a3", "b2")
        f2_fact = db.table("f2").get("b2", "c2")
        db.ncs.create([("f1", f1_fact), ("f2", f2_fact)])
        extension = derived_extension(db, "v")
        assert ("a3", "c2") not in extension

    def test_image(self, db):
        assert fn("v").image(db, "a1") == {"c1": Truth.TRUE}
        assert fn("v").image(db, "zzz") == {}

    def test_image_with_null_route(self, db):
        n1 = db.nulls.fresh()
        db.table("f1").add_pair("a9", n1)
        image = fn("v").image(db, "a9")
        assert image == {"c1": Truth.AMBIGUOUS, "c2": Truth.AMBIGUOUS}


class TestThreeStepChains:
    def test_longer_derivation(self):
        database = FunctionalDatabase()
        D = ObjectType("D")
        f1 = FunctionDef("f1", A, B, MM)
        f2 = FunctionDef("f2", B, C, MM)
        f3 = FunctionDef("f3", C, D, MM)
        for f in (f1, f2, f3):
            database.declare_base(f)
        database.declare_derived(
            FunctionDef("v", A, D, MM), Derivation.of(f1, f2, f3)
        )
        database.load("f1", [("a", "b")])
        database.load("f2", [("b", "c")])
        database.load("f3", [("c", "d")])
        assert truth_of_derived(database, "v", "a", "d") is Truth.TRUE
        # Break the middle: the fact turns false.
        database.table("f2").discard("b", "c")
        assert truth_of_derived(database, "v", "a", "d") is Truth.FALSE

    def test_mixed_inverse_derivation(self):
        """v = f^-1 o g with real facts."""
        database = FunctionalDatabase()
        f = FunctionDef("f", B, A, MM)
        g = FunctionDef("g", B, C, MM)
        database.declare_base(f)
        database.declare_base(g)
        database.declare_derived(
            FunctionDef("v", A, C, MM),
            Derivation([Step(f, Op.INVERSE), Step(g)]),
        )
        database.load("f", [("b", "a")])
        database.load("g", [("b", "c")])
        assert truth_of_derived(database, "v", "a", "c") is Truth.TRUE
