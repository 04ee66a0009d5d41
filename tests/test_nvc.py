"""Tests for null-valued chains (create/exists/clean-up)."""

from __future__ import annotations

import pytest

from repro.core.derivation import Derivation, Op, Step
from repro.core.schema import FunctionDef
from repro.core.types import ObjectType, TypeFunctionality
from repro.fdb.database import FunctionalDatabase
from repro.fdb.evaluate import truth_of
from repro.fdb.logic import Truth
from repro.fdb.nvc import clean_up_nvc, create_nvc, exists_nvc, interior_values
from repro.fdb.values import NullValue, is_null
from repro.workloads.generator import chain_fdb

A, B, C = (ObjectType(n) for n in "ABC")
MM = TypeFunctionality.MANY_MANY


@pytest.fixture
def chain_db() -> FunctionalDatabase:
    """f1: A->B, f2: B->C, derived v = f1 o f2."""
    db = FunctionalDatabase()
    f1 = FunctionDef("f1", A, B, MM)
    f2 = FunctionDef("f2", B, C, MM)
    db.declare_base(f1)
    db.declare_base(f2)
    db.declare_derived(FunctionDef("v", A, C, MM), Derivation.of(f1, f2))
    return db


class TestCreate:
    def test_creates_fresh_null_chain(self, chain_db):
        derivation = chain_db.derived("v").primary
        facts = create_nvc(chain_db, derivation, "a3", "c3")
        assert len(facts) == 2
        first, second = facts
        assert first.x == "a3" and is_null(first.y)
        assert is_null(second.x) and second.y == "c3"
        assert first.y == second.x  # same null links the chain
        assert first.truth is Truth.TRUE and second.truth is Truth.TRUE

    def test_nulls_unique_across_calls(self, chain_db):
        derivation = chain_db.derived("v").primary
        first = create_nvc(chain_db, derivation, "a1", "c1")
        second = create_nvc(chain_db, derivation, "a2", "c2")
        assert first[0].y != second[0].y

    def test_single_step_derivation_no_nulls(self):
        """taught_by = teach^-1: the 'NVC' is the single reoriented
        base fact."""
        db = FunctionalDatabase()
        teach = FunctionDef("teach", A, B, MM)
        db.declare_base(teach)
        db.declare_derived(
            FunctionDef("taught_by", B, A, MM),
            Derivation.of(Step(teach, Op.INVERSE)),
        )
        derivation = db.derived("taught_by").primary
        facts = create_nvc(db, derivation, "math", "euclid")
        assert len(facts) == 1
        # The inverted step stores the pair reoriented into teach.
        assert facts[0].pair == ("euclid", "math")
        assert db.table("teach").get("euclid", "math") is facts[0]

    def test_inverse_interior_orientation(self):
        """v = f^-1 o g: the first stored fact is reversed."""
        db = FunctionalDatabase()
        f = FunctionDef("f", B, A, MM)   # f: B->A, used inverted: A->B
        g = FunctionDef("g", B, C, MM)
        db.declare_base(f)
        db.declare_base(g)
        db.declare_derived(
            FunctionDef("v", A, C, MM),
            Derivation([Step(f, Op.INVERSE), Step(g)]),
        )
        facts = create_nvc(db, db.derived("v").primary, "a", "c")
        # f's table stores <null, a> because the step is inverted.
        assert is_null(facts[0].x) and facts[0].y == "a"
        assert facts[0] is db.table("f").get(facts[0].x, "a")
        assert facts[1].pair == (facts[0].x, "c")

    def test_self_join_insert_stores_one_fact(self):
        """h = f1 o f1^-1, INS h(zz, zz): both steps' pair is <zz, n1>,
        so the NVC is one fact serving both steps — stored once, on a
        bare engine call, not refused half-applied."""
        db = chain_fdb(2)
        f1 = db.schema["f1"]
        db.declare_derived(FunctionDef("h", f1.domain, f1.domain, MM),
                           Derivation([Step(f1), Step(f1, Op.INVERSE)]))
        db.insert("h", "zz", "zz")
        (fact,) = db.table("f1").facts()
        assert fact.x == "zz" and is_null(fact.y)
        assert db.nulls.next_index == 2
        assert truth_of(db, "h", "zz", "zz") is Truth.TRUE
        assert db.structure_fault() is None
        chain = exists_nvc(db, db.derived("h").primary, "zz", "zz")
        assert chain.facts == (fact, fact)

    def test_self_join_delete_deletes_the_one_fact(self):
        """h = f1 o f1^-1, DEL h(p, p) with only f1(p, q) stored: the
        chain <f1,p,q> . <f1,p,q> is a conjunction of one distinct fact,
        so negating it deletes that fact — no NC naming it twice."""
        db = chain_fdb(2)
        f1 = db.schema["f1"]
        db.declare_derived(FunctionDef("h", f1.domain, f1.domain, MM),
                           Derivation([Step(f1), Step(f1, Op.INVERSE)]))
        db.load("f1", [("p", "q")])
        db.delete("h", "p", "p")
        assert db.table("f1").get("p", "q") is None
        assert len(db.ncs) == 0
        assert truth_of(db, "h", "p", "p") is Truth.FALSE
        assert db.structure_fault() is None


class TestExists:
    def test_absent(self, chain_db):
        derivation = chain_db.derived("v").primary
        assert exists_nvc(chain_db, derivation, "a", "c") is None

    def test_found_after_create(self, chain_db):
        derivation = chain_db.derived("v").primary
        create_nvc(chain_db, derivation, "a3", "c3")
        chain = exists_nvc(chain_db, derivation, "a3", "c3")
        assert chain is not None
        assert chain.pair == ("a3", "c3")
        assert all(is_null(v) for v in interior_values(chain))

    def test_requires_null_interior(self, chain_db):
        """A real (non-null) chain is not an NVC."""
        chain_db.load("f1", [("a", "b")])
        chain_db.load("f2", [("b", "c")])
        derivation = chain_db.derived("v").primary
        assert exists_nvc(chain_db, derivation, "a", "c") is None

    def test_requires_same_null_chain(self, chain_db):
        """<a, n1> and <n2, c> with n1 != n2 do not form an NVC."""
        n1, n2 = chain_db.nulls.fresh(), chain_db.nulls.fresh()
        chain_db.table("f1").add_pair("a", n1)
        chain_db.table("f2").add_pair(n2, "c")
        derivation = chain_db.derived("v").primary
        assert exists_nvc(chain_db, derivation, "a", "c") is None

    def test_single_step(self):
        db = FunctionalDatabase()
        f = FunctionDef("f", A, B, MM)
        db.declare_base(f)
        db.declare_derived(FunctionDef("v", A, B, MM), Derivation.of(f))
        db.load("f", [("a", "b")])
        chain = exists_nvc(db, db.derived("v").primary, "a", "b")
        assert chain is not None
        assert chain.pair == ("a", "b")


class TestCleanUp:
    def test_truthifies_ambiguous_nvc(self, chain_db):
        derivation = chain_db.derived("v").primary
        facts = create_nvc(chain_db, derivation, "a3", "c3")
        # Make the NVC ambiguous through an NC.
        chain_db.ncs.create([("f1", facts[0]), ("f2", facts[1])])
        assert facts[0].truth is Truth.AMBIGUOUS
        chain = exists_nvc(chain_db, derivation, "a3", "c3")
        clean_up_nvc(chain_db, chain)
        assert facts[0].truth is Truth.TRUE
        assert facts[1].truth is Truth.TRUE
        assert len(chain_db.ncs) == 0  # base-insert dismantled the NC


class TestInteriorValues:
    def test_interior_of_three_step_chain(self):
        db = FunctionalDatabase()
        f1 = FunctionDef("f1", A, B, MM)
        f2 = FunctionDef("f2", B, C, MM)
        f3 = FunctionDef("f3", C, ObjectType("D"), MM)
        for f in (f1, f2, f3):
            db.declare_base(f)
        db.declare_derived(
            FunctionDef("v", A, ObjectType("D"), MM),
            Derivation.of(f1, f2, f3),
        )
        facts = create_nvc(db, db.derived("v").primary, "a", "d")
        chain = exists_nvc(db, db.derived("v").primary, "a", "d")
        values = interior_values(chain)
        assert len(values) == 2
        assert all(isinstance(v, NullValue) for v in values)
