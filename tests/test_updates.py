"""Tests for the Section 4.1 update algorithms, including a row-by-row
replay of the Section 4.2 worked example (u1..u5)."""

from __future__ import annotations

import pytest

from repro.core.derivation import Derivation, Op, Step
from repro.core.schema import FunctionDef
from repro.core.types import ObjectType, TypeFunctionality
from repro.errors import UpdateError
from repro.fdb.database import FunctionalDatabase
from repro.fdb.evaluate import derived_extension
from repro.fdb.logic import Truth
from repro.fdb.updates import (
    Update,
    apply_update,
    base_delete,
    base_insert,
    derived_delete,
    derived_insert,
)
from repro.fdb.values import NullValue, is_null

A, B, C = (ObjectType(n) for n in "ABC")
MM = TypeFunctionality.MANY_MANY
T, AMB, F = Truth.TRUE, Truth.AMBIGUOUS, Truth.FALSE


class TestBaseInsert:
    def test_new_fact_stored_true(self, pupil_db):
        base_insert(pupil_db, "teach", "gauss", "cs")
        fact = pupil_db.table("teach").get("gauss", "cs")
        assert fact.truth is T and fact.ncl == set()

    def test_existing_ambiguous_fact_truthified(self, pupil_db):
        pupil_db.delete("pupil", "euclid", "john")  # creates the NC
        fact = pupil_db.table("teach").get("euclid", "math")
        assert fact.truth is AMB
        base_insert(pupil_db, "teach", "euclid", "math")
        assert fact.truth is T
        assert fact.ncl == set()
        assert len(pupil_db.ncs) == 0

    def test_insert_dismantles_all_ncs_of_fact(self, pupil_db):
        pupil_db.delete("pupil", "euclid", "john")
        pupil_db.delete("pupil", "euclid", "bill")
        fact = pupil_db.table("teach").get("euclid", "math")
        assert len(fact.ncl) == 2
        base_insert(pupil_db, "teach", "euclid", "math")
        assert len(pupil_db.ncs) == 0
        # The other members of the dismantled NCs stay ambiguous.
        assert pupil_db.table("class_list").get("math", "john").truth is AMB

    def test_idempotent_on_true_fact(self, pupil_db):
        base_insert(pupil_db, "teach", "euclid", "math")
        assert len(pupil_db.table("teach")) == 2


class TestBaseDelete:
    def test_removes_fact(self, pupil_db):
        base_delete(pupil_db, "teach", "euclid", "math")
        assert pupil_db.table("teach").get("euclid", "math") is None
        assert pupil_db.truth_of("teach", "euclid", "math") is F

    def test_absent_fact_noop(self, pupil_db):
        base_delete(pupil_db, "teach", "nobody", "nothing")
        assert len(pupil_db.table("teach")) == 2

    def test_dismantles_ncs(self, pupil_db):
        pupil_db.delete("pupil", "euclid", "john")
        base_delete(pupil_db, "teach", "euclid", "math")
        assert len(pupil_db.ncs) == 0
        # Its NC partner stays ambiguous with an empty NCL (the u3 state).
        partner = pupil_db.table("class_list").get("math", "john")
        assert partner.truth is AMB and partner.ncl == set()


class TestDerivedDelete:
    def test_creates_nc_per_chain(self, pupil_db):
        derived_delete(pupil_db, "pupil", "euclid", "john")
        assert len(pupil_db.ncs) == 1
        nc = pupil_db.ncs.get(1)
        assert {str(m) for m in nc.members} == {
            "<teach, euclid, math>", "<class_list, math, john>",
        }

    def test_fact_becomes_false(self, pupil_db):
        derived_delete(pupil_db, "pupil", "euclid", "john")
        assert pupil_db.truth_of("pupil", "euclid", "john") is F

    def test_siblings_become_ambiguous_not_deleted(self, pupil_db):
        """The paper's headline claim: no side effects. <euclid, bill>
        and <laplace, john> survive (ambiguous), unlike under naive
        translation."""
        derived_delete(pupil_db, "pupil", "euclid", "john")
        extension = derived_extension(pupil_db, "pupil")
        assert extension[("euclid", "bill")] is AMB
        assert extension[("laplace", "john")] is AMB
        assert extension[("laplace", "bill")] is T
        assert ("euclid", "john") not in extension
        # And crucially: no base fact was removed.
        assert len(pupil_db.table("teach")) == 2
        assert len(pupil_db.table("class_list")) == 2

    def test_noop_when_underivable(self, pupil_db):
        derived_delete(pupil_db, "pupil", "nobody", "nothing")
        assert len(pupil_db.ncs) == 0

    def test_idempotent(self, pupil_db):
        derived_delete(pupil_db, "pupil", "euclid", "john")
        derived_delete(pupil_db, "pupil", "euclid", "john")
        assert len(pupil_db.ncs) == 1

    def test_multiple_chains_all_negated(self, pupil_db):
        pupil_db.insert("teach", "euclid", "physics")
        pupil_db.insert("class_list", "physics", "john")
        derived_delete(pupil_db, "pupil", "euclid", "john")
        assert len(pupil_db.ncs) == 2
        assert pupil_db.truth_of("pupil", "euclid", "john") is F

    def test_single_step_derivation_deletes_base(self):
        db = FunctionalDatabase()
        f = FunctionDef("f", A, B, MM)
        db.declare_base(f)
        db.declare_derived(FunctionDef("v", A, B, MM), Derivation.of(f))
        db.load("f", [("a", "b")])
        derived_delete(db, "v", "a", "b")
        assert db.table("f").get("a", "b") is None
        assert len(db.ncs) == 0


class TestDerivedInsert:
    def test_creates_nvc(self, pupil_db):
        derived_insert(pupil_db, "pupil", "gauss", "bill")
        assert pupil_db.truth_of("pupil", "gauss", "bill") is T
        nvc_fact = pupil_db.table("teach").get("gauss", NullValue(1))
        assert nvc_fact is not None and nvc_fact.truth is T

    def test_noop_when_already_true(self, pupil_db):
        derived_insert(pupil_db, "pupil", "euclid", "john")
        # No NVC was created: teach still has exactly two rows.
        assert len(pupil_db.table("teach")) == 2
        assert pupil_db.nulls.next_index == 1

    def test_reuses_existing_nvc(self, pupil_db):
        derived_insert(pupil_db, "pupil", "gauss", "bill")
        first_nulls = pupil_db.nulls.next_index
        # Make the NVC ambiguous, then insert again: clean-up, no new
        # nulls.
        derived_delete(pupil_db, "pupil", "gauss", "bill")
        # The exact NVC chain is negated; an ambiguously-matching chain
        # (<gauss, n1> ~ <math, bill>) keeps the fact ambiguous, per the
        # Section 3.2 valuation.
        assert pupil_db.truth_of("pupil", "gauss", "bill") is AMB
        derived_insert(pupil_db, "pupil", "gauss", "bill")
        assert pupil_db.truth_of("pupil", "gauss", "bill") is T
        assert pupil_db.nulls.next_index == first_nulls

    def test_insert_mode_all_covers_every_derivation(self):
        db = FunctionalDatabase(insert_mode="all")
        f = FunctionDef("f", A, B, MM)
        g = FunctionDef("g", A, B, MM)
        db.declare_base(f)
        db.declare_base(g)
        db.declare_derived(
            FunctionDef("v", A, B, MM), [Derivation.of(f), Derivation.of(g)]
        )
        derived_insert(db, "v", "a", "b")
        assert db.table("f").get("a", "b") is not None
        assert db.table("g").get("a", "b") is not None

    def test_insert_mode_primary_covers_first_only(self):
        db = FunctionalDatabase(insert_mode="primary")
        f = FunctionDef("f", A, B, MM)
        g = FunctionDef("g", A, B, MM)
        db.declare_base(f)
        db.declare_base(g)
        db.declare_derived(
            FunctionDef("v", A, B, MM), [Derivation.of(f), Derivation.of(g)]
        )
        derived_insert(db, "v", "a", "b")
        assert db.table("f").get("a", "b") is not None
        assert db.table("g").get("a", "b") is None

    def test_a_later_derivation_walks_the_facts_an_earlier_one_stored(self):
        # Derivation 1's NVC <a, n1> <n1, n2> <n2, b> is also an NVC of
        # derivation 2 (a -f-> n1 -g-> n2 -g^-1-> n1 -g-> n2 -h-> b), so
        # derivation 2 reuses it; a walk from before derivation 1 wrote
        # would have found nothing and stored four more nulls.
        C, D = ObjectType("C"), ObjectType("D")
        f, g, h = (FunctionDef("f", A, C, MM), FunctionDef("g", C, D, MM),
                   FunctionDef("h", D, B, MM))
        db = FunctionalDatabase(insert_mode="all")
        for function in (f, g, h):
            db.declare_base(function)
        db.declare_derived(FunctionDef("v", A, B, MM), [
            Derivation.of(f, g, h),
            Derivation([Step(f), Step(g), Step(g, Op.INVERSE), Step(g),
                        Step(h)]),
        ])
        derived_insert(db, "v", "a", "b")
        assert db.nulls.next_index == 3
        assert [len(db.table(name)) for name in "fgh"] == [1, 1, 1]
        assert db.truth_of("v", "a", "b") is T


class TestUpdateObject:
    def test_str(self):
        assert str(Update.ins("f", "a", "b")) == "INS(f, <a, b>)"
        assert str(Update.delete("f", "a", "b")) == "DEL(f, <a, b>)"
        assert str(Update.rep("f", ("a", "b"), ("c", "d"))) == (
            "REP(f, <a, b>, <c, d>)"
        )

    def test_validation(self):
        with pytest.raises(UpdateError):
            Update("UPSERT", "f", ("a", "b"))
        with pytest.raises(UpdateError):
            Update("INS", "f", ("a", "b"), ("c", "d"))
        with pytest.raises(UpdateError):
            Update("REP", "f", ("a", "b"))

    def test_apply_dispatch(self, pupil_db):
        apply_update(pupil_db, Update.ins("teach", "gauss", "cs"))
        assert pupil_db.truth_of("teach", "gauss", "cs") is T
        apply_update(pupil_db, Update.delete("teach", "gauss", "cs"))
        assert pupil_db.truth_of("teach", "gauss", "cs") is F
        apply_update(pupil_db, Update.rep(
            "teach", ("euclid", "math"), ("euclid", "cs")
        ))
        assert pupil_db.truth_of("teach", "euclid", "cs") is T


class TestSection42Trace(object):
    """Row-by-row replay of the five update tables of Section 4.2."""

    def _teach_rows(self, db):
        return db.table("teach").rows()

    def _class_rows(self, db):
        return db.table("class_list").rows()

    def _pupil(self, db):
        return derived_extension(db, "pupil")

    def test_initial_state(self, pupil_db):
        assert self._pupil(pupil_db) == {
            ("euclid", "john"): T, ("euclid", "bill"): T,
            ("laplace", "john"): T, ("laplace", "bill"): T,
        }

    def test_after_u1(self, pupil_db, u_sequence):
        apply_update(pupil_db, u_sequence[0])
        assert self._teach_rows(pupil_db) == [
            ("euclid", "math", "A", "{g1}"),
            ("laplace", "math", "T", "{}"),
        ]
        assert self._class_rows(pupil_db) == [
            ("math", "john", "A", "{g1}"),
            ("math", "bill", "T", "{}"),
        ]
        assert self._pupil(pupil_db) == {
            ("euclid", "bill"): AMB,
            ("laplace", "john"): AMB,
            ("laplace", "bill"): T,
        }

    def test_after_u2(self, pupil_db, u_sequence):
        for update in u_sequence[:2]:
            apply_update(pupil_db, update)
        n1 = NullValue(1)
        assert self._teach_rows(pupil_db)[2] == ("gauss", "n1", "T", "{}")
        assert self._class_rows(pupil_db)[2] == ("n1", "bill", "T", "{}")
        pupil = self._pupil(pupil_db)
        assert pupil[("gauss", "bill")] is T      # the NVC matches exactly
        assert pupil[("gauss", "john")] is AMB    # n1 ~ math ambiguous
        assert pupil_db.table("teach").get("gauss", n1).truth is T

    def test_after_u3(self, pupil_db, u_sequence):
        for update in u_sequence[:3]:
            apply_update(pupil_db, update)
        assert pupil_db.table("teach").get("euclid", "math") is None
        assert len(pupil_db.ncs) == 0
        partner = pupil_db.table("class_list").get("math", "john")
        assert partner.truth is AMB and partner.ncl == set()
        pupil = self._pupil(pupil_db)
        assert pupil == {
            ("laplace", "john"): AMB,
            ("laplace", "bill"): T,
            ("gauss", "bill"): T,
            ("gauss", "john"): AMB,
        }

    def test_after_u4(self, pupil_db, u_sequence):
        for update in u_sequence[:4]:
            apply_update(pupil_db, update)
        partner = pupil_db.table("class_list").get("math", "john")
        assert partner.truth is T
        pupil = self._pupil(pupil_db)
        assert pupil[("laplace", "john")] is T
        assert pupil[("gauss", "john")] is AMB

    def test_after_u5(self, pupil_db, u_sequence):
        for update in u_sequence:
            apply_update(pupil_db, update)
        pupil = self._pupil(pupil_db)
        assert pupil == {
            ("gauss", "john"): T,
            ("laplace", "john"): T,
            ("laplace", "bill"): T,
            ("gauss", "bill"): T,
        }
        # The NVC row <gauss, n1> remains, as in the paper's last table.
        assert any(
            is_null(fact.y) for fact in pupil_db.table("teach").facts()
        )

    def test_no_base_fact_ever_deleted_by_derived_updates(
        self, pupil_db, u_sequence
    ):
        """Side-effect freedom: u1 and u2 are derived updates and must
        not remove stored base facts."""
        before_teach = {f.pair for f in pupil_db.table("teach").facts()}
        before_class = {f.pair for f in pupil_db.table("class_list").facts()}
        apply_update(pupil_db, u_sequence[0])  # DEL(pupil, ...)
        apply_update(pupil_db, u_sequence[1])  # INS(pupil, ...)
        after_teach = {f.pair for f in pupil_db.table("teach").facts()}
        after_class = {f.pair for f in pupil_db.table("class_list").facts()}
        assert before_teach <= after_teach
        assert before_class <= after_class
