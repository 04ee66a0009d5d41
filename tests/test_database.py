"""Tests for the FunctionalDatabase container and its front-door API."""

from __future__ import annotations

import pytest

from repro.core.derivation import Derivation
from repro.core.design_aid import DesignSession
from repro.core.schema import FunctionDef
from repro.core.types import ObjectType, TypeFunctionality
from repro.errors import (
    NotABaseFunctionError,
    NotADerivedFunctionError,
    SchemaError,
    UnknownFunctionError,
)
from repro.fdb import updates
from repro.fdb.database import DerivedFunction, FunctionalDatabase
from repro.fdb.logic import Truth
from repro.workloads.university import (
    design_trace_designer,
    design_trace_functions,
)

A, B, C = (ObjectType(n) for n in "ABC")
MM = TypeFunctionality.MANY_MANY


def make_db() -> FunctionalDatabase:
    db = FunctionalDatabase()
    f = FunctionDef("f", A, B, MM)
    g = FunctionDef("g", B, C, MM)
    db.declare_base(f)
    db.declare_base(g)
    db.declare_derived(FunctionDef("v", A, C, MM), Derivation.of(f, g))
    return db


class TestDeclaration:
    def test_classification(self):
        db = make_db()
        assert db.is_base("f") and db.is_base("g")
        assert db.is_derived("v")
        assert db.base_names == ("f", "g")
        assert db.derived_names == ("v",)

    def test_unknown_function(self):
        db = make_db()
        with pytest.raises(UnknownFunctionError):
            db.is_base("zzz")
        with pytest.raises(UnknownFunctionError):
            db.table("zzz")

    def test_table_of_derived_rejected(self):
        db = make_db()
        with pytest.raises(NotABaseFunctionError):
            db.table("v")

    def test_derived_of_base_rejected(self):
        db = make_db()
        with pytest.raises(NotADerivedFunctionError):
            db.derived("f")

    def test_derivation_must_use_declared_base(self):
        db = FunctionalDatabase()
        f = FunctionDef("f", A, B, MM)
        db.declare_base(f)
        stranger = FunctionDef("g", B, C, MM)
        with pytest.raises(SchemaError):
            db.declare_derived(
                FunctionDef("v", A, C, MM), Derivation.of(f, stranger)
            )

    def test_derivation_may_not_reference_derived(self):
        db = make_db()
        v = db.schema["v"]
        with pytest.raises(SchemaError):
            db.declare_derived(
                FunctionDef("w", A, C, MM), Derivation.of(v)
            )

    def test_derivation_endpoints_checked(self):
        db = FunctionalDatabase()
        f = FunctionDef("f", A, B, MM)
        db.declare_base(f)
        with pytest.raises(SchemaError):
            db.declare_derived(FunctionDef("v", A, C, MM), Derivation.of(f))

    def test_derived_needs_derivations(self):
        with pytest.raises(SchemaError):
            DerivedFunction(FunctionDef("v", A, C, MM), ())

    def test_insert_mode_validated(self):
        with pytest.raises(ValueError):
            FunctionalDatabase(insert_mode="sometimes")

    def test_multiple_derivations(self):
        db = FunctionalDatabase()
        f = FunctionDef("f", A, B, MM)
        g = FunctionDef("g", A, B, MM)
        db.declare_base(f)
        db.declare_base(g)
        derived = db.declare_derived(
            FunctionDef("v", A, B, MM),
            [Derivation.of(f), Derivation.of(g)],
        )
        assert len(derived.derivations) == 2
        assert derived.primary == Derivation.of(f)


class TestFromDesign:
    def test_roundtrip_from_paper_session(self):
        session = DesignSession(design_trace_designer())
        session.add_all(design_trace_functions())
        db = FunctionalDatabase.from_design(session.finish())
        assert set(db.base_names) == {
            "teach", "class_list", "score", "cutoff",
            "attendance", "attendance_eval",
        }
        assert set(db.derived_names) == {"taught_by", "lecturer_of", "grade"}
        assert str(db.derived("grade").primary) == "score o cutoff"

    def test_rejects_unconfirmed_derived(self):
        from repro.core.design_aid import DesignOutcome
        from repro.core.schema import Schema

        base = Schema([FunctionDef("f", A, B, MM)])
        derived = Schema([FunctionDef("v", A, B, MM)])
        outcome = DesignOutcome(base, derived, {"v": ()})
        with pytest.raises(SchemaError):
            FunctionalDatabase.from_design(outcome)


class TestInstance:
    def test_load_and_extension(self):
        db = make_db()
        db.load("f", [("a", "b")])
        db.load_instance({"g": [("b", "c")]})
        assert db.extension("f") == {("a", "b"): Truth.TRUE}
        assert db.extension("v") == {("a", "c"): Truth.TRUE}

    def test_counts(self):
        db = make_db()
        db.load("f", [("a", "b"), ("a2", "b")])
        counts = db.counts()
        assert counts["stored_facts"] == 2
        assert counts["true_facts"] == 2
        assert counts["ambiguous_facts"] == 0
        assert counts["ncs"] == 0

    def test_front_door_dispatch(self):
        db = make_db()
        db.insert("f", "a", "b")
        db.insert("g", "b", "c")
        assert db.truth_of("v", "a", "c") is Truth.TRUE
        db.delete("v", "a", "c")
        assert db.truth_of("v", "a", "c") is not Truth.TRUE
        assert db.counts()["ncs"] == 1

    def test_replace_front_door(self):
        db = make_db()
        db.insert("f", "a", "b")
        updates.replace(db, "f", ("a", "b"), ("a", "b2"))
        assert db.truth_of("f", "a", "b") is Truth.FALSE
        assert db.truth_of("f", "a", "b2") is Truth.TRUE

    def test_str(self):
        db = make_db()
        text = str(db)
        assert "2 base, 1 derived" in text
        assert "v = f o g (derived)" in text
