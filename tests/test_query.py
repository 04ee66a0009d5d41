"""Tests for the query facility (composition/inverse expressions)."""

from __future__ import annotations

import pytest

from repro.core.derivation import Derivation
from repro.core.schema import FunctionDef
from repro.core.types import ObjectType, TypeFunctionality
from repro.errors import SchemaError
from repro.fdb.database import FunctionalDatabase
from repro.fdb.logic import Truth
from repro.fdb.query import fn

A, B, C = (ObjectType(n) for n in "ABC")
MM = TypeFunctionality.MANY_MANY
T, AMB, F = Truth.TRUE, Truth.AMBIGUOUS, Truth.FALSE


class TestCombinators:
    def test_str_forms(self):
        assert str(fn("teach")) == "teach"
        assert str(~fn("teach")) == "(teach)^-1"
        assert str(fn("teach") * fn("class_list")) == "teach o class_list"
        assert str(~~fn("a")) == "((a)^-1)^-1"

    def test_composition_requires_query(self):
        with pytest.raises(TypeError):
            _ = fn("teach") * 42


class TestNormalization:
    def test_base_function(self, pupil_db):
        derivations = fn("teach").derivations(pupil_db)
        assert [str(d) for d in derivations] == ["teach"]

    def test_derived_expands_to_its_derivations(self, pupil_db):
        derivations = fn("pupil").derivations(pupil_db)
        assert [str(d) for d in derivations] == ["teach o class_list"]

    def test_inverse_distributes(self, pupil_db):
        derivations = (~fn("pupil")).derivations(pupil_db)
        assert [str(d) for d in derivations] == ["class_list^-1 o teach^-1"]

    def test_composition_type_checks(self, pupil_db):
        with pytest.raises(SchemaError):
            (fn("teach") * fn("teach")).derivations(pupil_db)

    def test_unknown_function(self, pupil_db):
        with pytest.raises(Exception):
            fn("nope").derivations(pupil_db)

    def test_multiple_derivations_multiply(self):
        db = FunctionalDatabase()
        f = FunctionDef("f", A, B, MM)
        g = FunctionDef("g", A, B, MM)
        h = FunctionDef("h", B, C, MM)
        for x in (f, g, h):
            db.declare_base(x)
        db.declare_derived(
            FunctionDef("v", A, B, MM), [Derivation.of(f), Derivation.of(g)]
        )
        derivations = (fn("v") * fn("h")).derivations(db)
        assert {str(d) for d in derivations} == {"f o h", "g o h"}

    def test_expansion_limit(self):
        db = FunctionalDatabase()
        functions = []
        for i in range(4):
            function = FunctionDef(f"f{i}", A, A, MM)
            db.declare_base(function)
            functions.append(function)
        db.declare_derived(
            FunctionDef("v", A, A, MM),
            [Derivation.of(f) for f in functions],
        )
        query = fn("v")
        for _ in range(3):
            query = query * fn("v")   # 4^4 = 256 expansions
        with pytest.raises(SchemaError):
            query.derivations(db)


class TestEvaluation:
    def test_pairs_of_base(self, pupil_db):
        pairs = fn("teach").pairs(pupil_db)
        assert pairs == {
            ("euclid", "math"): T, ("laplace", "math"): T,
        }

    def test_pairs_of_derived_equals_extension(self, pupil_db):
        from repro.fdb.evaluate import derived_extension

        assert fn("pupil").pairs(pupil_db) == (
            derived_extension(pupil_db, "pupil")
        )

    def test_adhoc_composition(self, pupil_db):
        pairs = (fn("teach") * fn("class_list")).pairs(pupil_db)
        assert set(pairs) == {
            ("euclid", "john"), ("euclid", "bill"),
            ("laplace", "john"), ("laplace", "bill"),
        }

    def test_image_and_preimage(self, pupil_db):
        assert fn("teach").image(pupil_db, "euclid") == {"math": T}
        # The preimage is the inverse's image.
        assert (~fn("teach")).image(pupil_db, "math") == {
            "euclid": T, "laplace": T,
        }

    def test_truth(self, pupil_db):
        query = fn("teach") * fn("class_list")
        assert query.truth(pupil_db, "euclid", "john") is T
        assert query.truth(pupil_db, "gauss", "john") is F

    def test_query_respects_ncs(self, pupil_db):
        """An ad-hoc composition sees the same partial information as
        the registered derived function."""
        pupil_db.delete("pupil", "euclid", "john")
        query = fn("teach") * fn("class_list")
        assert query.truth(pupil_db, "euclid", "john") is F
        assert query.truth(pupil_db, "euclid", "bill") is AMB
        assert query.truth(pupil_db, "laplace", "bill") is T

    def test_query_sees_nvcs(self, pupil_db):
        pupil_db.insert("pupil", "gauss", "bill")
        query = fn("teach") * fn("class_list")
        assert query.truth(pupil_db, "gauss", "bill") is T
        assert query.truth(pupil_db, "gauss", "john") is AMB

    def test_double_inverse_is_original(self, pupil_db):
        assert (~~fn("teach")).pairs(pupil_db) == fn("teach").pairs(pupil_db)

    def test_inverse_of_composition(self, pupil_db):
        forward = (fn("teach") * fn("class_list")).pairs(pupil_db)
        backward = (~(fn("teach") * fn("class_list"))).pairs(pupil_db)
        assert {(y, x) for (x, y) in forward} == set(backward)
