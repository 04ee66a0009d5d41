"""Tests for fact quadruples and function tables."""

from __future__ import annotations

import pytest

from repro.errors import UpdateError
from repro.fdb.facts import Fact, FactRef
from repro.fdb.logic import Truth
from repro.fdb.table import FunctionTable
from repro.fdb.values import NullValue


class TestFact:
    def test_quadruple_representation(self):
        fact = Fact("euclid", "math")
        assert fact.pair == ("euclid", "math")
        assert fact.truth is Truth.TRUE
        assert fact.flag == "T"
        assert fact.ncl == set()

    def test_false_fact_rejected(self):
        with pytest.raises(ValueError):
            Fact("a", "b", Truth.FALSE)

    def test_ncl_text(self):
        fact = Fact("a", "b", Truth.AMBIGUOUS, {2, 1})
        assert fact.ncl_text() == "{g1, g2}"
        assert Fact("a", "b").ncl_text() == "{}"

    def test_str(self):
        fact = Fact("a", "b", Truth.AMBIGUOUS, {1})
        assert str(fact) == "<a, b, A, {g1}>"

    def test_identity_by_object(self):
        assert Fact("a", "b") != Fact("a", "b")

    def test_ref(self):
        assert Fact("a", "b").ref("f") == FactRef("f", "a", "b")
        assert str(FactRef("f", "a", "b")) == "<f, a, b>"


class TestTableRows:
    def test_add_and_get(self):
        table = FunctionTable("teach")
        fact = table.add_pair("euclid", "math")
        assert table.get("euclid", "math") is fact
        assert len(table) == 1

    def test_duplicate_pair_rejected(self):
        table = FunctionTable("teach")
        table.add_pair("a", "b")
        with pytest.raises(UpdateError):
            table.add_pair("a", "b")

    def test_discard(self):
        table = FunctionTable("teach")
        table.add_pair("a", "b")
        removed = table.discard("a", "b")
        assert removed is not None
        assert table.get("a", "b") is None
        assert table.discard("a", "b") is None

    def test_insertion_order_preserved(self):
        table = FunctionTable("t")
        table.add_pair("b", "1")
        table.add_pair("a", "2")
        assert [f.pair for f in table.facts()] == [("b", "1"), ("a", "2")]

    def test_truth_of(self):
        table = FunctionTable("t")
        table.add_pair("a", "b", Truth.AMBIGUOUS)
        assert table.truth_of("a", "b") is Truth.AMBIGUOUS
        assert table.truth_of("a", "zzz") is Truth.FALSE


class TestIndices:
    def _table(self) -> FunctionTable:
        table = FunctionTable("t")
        table.add_pair("a", "x")
        table.add_pair("a", "y")
        table.add_pair("b", "x")
        return table

    def test_facts_with_x(self):
        table = self._table()
        assert {f.y for f in table.facts_with_x("a")} == {"x", "y"}
        assert table.facts_with_x("zzz") == ()

    def test_facts_with_y(self):
        table = self._table()
        assert {f.x for f in table.facts_with_y("x")} == {"a", "b"}

    def test_image_preimage(self):
        table = self._table()
        assert [f.y for f in table.facts_with_x("a")] == ["x", "y"]
        assert [f.x for f in table.facts_with_y("x")] == ["a", "b"]

    def test_indices_updated_on_discard(self):
        table = self._table()
        table.discard("a", "x")
        assert {f.y for f in table.facts_with_x("a")} == {"y"}
        assert {f.x for f in table.facts_with_y("x")} == {"b"}

    def test_null_indices(self):
        table = FunctionTable("t")
        n1 = NullValue(1)
        table.add_pair("a", n1)
        table.add_pair(n1, "b")
        assert [f.pair for f in table.null_y_facts()] == [("a", n1)]
        assert [f.pair for f in table.null_x_facts()] == [(n1, "b")]
        table.discard("a", n1)
        assert table.null_y_facts() == ()


class TestMatching:
    def test_matching_x_exact_and_ambiguous(self):
        table = FunctionTable("t")
        n1, n2 = NullValue(1), NullValue(2)
        table.add_pair("math", "john")
        table.add_pair(n1, "bill")
        exact, ambiguous = table.matching_x("math")
        assert [f.pair for f in exact] == [("math", "john")]
        assert [f.pair for f in ambiguous] == [(n1, "bill")]

    def test_matching_x_with_null_probe(self):
        table = FunctionTable("t")
        n1, n2 = NullValue(1), NullValue(2)
        table.add_pair("math", "john")
        table.add_pair(n1, "bill")
        exact, ambiguous = table.matching_x(n1)
        assert [f.pair for f in exact] == [(n1, "bill")]
        # A null probe matches every differing fact ambiguously.
        assert [f.pair for f in ambiguous] == [("math", "john")]

    def test_matching_y(self):
        table = FunctionTable("t")
        n1 = NullValue(1)
        table.add_pair("gauss", n1)
        table.add_pair("laplace", "math")
        exact, ambiguous = table.matching_y("math")
        assert [f.pair for f in exact] == [("laplace", "math")]
        assert [f.pair for f in ambiguous] == [("gauss", n1)]


class TestCopyAndRender:
    def test_copy_is_deep_for_state(self):
        table = FunctionTable("t")
        fact = table.add_pair("a", "b")
        table.ncl_add(fact, 1)
        clone = table.copy()
        clone_fact = clone.get("a", "b")
        clone.ncl_add(clone_fact, 2)
        clone_fact.truth = Truth.AMBIGUOUS
        assert clone_fact.ncl == {1, 2}
        assert fact.ncl == {1}
        assert fact.truth is Truth.TRUE

    def test_rows(self):
        table = FunctionTable("t")
        table.add_pair("a", "b")
        fact = table.add_pair("c", "d", Truth.AMBIGUOUS)
        table.ncl_add(fact, 1)
        assert table.rows() == [
            ("a", "b", "T", "{}"),
            ("c", "d", "A", "{g1}"),
        ]

    def test_str(self):
        table = FunctionTable("t")
        assert "(empty)" in str(table)
        table.add_pair("a", "b")
        assert "a b T {}" in str(table)
