"""Tests for values, nulls and the Section 3.2 matching rules."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.fdb.table import FunctionTable
from repro.fdb.values import NullFactory, NullValue, is_null


def match(stored, probe) -> str | None:
    """How ``probe`` matches a stored domain value under Section 3.2,
    read off a one-fact table's ``matching_x``: ``"exact"``,
    ``"ambiguous"`` or ``None``."""
    table = FunctionTable("t")
    table.add_pair(stored, "_")
    exact, ambiguous = table.matching_x(probe)
    assert not (exact and ambiguous)
    return "exact" if exact else "ambiguous" if ambiguous else None


class TestNullValue:
    def test_equality_by_index(self):
        assert NullValue(1) == NullValue(1)
        assert NullValue(1) != NullValue(2)

    def test_never_equals_data(self):
        assert NullValue(1) != "n1"
        assert NullValue(1) != 1

    def test_str(self):
        assert str(NullValue(3)) == "n3"

    def test_hashable(self):
        assert len({NullValue(1), NullValue(1), NullValue(2)}) == 2


class TestNullFactory:
    def test_sequential_indices(self):
        factory = NullFactory()
        assert [factory.fresh().index for _ in range(3)] == [1, 2, 3]

    def test_fresh_many(self):
        factory = NullFactory()
        nulls = list(factory.fresh_many(4))
        assert [n.index for n in nulls] == [1, 2, 3, 4]

    def test_next_index_preview(self):
        factory = NullFactory()
        assert factory.next_index == 1
        factory.fresh()
        assert factory.next_index == 2

    def test_resume_from_index(self):
        factory = NullFactory(next_index=10)
        assert factory.fresh() == NullValue(10)

    def test_rejects_bad_start(self):
        with pytest.raises(ValueError):
            NullFactory(0)


class TestMatching:
    """The matching table of Section 3.2."""

    def test_equal_data_matches_exactly(self):
        assert match("math", "math") == "exact"

    def test_distinct_data_no_match(self):
        assert match("math", "physics") is None

    def test_same_null_matches_exactly(self):
        assert match(NullValue(1), NullValue(1)) == "exact"

    def test_distinct_nulls_match_ambiguously(self):
        assert match(NullValue(1), NullValue(2)) == "ambiguous"

    def test_null_vs_data_matches_ambiguously(self):
        assert match(NullValue(1), "math") == "ambiguous"
        assert match("math", NullValue(1)) == "ambiguous"

    def test_is_null(self):
        assert is_null(NullValue(1))
        assert not is_null("n1")
        assert not is_null(None)

    def test_tuples_as_product_values(self):
        assert match(("john", "math"), ("john", "math")) == "exact"
        assert match(("john", "math"), ("john", "physics")) is None

    @given(st.integers(1, 50), st.integers(1, 50))
    def test_exact_and_ambiguous_disjoint_for_nulls(self, i, j):
        # Two nulls always match, exactly when their indices agree.
        expected = "exact" if i == j else "ambiguous"
        assert match(NullValue(i), NullValue(j)) == expected

    @given(st.text(max_size=5) | st.integers(), st.text(max_size=5) | st.integers())
    def test_data_never_matches_ambiguously(self, a, b):
        assert match(a, b) != "ambiguous"
