"""Tests for negated conjunctions and the NC/NCL dual structure."""

from __future__ import annotations

import pytest

from repro.errors import UpdateError
from repro.fdb.evaluate import negating_ncs
from repro.fdb.facts import Fact, FactRef
from repro.fdb.logic import Truth
from repro.fdb.nc import NCRegistry, NegatedConjunction
from repro.fdb.table import FunctionTable
from repro.fdb.values import NullValue


@pytest.fixture
def store():
    """Two tables plus a registry resolving through them."""
    tables = {
        "teach": FunctionTable("teach"),
        "class_list": FunctionTable("class_list"),
    }
    registry = NCRegistry(lambda name: tables[name])
    teach_fact = tables["teach"].add_pair("euclid", "math")
    class_fact = tables["class_list"].add_pair("math", "john")
    return tables, registry, teach_fact, class_fact


class TestCreate:
    def test_create_sets_flags_and_ncl(self, store):
        tables, registry, teach_fact, class_fact = store
        nc = registry.create([("teach", teach_fact),
                              ("class_list", class_fact)])
        assert nc.index == 1
        assert teach_fact.truth is Truth.AMBIGUOUS
        assert class_fact.truth is Truth.AMBIGUOUS
        assert teach_fact.ncl == {1}
        assert class_fact.ncl == {1}
        assert nc.members == (
            FactRef("teach", "euclid", "math"),
            FactRef("class_list", "math", "john"),
        )

    def test_indices_unique(self, store):
        tables, registry, teach_fact, class_fact = store
        first = registry.create([("teach", teach_fact)])
        second = registry.create([("class_list", class_fact)])
        assert first.index != second.index
        assert teach_fact.ncl == {first.index}

    def test_empty_rejected(self, store):
        _, registry, _, _ = store
        with pytest.raises(UpdateError):
            registry.create([])

    def test_str(self, store):
        tables, registry, teach_fact, class_fact = store
        nc = registry.create([("teach", teach_fact)])
        assert str(nc) == "g1: NOT(<teach, euclid, math>)"

    def test_fact_in_multiple_ncs(self, store):
        tables, registry, teach_fact, class_fact = store
        a = registry.create([("teach", teach_fact),
                             ("class_list", class_fact)])
        b = registry.create([("teach", teach_fact)])
        assert teach_fact.ncl == {a.index, b.index}


class TestDismantle:
    def test_dismantle_clears_ncl_keeps_ambiguity(self, store):
        """dismantle-NC: members stay ambiguous — exactly the paper's
        'math john A {}' state after u3."""
        tables, registry, teach_fact, class_fact = store
        nc = registry.create([("teach", teach_fact),
                              ("class_list", class_fact)])
        registry.dismantle(nc.index)
        assert nc.index not in registry
        assert teach_fact.ncl == set()
        assert teach_fact.truth is Truth.AMBIGUOUS
        assert class_fact.truth is Truth.AMBIGUOUS

    def test_dismantle_unknown(self, store):
        _, registry, _, _ = store
        with pytest.raises(UpdateError):
            registry.dismantle(99)

    def test_dismantle_tolerates_removed_member(self, store):
        """base-delete removes the fact from its table before the NCs
        are fully dismantled; dismantle must not explode."""
        tables, registry, teach_fact, class_fact = store
        nc = registry.create([("teach", teach_fact),
                              ("class_list", class_fact)])
        tables["teach"].discard("euclid", "math")
        registry.dismantle(nc.index)
        assert class_fact.ncl == set()

    def test_only_named_index_removed_from_ncl(self, store):
        tables, registry, teach_fact, _ = store
        a = registry.create([("teach", teach_fact)])
        b = registry.create([("teach", teach_fact)])
        registry.dismantle(a.index)
        assert teach_fact.ncl == {b.index}


class TestQueries:
    def test_members_of(self, store):
        tables, registry, teach_fact, class_fact = store
        nc = registry.create([("teach", teach_fact),
                              ("class_list", class_fact)])
        assert registry.members_of(nc.index) == (teach_fact, class_fact)

    def test_members_of_dangling(self, store):
        tables, registry, teach_fact, _ = store
        nc = registry.create([("teach", teach_fact)])
        tables["teach"].discard("euclid", "math")
        with pytest.raises(UpdateError):
            registry.members_of(nc.index)

    def test_negated_only_by_all_members(self, store):
        tables, registry, teach_fact, class_fact = store
        nc = registry.create([("teach", teach_fact),
                              ("class_list", class_fact)])
        both = [teach_fact, class_fact]
        assert set(negating_ncs(registry, both)) == {nc.index}
        assert set(negating_ncs(registry, both + both)) == {nc.index}
        assert set(negating_ncs(registry, [teach_fact])) == set()

    def test_superset_of_an_nc_is_negated(self, store):
        tables, registry, teach_fact, class_fact = store
        nc = registry.create([("teach", teach_fact)])
        superset = [teach_fact, class_fact]
        assert set(negating_ncs(registry, superset)) == {nc.index}
        assert set(negating_ncs(registry, [class_fact])) == set()

    def test_nc_naming_one_fact_twice(self, store):
        """An NC listing one fact twice (``derived_delete`` no longer
        stores one, a bare ``create`` can): one distinct member, so the
        fact alone is a superset."""
        tables, registry, teach_fact, _ = store
        nc = registry.create([("teach", teach_fact), ("teach", teach_fact)])
        assert len(nc.members) == 2
        assert set(negating_ncs(registry, [teach_fact])) == {nc.index}

    def test_index_of_no_live_nc_negates_nothing(self, store):
        tables, registry, teach_fact, class_fact = store
        teach_fact.ncl = frozenset({999})  # around the primitives
        both = [teach_fact, class_fact]
        assert set(negating_ncs(registry, both)) == set()

    def test_len_iter_contains(self, store):
        tables, registry, teach_fact, class_fact = store
        nc = registry.create([("teach", teach_fact)])
        assert len(registry) == 1
        assert nc.index in registry
        assert [n.index for n in registry] == [nc.index]
        assert registry.get(nc.index) is nc
        with pytest.raises(UpdateError):
            registry.get(42)

    def test_str(self, store):
        tables, registry, teach_fact, _ = store
        assert str(registry) == "(no negated conjunctions)"
        registry.create([("teach", teach_fact)])
        assert "g1" in str(registry)


class TestRewrite:
    def test_rewrite_value(self, store):
        tables, registry, teach_fact, class_fact = store
        n1 = NullValue(1)
        null_fact = tables["teach"].add_pair("gauss", n1)
        nc = registry.create([("teach", null_fact),
                              ("class_list", class_fact)])
        registry.rewrite_value(n1, "math")
        rewritten = registry.get(nc.index)
        assert rewritten.members == (
            FactRef("teach", "gauss", "math"),
            FactRef("class_list", "math", "john"),
        )

    def test_rewrite_deduplicates(self, store):
        tables, registry, teach_fact, _ = store
        n1 = NullValue(1)
        other = tables["teach"].add_pair("euclid", n1)
        nc = registry.create([("teach", teach_fact), ("teach", other)])
        registry.rewrite_value(n1, "math")
        assert registry.get(nc.index).members == (
            FactRef("teach", "euclid", "math"),
        )

    def test_rewrite_untouched_ncs_kept(self, store):
        tables, registry, teach_fact, class_fact = store
        nc = registry.create([("class_list", class_fact)])
        registry.rewrite_value(NullValue(9), "whatever")
        assert registry.get(nc.index).members == (
            FactRef("class_list", "math", "john"),
        )


class TestNegatedConjunctionValue:
    def test_member_set(self):
        nc = NegatedConjunction(1, (
            FactRef("f", "a", "b"), FactRef("g", "b", "c"),
        ))
        assert nc.member_set == frozenset({
            FactRef("f", "a", "b"), FactRef("g", "b", "c"),
        })
