"""Tests for JSON snapshots."""

from __future__ import annotations

import json

import pytest

from repro.errors import PersistenceError
from repro.fdb import persistence
from repro.fdb.evaluate import derived_extension
from repro.fdb.logic import Truth
from repro.fdb.values import NullValue


def assert_same_state(a, b) -> None:
    assert a.base_names == b.base_names
    assert a.derived_names == b.derived_names
    for name in a.base_names:
        assert a.table(name).rows() == b.table(name).rows()
    assert a.nulls.next_index == b.nulls.next_index
    assert len(a.ncs) == len(b.ncs)
    for nc in a.ncs:
        assert b.ncs.get(nc.index).members == nc.members


class TestRoundTrip:
    def test_clean_instance(self, pupil_db):
        clone = persistence.loads(persistence.dumps(pupil_db))
        assert_same_state(pupil_db, clone)
        assert derived_extension(clone, "pupil") == (
            derived_extension(pupil_db, "pupil")
        )

    def test_with_partial_information(self, pupil_db, u_sequence):
        from repro.fdb.updates import apply_update

        for update in u_sequence[:2]:  # NC + NVC present
            apply_update(pupil_db, update)
        clone = persistence.loads(persistence.dumps(pupil_db))
        assert_same_state(pupil_db, clone)
        # Partial information survives: same truth valuations.
        assert clone.truth_of("pupil", "euclid", "bill") is Truth.AMBIGUOUS
        assert clone.truth_of("pupil", "gauss", "bill") is Truth.TRUE
        # And fresh nulls continue after the stored counter.
        assert clone.nulls.fresh() == NullValue(pupil_db.nulls.next_index)

    def test_updates_still_work_after_reload(self, pupil_db):
        pupil_db.delete("pupil", "euclid", "john")
        clone = persistence.loads(persistence.dumps(pupil_db))
        clone.insert("teach", "euclid", "math")  # dismantles the NC
        assert len(clone.ncs) == 0

    def test_tuple_values(self):
        """Objects of product types (tuples) survive the round trip as
        tuples, not lists."""
        from repro.core.schema import FunctionDef
        from repro.core.types import ObjectType, TypeFunctionality
        from repro.core.types import product_type
        from repro.fdb.database import FunctionalDatabase

        db = FunctionalDatabase()
        db.declare_base(FunctionDef(
            "score", product_type("student", "course"),
            ObjectType("marks"), TypeFunctionality.MANY_ONE,
        ))
        db.load("score", [(("john", "math"), 91)])
        clone = persistence.loads(persistence.dumps(db))
        assert clone.table("score").get(("john", "math"), 91) is not None

    def test_insert_mode_preserved(self):
        from repro.workloads.university import pupil_database

        db = pupil_database(insert_mode="primary")
        clone = persistence.loads(persistence.dumps(db))
        assert clone.insert_mode == "primary"

    def test_file_roundtrip(self, pupil_db, tmp_path):
        path = tmp_path / "db.json"
        persistence.save(pupil_db, path)
        clone = persistence.load(path)
        assert_same_state(pupil_db, clone)


class TestValidation:
    def test_not_a_snapshot(self):
        with pytest.raises(PersistenceError):
            persistence.from_dict({"format": "something-else"})

    def test_bad_version(self, pupil_db):
        data = persistence.to_dict(pupil_db)
        data["version"] = 999
        with pytest.raises(PersistenceError):
            persistence.from_dict(data)

    def test_invalid_json(self):
        with pytest.raises(PersistenceError):
            persistence.loads("{not json")

    def test_missing_file(self, tmp_path):
        with pytest.raises(PersistenceError):
            persistence.load(tmp_path / "absent.json")

    def test_unpersistable_value(self, pupil_db):
        pupil_db.table("teach").add_pair("x", frozenset({1}))
        with pytest.raises(PersistenceError):
            persistence.dumps(pupil_db)

    def test_consistency_check_dangling_nc(self, pupil_db):
        pupil_db.delete("pupil", "euclid", "john")
        data = persistence.to_dict(pupil_db)
        data["base"][0]["facts"] = data["base"][0]["facts"][1:]  # drop row
        with pytest.raises(PersistenceError):
            persistence.from_dict(data)

    def test_consistency_check_flag_mismatch(self, pupil_db):
        pupil_db.delete("pupil", "euclid", "john")
        data = persistence.to_dict(pupil_db)
        data["base"][0]["facts"][0]["flag"] = "T"  # NC member must be A
        with pytest.raises(PersistenceError):
            persistence.from_dict(data)

    def test_consistency_check_dead_ncl_pointer(self, pupil_db):
        data = persistence.to_dict(pupil_db)
        data["base"][0]["facts"][0]["ncl"] = [42]
        with pytest.raises(PersistenceError):
            persistence.from_dict(data)

    def test_snapshot_is_plain_json(self, pupil_db):
        text = persistence.dumps(pupil_db)
        parsed = json.loads(text)
        assert parsed["format"] == "repro-fdb-snapshot"
        assert parsed["version"] == 1


def section_42_after_u5():
    """u1-u5 leave nulls and a used NC counter; one more derived DEL
    leaves a live NC beside them."""
    from repro.fdb.updates import apply_update
    from repro.workloads.university import (pupil_database,
                                            section_42_updates)

    db = pupil_database()
    for update in section_42_updates():
        apply_update(db, update)
    db.delete("pupil", "laplace", "bill")
    assert db.ncs and any(t.null_x_facts() or t.null_y_facts()
                          for t in db.tables())
    return db


def tuple_valued():
    from repro.core.schema import FunctionDef
    from repro.core.types import ObjectType, TypeFunctionality
    from repro.core.types import product_type
    from repro.fdb.database import FunctionalDatabase

    db = FunctionalDatabase()
    db.declare_base(FunctionDef(
        "score", product_type("student", "course"),
        ObjectType("marks"), TypeFunctionality.MANY_ONE,
    ))
    db.load("score", [(("john", "math"), 91), (("mary", "logic"), 78)])
    return db


@pytest.mark.parametrize("build", [section_42_after_u5, tuple_valued])
class TestCompatibility:
    """Snapshots are compact JSON now; an indented one, as written
    before, holds the same keys and loads to the same instance."""

    def test_an_indented_snapshot_loads_like_a_compact_one(self, build):
        db = build()
        indented = json.dumps(persistence.to_dict(db), indent=2)
        compact = persistence.dumps(db)
        assert len(compact) < len(indented)
        old, new = persistence.loads(indented), persistence.loads(compact)
        assert_same_state(old, new)
        assert persistence.to_dict(old) == persistence.to_dict(new) == (
            persistence.to_dict(db))

    def test_a_compact_snapshot_is_one_line(self, build):
        assert "\n" not in persistence.dumps(build())

    def test_facts_outside_an_nc_share_one_empty_ncl(self, build):
        from repro.fdb.facts import NO_NCS

        db = build()
        for clone in (db, persistence.loads(persistence.dumps(db))):
            for table in clone.tables():
                for fact in table.facts():
                    assert fact.ncl or fact.ncl is NO_NCS
                    assert isinstance(fact.ncl, frozenset)
