"""Tests for declarative integrity constraints."""

from __future__ import annotations

import pytest

from repro.errors import ConstraintViolation, SchemaError
from repro.fdb.integrity import (
    CardinalityConstraint,
    ConstraintSet,
    DomainConstraint,
    InclusionDependency,
)
from repro.fdb.logic import Truth
from repro.fdb.updates import Update


class TestInclusionDependency:
    def _constraint(self):
        # Every course with a class list must be taught by somebody.
        return InclusionDependency(
            "class_list", "domain", "teach", "range",
        )

    def test_holds_on_paper_instance(self, pupil_db):
        assert not self._constraint().violations(pupil_db)

    def test_detects_orphan(self, pupil_db):
        pupil_db.insert("class_list", "alchemy", "john")
        violations = self._constraint().violations(pupil_db)
        assert len(violations) == 1
        assert "alchemy" in violations[0].message

    def test_nulls_exempt(self, pupil_db):
        pupil_db.insert("pupil", "gauss", "bill")  # NVC: null course
        assert not self._constraint().violations(pupil_db)

    def test_name(self):
        assert self._constraint().name == (
            "class_list.domain <= teach.range"
        )


class TestDomainConstraint:
    def test_predicate_checked(self, pupil_db):
        from repro.core.schema import FunctionDef
        from repro.core.types import ObjectType, TypeFunctionality

        pupil_db.declare_base(FunctionDef(
            "score", ObjectType("student"), ObjectType("marks"),
            TypeFunctionality.MANY_ONE,
        ))
        constraint = DomainConstraint(
            "score", "range",
            lambda v: isinstance(v, int) and 0 <= v <= 100,
            description="0..100",
        )
        pupil_db.insert("score", "john", 91)
        assert not constraint.violations(pupil_db)
        pupil_db.insert("score", "bill", 140)
        violations = constraint.violations(pupil_db)
        assert len(violations) == 1
        assert "140" in violations[0].message

    def test_bad_column(self, pupil_db):
        constraint = DomainConstraint(
            "teach", "sideways", lambda v: True
        )
        with pytest.raises(SchemaError):
            constraint.violations(pupil_db)


class TestCardinalityConstraint:
    def test_maximum(self, pupil_db):
        constraint = CardinalityConstraint(
            "class_list", per="domain", maximum=2
        )
        assert not constraint.violations(pupil_db)  # math has 2 students
        pupil_db.insert("class_list", "math", "ada")
        violations = constraint.violations(pupil_db)
        assert len(violations) == 1
        assert "maximum 2" in violations[0].message

    def test_minimum_applies_to_present_groups_only(self, pupil_db):
        constraint = CardinalityConstraint(
            "class_list", per="domain", minimum=2
        )
        assert not constraint.violations(pupil_db)
        pupil_db.insert("class_list", "physics", "ada")  # group of 1
        assert constraint.violations(pupil_db)

    def test_per_range(self, pupil_db):
        constraint = CardinalityConstraint(
            "teach", per="range", maximum=1
        )
        # math is taught by two people.
        assert len(constraint.violations(pupil_db)) == 1

    def test_nulls_exempt(self, pupil_db):
        pupil_db.insert("pupil", "gauss", "bill")  # null-keyed rows
        constraint = CardinalityConstraint(
            "class_list", per="domain", maximum=2
        )
        assert not constraint.violations(pupil_db)

    def test_bad_per(self, pupil_db):
        with pytest.raises(SchemaError):
            CardinalityConstraint("teach", per="diagonal").violations(
                pupil_db
            )


class TestConstraintSet:
    def _set(self) -> ConstraintSet:
        return ConstraintSet([
            InclusionDependency("class_list", "domain", "teach", "range"),
            CardinalityConstraint("class_list", per="domain", maximum=2),
        ])

    def test_check_aggregates(self, pupil_db):
        constraints = self._set()
        assert constraints.check(pupil_db) == []
        pupil_db.insert("class_list", "alchemy", "a")
        pupil_db.insert("class_list", "math", "ada")
        assert len(constraints.check(pupil_db)) == 2

    def test_guarded_accepts_clean_update(self, pupil_db):
        constraints = self._set()
        constraints.guarded(
            pupil_db, Update.ins("teach", "gauss", "optics")
        )
        assert pupil_db.truth_of("teach", "gauss", "optics") is Truth.TRUE

    def test_guarded_rolls_back_violation(self, pupil_db):
        constraints = self._set()
        with pytest.raises(ConstraintViolation):
            constraints.guarded(
                pupil_db, Update.ins("class_list", "alchemy", "john")
            )
        # Rolled back: the offending fact is gone.
        assert pupil_db.truth_of(
            "class_list", "alchemy", "john"
        ) is Truth.FALSE

    def test_guarded_rolls_back_partial_information_too(self, pupil_db):
        constraints = ConstraintSet([
            CardinalityConstraint("teach", per="domain", maximum=1),
        ])
        # The derived insert would add an NVC row <gauss, n1> to teach
        # twice? No -- it adds one row; make it violate by preloading.
        pupil_db.insert("teach", "gauss", "optics")
        with pytest.raises(ConstraintViolation):
            constraints.guarded(
                pupil_db, Update.ins("teach", "gauss", "algebra")
            )
        assert pupil_db.truth_of("teach", "gauss", "algebra") is Truth.FALSE

    def test_iteration_and_len(self):
        constraints = self._set()
        assert len(constraints) == 2
        constraints.add(CardinalityConstraint("teach", maximum=5))
        assert len(constraints) == 3
