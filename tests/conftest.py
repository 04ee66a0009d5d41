"""Shared fixtures: the paper's schemas, instances and designer scripts.

Everything here delegates to :mod:`repro.workloads.university`, so tests
and benches replay identical artifacts.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.core.schema import Schema
from repro.fdb.database import FunctionalDatabase
from repro.workloads.university import (
    design_trace_designer,
    design_trace_functions,
    pupil_database,
    schema_s1,
    schema_s2,
    section_31_relational,
    section_42_updates,
)


@pytest.fixture
def s1() -> Schema:
    """Table 1: conceptual schema S1."""
    return schema_s1()


@pytest.fixture
def s2() -> Schema:
    """Section 2.1: the UFA counterexample schema."""
    return schema_s2()


@pytest.fixture
def trace_functions():
    """The Section 2.3 design-trace functions in addition order."""
    return design_trace_functions()


@pytest.fixture
def trace_designer():
    """Fresh scripted designer replaying the paper's decisions."""
    return design_trace_designer()


@pytest.fixture
def pupil_db() -> FunctionalDatabase:
    """The Section 3 / 4.2 instance (teach, class_list, derived pupil)."""
    return pupil_database()


@pytest.fixture
def u_sequence():
    """Updates u1..u5 of Section 4.2."""
    return section_42_updates()


@pytest.fixture
def relational_31():
    """(db, view name, target tuple) of Section 3.1."""
    return section_31_relational()


# -- descriptor ownership -----------------------------------------------------


@pytest.fixture
def closing():
    """``closing(thing)`` hands ``thing`` back and ``close()``s it when
    the test ends, last built first. A log that has appended holds its
    descriptor until its owner closes it; in a test, the test owns what
    it builds, and CI runs the suite with ``-W error::ResourceWarning``
    so a forgotten one fails."""
    with contextlib.ExitStack() as stack:
        def own(thing):
            stack.callback(thing.close)
            return thing

        yield own
