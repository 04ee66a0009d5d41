"""The functional database runtime: stored tables, three-valued facts,
and the side-effect-free update algorithms of Sections 3-4.

Layering (bottom-up):

* :mod:`repro.fdb.values` — data values and uniquely indexed nulls;
* :mod:`repro.fdb.logic` — the three-valued logic (true/ambiguous/false);
* :mod:`repro.fdb.facts` / :mod:`repro.fdb.table` — fact quadruples
  ``<x, y, T/A, NCL>`` and extensionally stored function tables;
* :mod:`repro.fdb.nc` / :mod:`repro.fdb.nvc` — negated conjunctions and
  null-valued chains, the two partial-information constructs;
* :mod:`repro.fdb.database` — the database object tying schema,
  tables, derived-function registry, NC registry and null generation;
* :mod:`repro.fdb.evaluate` — chain enumeration and the truth valuation
  of derived facts;
* :mod:`repro.fdb.updates` — the paper's update procedures;
* :mod:`repro.fdb.query` — a query facility over composition/inverse
  expressions;
* :mod:`repro.fdb.constraints`, :mod:`repro.fdb.ambiguity`,
  :mod:`repro.fdb.transaction`, :mod:`repro.fdb.persistence` —
  functionality constraints & null resolution, ambiguity metrics,
  atomic update sequences, and JSON snapshots.
"""

from __future__ import annotations

from repro.fdb.values import NullValue, NullFactory, is_null
from repro.fdb.logic import Truth
from repro.fdb.facts import Fact, FactRef
from repro.fdb.table import FunctionTable
from repro.fdb.nc import NegatedConjunction, NCRegistry
from repro.fdb.database import DerivedFunction, FunctionalDatabase
from repro.fdb.evaluate import (
    Chain,
    derived_extension,
    derived_image,
    iter_chains,
    truth_of,
    truth_of_derived,
)
from repro.fdb.updates import (
    Update,
    apply_update,
    base_delete,
    base_insert,
    delete,
    derived_delete,
    derived_insert,
    insert,
    replace,
)
from repro.fdb.query import Query, fn
from repro.fdb.journal import Journal
from repro.fdb.ambiguity import AmbiguityReport, measure
from repro.fdb.audit import audit_derivations, audit_insert_coverage
from repro.fdb.worlds import WorldsReport, analyze
from repro.fdb.integrity import (
    CardinalityConstraint,
    ConstraintSet,
    DomainConstraint,
    InclusionDependency,
)
from repro.fdb.constraints import resolve_nulls
from repro.fdb.updates import UpdateSequence, apply_entry, apply_sequence
from repro.fdb.wal import LoggedDatabase, UpdateLog, checkpoint, recover

__all__ = [
    "UpdateSequence",
    "apply_sequence",
    "apply_entry",
    "LoggedDatabase",
    "UpdateLog",
    "checkpoint",
    "recover",
    "Journal",
    "AmbiguityReport",
    "measure",
    "audit_derivations",
    "audit_insert_coverage",
    "WorldsReport",
    "analyze",
    "ConstraintSet",
    "InclusionDependency",
    "DomainConstraint",
    "CardinalityConstraint",
    "resolve_nulls",
    "NullValue",
    "NullFactory",
    "is_null",
    "Truth",
    "Fact",
    "FactRef",
    "FunctionTable",
    "NegatedConjunction",
    "NCRegistry",
    "DerivedFunction",
    "FunctionalDatabase",
    "Chain",
    "iter_chains",
    "truth_of",
    "truth_of_derived",
    "derived_extension",
    "derived_image",
    "Update",
    "apply_update",
    "insert",
    "delete",
    "replace",
    "base_insert",
    "base_delete",
    "derived_insert",
    "derived_delete",
    "Query",
    "fn",
]
