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

from repro.lazy import export_lazily

__all__ = export_lazily(__name__, {
    ".values": ("NullValue", "NullFactory", "is_null"),
    ".logic": ("Truth",),
    ".facts": ("Fact", "FactRef"),
    ".table": ("FunctionTable",),
    ".nc": ("NegatedConjunction", "NCRegistry"),
    ".database": ("DerivedFunction", "FunctionalDatabase"),
    ".evaluate": (
        "Chain", "derived_extension", "iter_chains",
        "truth_of", "truth_of_derived",
    ),
    ".updates": (
        "Update", "apply_update", "base_delete", "base_insert", "delete",
        "derived_delete", "derived_insert", "insert", "replace",
        "UpdateSequence", "apply_entry",
    ),
    ".query": ("Query", "fn"),
    ".journal": ("Journal",),
    ".ambiguity": ("AmbiguityReport", "measure"),
    ".audit": ("audit_derivations", "audit_insert_coverage"),
    ".worlds": ("WorldsReport", "analyze"),
    ".integrity": (
        "CardinalityConstraint", "ConstraintSet", "DomainConstraint",
        "InclusionDependency",
    ),
    ".constraints": ("resolve_nulls",),
    ".wal": ("LoggedDatabase", "UpdateLog", "checkpoint", "recover"),
})
