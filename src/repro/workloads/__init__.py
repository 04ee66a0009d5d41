"""Workload generators and the paper's running examples.

:mod:`repro.workloads.university` packages every schema, instance,
update sequence and designer script appearing in the paper, so tests,
examples and benches all replay the same artifacts.
:mod:`repro.workloads.generator` produces seeded synthetic schemas,
instances and update streams for the scaling and comparison
experiments (E4, E5, E9, E10).
"""

from __future__ import annotations

from repro.lazy import export_lazily

__all__ = export_lazily(__name__, {
    ".university": (
        "schema_s1", "schema_s2", "design_trace_functions",
        "design_trace_designer", "pupil_database", "section_31_relational",
        "section_42_updates",
    ),
    ".company": (
        "company_schema", "company_design_order", "company_designer",
        "company_database",
    ),
    ".generator": (
        "WorkloadConfig", "tree_schema_with_derived",
        "cyclic_design_schema", "chain_fdb", "random_instance",
        "random_updates", "paired_chain_workload",
    ),
})
