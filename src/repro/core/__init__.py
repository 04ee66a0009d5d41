"""Core of the reproduction: the paper's primary contribution.

This subpackage contains the schema model of a functional database
(Section 1 of the paper), the function graph and the Minimal Schema
Problem machinery (Section 2.1), and the on-line interactive design aid
(Sections 2.2-2.3).

The runtime side — stored tables, three-valued facts, and the update
algorithms of Sections 3-4 — lives in :mod:`repro.fdb`.
"""

from __future__ import annotations

from repro.lazy import export_lazily

__all__ = export_lazily(__name__, {
    ".types": ("Multiplicity", "ObjectType", "TypeFunctionality"),
    ".schema": ("FunctionDef", "Schema"),
    ".derivation": ("Derivation", "Op", "Step"),
    ".graph": ("Edge", "FunctionGraph", "Path"),
    ".minimal_schema": (
        "MinimalSchemaResult", "all_minimal_schemas", "minimal_schema",
        "minimal_schema_ams", "minimal_schema_without_ufa",
    ),
    ".design_aid": (
        "AutoDesigner", "CycleReport", "Designer", "DesignSession",
        "ScriptedDesigner",
    ),
    ".schema_text": ("format_schema", "parse_function_def", "parse_schema"),
    ".closure": ("closure_signatures", "derivable_functions"),
    ".dot": ("design_to_dot", "graph_to_dot"),
    ".offline": ("OfflineDesignReport", "verify_offline_design"),
})
