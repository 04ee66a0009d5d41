"""Reproduction of *Identifying and Update of Derived Functions in
Functional Databases* (Yerneni & Lanka, ICDE 1989).

A functional database is a set of object types plus functions between
them; schemas are redundant, with some functions *derived* from others
by composition and inverse. This package implements the paper's two
contributions and every substrate they need:

* **Identification** (Section 2): the function graph, Algorithm AMS for
  the Minimal Schema Problem under the Unique Form Assumption, and the
  on-line interactive design aid (Method 2.1) — see :mod:`repro.core`.
* **Update** (Sections 3-4): side-effect-free updates of derived
  functions via three-valued logic, negated conjunctions and
  null-valued chains — see :mod:`repro.fdb`.

Plus: a relational substrate with the Dayal-Bernstein and
Fagin-Ullman-Vardi view-update baselines the paper argues against
(:mod:`repro.relational`), a surface language and interactive REPL
(:mod:`repro.lang`), and workload generators with the paper's running
examples (:mod:`repro.workloads`).

Quickstart::

    from repro import (
        DesignSession, AutoDesigner, FunctionalDatabase,
        parse_schema, Derivation,
    )

    session = DesignSession(AutoDesigner())
    session.add_all(parse_schema('''
        teach: faculty -> course; (many-many)
        class_list: course -> student; (many-many)
        pupil: faculty -> student; (many-many)
    '''))
    db = FunctionalDatabase.from_design(session.finish())
    db.insert("teach", "euclid", "math")
    db.insert("class_list", "math", "john")
    db.truth_of("pupil", "euclid", "john")   # Truth.TRUE
    db.delete("pupil", "euclid", "john")     # creates a negated conjunction
"""

from __future__ import annotations

from repro.errors import (
    ConstraintViolation,
    DerivationError,
    DesignError,
    GraphError,
    ParseError,
    PersistenceError,
    ReproError,
    SchemaError,
    StructureError,
    TransactionError,
    UpdateError,
)
from repro.core import (
    AutoDesigner,
    CycleReport,
    Derivation,
    Designer,
    DesignSession,
    Edge,
    FunctionDef,
    FunctionGraph,
    MinimalSchemaResult,
    Multiplicity,
    ObjectType,
    Op,
    Path,
    Schema,
    ScriptedDesigner,
    Step,
    TypeFunctionality,
    format_schema,
    minimal_schema,
    minimal_schema_ams,
    minimal_schema_without_ufa,
    parse_function_def,
    parse_schema,
)
from repro.core.types import product_type
from repro.fdb import (
    Fact,
    FactRef,
    FunctionalDatabase,
    FunctionTable,
    NCRegistry,
    NegatedConjunction,
    NullFactory,
    NullValue,
    Truth,
    Update,
    apply_update,
    derived_extension,
    derived_image,
    fn,
    is_null,
    iter_chains,
    truth_of,
)
from repro.obs import OBS, Instrumentation

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "SchemaError",
    "DerivationError",
    "GraphError",
    "DesignError",
    "UpdateError",
    "ConstraintViolation",
    "TransactionError",
    "PersistenceError",
    "StructureError",
    "ParseError",
    # core
    "Multiplicity",
    "TypeFunctionality",
    "ObjectType",
    "product_type",
    "FunctionDef",
    "Schema",
    "Derivation",
    "Op",
    "Step",
    "Edge",
    "Path",
    "FunctionGraph",
    "MinimalSchemaResult",
    "minimal_schema",
    "minimal_schema_ams",
    "minimal_schema_without_ufa",
    "Designer",
    "ScriptedDesigner",
    "AutoDesigner",
    "CycleReport",
    "DesignSession",
    "parse_schema",
    "parse_function_def",
    "format_schema",
    # fdb
    "Truth",
    "NullValue",
    "NullFactory",
    "is_null",
    "Fact",
    "FactRef",
    "FunctionTable",
    "NegatedConjunction",
    "NCRegistry",
    "FunctionalDatabase",
    "Update",
    "apply_update",
    "iter_chains",
    "truth_of",
    "derived_extension",
    "derived_image",
    "fn",
    # lang
    "Interpreter",
    # obs
    "OBS",
    "Instrumentation",
]


def __getattr__(name: str):
    # repro.lang is the surface language; only the REPL and scripts
    # that ask for Interpreter need it, so it loads on first access
    # (PEP 562) rather than on every ``import repro``.
    if name == "Interpreter":
        from repro.lang import Interpreter

        return Interpreter
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
