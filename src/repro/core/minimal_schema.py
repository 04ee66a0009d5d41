"""The Minimal Schema Problem (Section 2).

Given an FDB schema S, a *minimal schema* M is a minimal subschema such
that every function of S is either in M or derivable (by composition and
inverse) from functions of M. Solving the MSP separates base functions
(those in M) from derived ones (the rest).

Two regimes, matching the paper:

* **Without the Unique Form Assumption** the minimal schema is S itself
  (Lemma 1): nothing can be proved derived from syntax alone, because an
  instance can make any single function non-empty while all others are
  empty. :func:`minimal_schema_without_ufa` implements this degenerate
  but correct answer.

* **Under the UFA**, syntactic + type-functional equivalence of an edge
  with a path implies semantic equivalence, so the MSP reduces to graph
  search: Algorithm AMS (:func:`minimal_schema_ams`) removes every edge
  for which an equivalent path exists among the edges not yet removed,
  in O(n^2) time (Lemma 3).

Minimal schemas are not unique — in the paper's first example either of
``teach``/``taught_by`` may be kept. AMS resolves ties by declaration
order: the earlier-declared function is kept. Callers that want a
different tie-break can reorder the schema.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.derivation import Derivation
from repro.core.graph import FunctionGraph
from repro.core.schema import Schema
from repro.obs.hooks import OBS

__all__ = [
    "MinimalSchemaResult",
    "minimal_schema",
    "minimal_schema_ams",
    "minimal_schema_without_ufa",
    "all_minimal_schemas",
]


@dataclass(frozen=True)
class MinimalSchemaResult:
    """Outcome of a minimal-schema computation.

    Attributes
    ----------
    minimal:
        The minimal schema M — the base functions.
    derived:
        The subschema S - M — the derived functions.
    derivations:
        For each derived function name, the derivations found in the
        function graph of M (every syntactically and type-functionally
        equivalent simple path). Under the UFA each of these is
        semantically valid; without it they are *potential* derivations
        for a designer to vet.
    """

    minimal: Schema
    derived: Schema
    derivations: dict[str, tuple[Derivation, ...]] = field(default_factory=dict)

    @property
    def base_names(self) -> tuple[str, ...]:
        return self.minimal.names

    @property
    def derived_names(self) -> tuple[str, ...]:
        return self.derived.names

    def summary(self) -> str:
        """A human-readable report, in the style of Section 2.3."""
        lines = ["Base functions:"]
        for function in self.minimal:
            lines.append(f"  {function}")
        lines.append("Derived functions:")
        for function in self.derived:
            lines.append(f"  {function}")
            for derivation in self.derivations.get(function.name, ()):
                lines.append(f"    {function.name} = {derivation}")
        return "\n".join(lines)


def minimal_schema_ams(schema: Schema) -> MinimalSchemaResult:
    """Algorithm AMS (Section 2.1).

    Step 1 constructs the function graph G_F; step 2 scans the edges in
    declaration order, moving edge e to the removed set M-bar whenever
    the remaining graph G' = (V, E - M-bar - {e}) contains a path
    syntactically and type-functionally equivalent to e; step 3 returns
    M = S - M-bar.

    The inner existence test uses the walk-based BFS of
    :meth:`FunctionGraph.has_equivalent_walk`, which runs in time linear
    in the graph, giving the O(n^2) total of Lemma 3.
    """
    if OBS.enabled:
        OBS.inc("design.ams.runs")
        with OBS.span("design.ams", functions=len(schema)):
            result = _run_ams(schema)
        OBS.inc("design.ams.edges_scanned", len(schema))
        OBS.inc("design.ams.removed", len(result.derived))
        return result
    return _run_ams(schema)


def _run_ams(schema: Schema) -> MinimalSchemaResult:
    graph = FunctionGraph.of_schema(schema)
    removed: set[str] = set()
    for function in schema:
        # has_equivalent_walk already excludes the function's own edge,
        # so G' = (V, E - removed - {e}) as in step 2 of AMS.
        if graph.has_equivalent_walk(function, avoiding=removed):
            removed.add(function.name)
    minimal = Schema(f for f in schema if f.name not in removed)
    derived = schema - minimal

    minimal_graph = FunctionGraph.of_schema(minimal)
    derivations = {
        function.name: tuple(
            path.to_derivation()
            for path in minimal_graph.iter_equivalent_paths(function)
        )
        for function in derived
    }
    return MinimalSchemaResult(minimal, derived, derivations)


def minimal_schema_without_ufa(schema: Schema) -> MinimalSchemaResult:
    """Lemma 1: without the UFA the minimal schema is the schema itself.

    For any function f, the instance in which f is non-empty and every
    other function empty is possible, so no proper subschema can derive
    f. Every function is base; there are no derived functions.
    """
    return MinimalSchemaResult(schema.copy(), Schema(), {})


def all_minimal_schemas(schema: Schema,
                        limit: int = 64) -> list[Schema]:
    """Every minimal schema of the FDB, under the UFA.

    AMS returns *one* minimal schema, chosen by declaration order;
    the paper's first example shows the designer may prefer another
    (keep ``teach`` or keep ``taught_by``). This enumerates the whole
    space by branching on every removable function and deduplicating
    the fixpoints. Worst case exponential — ``limit`` caps the result
    count (a :class:`repro.errors.GraphError` would be surprising
    here, so exceeding the cap raises ``ValueError`` instead).

    For Table 1 this yields exactly two minimal schemas:
    ``{score, cutoff, teach}`` and ``{score, cutoff, taught_by}``.
    """
    results: dict[frozenset[str], Schema] = {}
    visited: set[frozenset[str]] = set()

    def explore(kept_names: frozenset[str]) -> None:
        if kept_names in visited:
            return
        visited.add(kept_names)
        kept = schema.restricted_to(kept_names)
        graph = FunctionGraph.of_schema(kept)
        removable = [
            function.name
            for function in kept
            if graph.has_equivalent_walk(function)
        ]
        if not removable:
            if kept_names not in results:
                if len(results) >= limit:
                    raise ValueError(
                        f"more than {limit} minimal schemas; raise the "
                        "limit to enumerate them all"
                    )
                results[kept_names] = kept
            return
        for name in removable:
            explore(kept_names - {name})

    explore(frozenset(schema.names))
    # Deterministic order: by kept-name tuple.
    return [
        results[key]
        for key in sorted(results, key=lambda names: tuple(sorted(names)))
    ]


def minimal_schema(schema: Schema, *, ufa: bool = True) -> MinimalSchemaResult:
    """Solve the MSP for ``schema``.

    ``ufa=True`` applies Algorithm AMS (the schema is trusted to satisfy
    the Unique Form Assumption); ``ufa=False`` returns the Lemma-1
    answer. For schemas that violate the UFA, use the interactive
    :class:`repro.core.design_aid.DesignSession` instead — AMS will
    happily misclassify functions such as ``class_list`` in the paper's
    S2 example, which is exactly the paper's argument for the on-line
    methodology.
    """
    if ufa:
        return minimal_schema_ams(schema)
    return minimal_schema_without_ufa(schema)
