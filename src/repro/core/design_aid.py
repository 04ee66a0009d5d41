"""The on-line interactive design aid (Method 2.1, Sections 2.2-2.3).

"At the heart of the on-line design methodology a function graph is
maintained dynamically. Initially we start with an empty graph and add
the functions of the conceptual schema one at a time. At any given time
during this process the function graph corresponds to the minimal schema
of the set of functions added so far."

A :class:`DesignSession` holds the dynamic function graph plus the
catalog of every function added so far; any catalog function absent from
the graph is derived, the rest are base. Adding a function runs steps
2-3 of Method 2.1: each cycle formed by the new edge is located, its
*candidate derived functions* identified (the edges whose syntactic and
type-functional information agree with the other path around the cycle),
and the pair (cycle, candidates) is reported to a :class:`Designer`, who
chooses an edge to remove — or declines, leaving the cycle in place (the
paper's ``grade``/``attendance`` example, where the system's suggestion
is wrong and the designer keeps all three functions).

Designers are pluggable:

* :class:`ScriptedDesigner` replays recorded decisions — used by the
  test suite and the benches to re-run the paper's Section 2.3 trace
  verbatim;
* :class:`AutoDesigner` applies a fixed heuristic (useful for scale
  benchmarks where no human is available);
* the interactive console designer lives in :mod:`repro.lang.repl`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from repro.errors import DesignError
from repro.core.derivation import Derivation
from repro.core.graph import FunctionGraph, Path, PathStep
from repro.core.schema import FunctionDef, Schema
from repro.obs.hooks import OBS

__all__ = [
    "CycleReport",
    "Designer",
    "ScriptedDesigner",
    "AutoDesigner",
    "CallbackDesigner",
    "DesignEvent",
    "DesignOutcome",
    "DesignSession",
    "complement_in_cycle",
]


def complement_in_cycle(cycle: Path, index: int) -> Path:
    """The other path around ``cycle``, between the endpoints of step
    ``index``, oriented from that step's function's domain to its range.

    If the chosen edge is a candidate derived function, this path is its
    derivation. For a length-1 cycle (a self-loop) the complement is the
    empty path, which derives nothing.
    """
    steps = cycle.steps
    if not cycle.is_cycle:
        raise DesignError("complement_in_cycle needs a cycle")
    if not 0 <= index < len(steps):
        raise DesignError(f"no step {index} in a cycle of length {len(steps)}")
    chosen = steps[index]
    # Walking the rest of the cycle from the chosen step's target back
    # around to its source traverses, in order, the steps after ``index``
    # then the steps before it.
    onward: list[PathStep] = list(steps[index + 1:]) + list(steps[:index])
    forward_path = Path(chosen.target, onward)
    if chosen.forward:
        # Step went domain -> range; the complement must also read
        # domain -> range, i.e. from source to target the other way
        # around: reverse the onward walk.
        return forward_path.reversed()
    # Step went range -> domain, so the onward walk (target -> source)
    # already reads domain -> range.
    return forward_path


@dataclass(frozen=True)
class CycleReport:
    """What the system shows the designer for one cycle (step 3(ii)).

    Attributes
    ----------
    trigger:
        The function whose addition formed the cycle.
    cycle:
        The cycle, as a closed path starting with ``trigger`` traversed
        forward.
    candidates:
        The candidate derived functions: edges of the cycle whose
        syntactic and type-functional information agree with the rest of
        the cycle, paired with that complementary derivation.
    """

    trigger: FunctionDef
    cycle: Path
    candidates: tuple[tuple[FunctionDef, Derivation], ...]

    @property
    def cycle_functions(self) -> tuple[FunctionDef, ...]:
        return tuple(step.edge.function for step in self.cycle)

    @property
    def candidate_functions(self) -> tuple[FunctionDef, ...]:
        return tuple(function for function, _ in self.candidates)

    def derivation_for(self, name: str) -> Derivation:
        for function, derivation in self.candidates:
            if function.name == name:
                return derivation
        raise DesignError(f"{name!r} is not a candidate in this cycle")

    def describe(self) -> str:
        names = " - ".join(f.name for f in self.cycle_functions)
        if self.candidates:
            cands = ", ".join(f.name for f in self.candidate_functions)
        else:
            cands = "(none)"
        return f"cycle: {names}; candidate derived functions: {cands}"


class Designer(abc.ABC):
    """The human in the loop of Method 2.1."""

    @abc.abstractmethod
    def break_cycle(self, report: CycleReport) -> str | None:
        """Choose the candidate derived function to remove from the
        dynamic graph, by name, or return None to keep the cycle."""

    @abc.abstractmethod
    def confirm_derivation(self, function: FunctionDef,
                           derivation: Derivation) -> bool:
        """Vet one potential derivation of a derived function (the
        filtering step at the end of Section 2.2)."""


class ScriptedDesigner(Designer):
    """A designer that replays recorded decisions.

    ``removals`` maps a frozenset of cycle edge names to the name to
    remove (or None to keep the cycle). ``rejected_derivations`` lists
    ``(function_name, derivation_text)`` pairs to invalidate; everything
    else is confirmed — matching how the paper's designer confirms three
    derivations and invalidates ``grade = attendance o attendance_eval``.

    Unused removal entries are tolerated; a cycle with no entry raises,
    so a drifting trace fails loudly in tests.
    """

    def __init__(
        self,
        removals: dict[frozenset[str], str | None],
        rejected_derivations: Iterable[tuple[str, str]] = (),
    ) -> None:
        self._removals = dict(removals)
        self._rejected = set(rejected_derivations)
        self.unmatched_cycles: list[CycleReport] = []

    def break_cycle(self, report: CycleReport) -> str | None:
        key = frozenset(report.cycle.edge_names)
        if key not in self._removals:
            self.unmatched_cycles.append(report)
            raise DesignError(
                f"no scripted decision for cycle {sorted(key)}"
            )
        return self._removals[key]

    def confirm_derivation(self, function: FunctionDef,
                           derivation: Derivation) -> bool:
        return (function.name, str(derivation)) not in self._rejected


class AutoDesigner(Designer):
    """A non-interactive heuristic designer for large-scale runs.

    Prefers to classify the *triggering* (most recently added) function
    as derived when it is a candidate; otherwise removes the first
    candidate; keeps the cycle when there are no candidates. Confirms
    every derivation. With this policy the session computes the same
    separation AMS would under the UFA.
    """

    def break_cycle(self, report: CycleReport) -> str | None:
        if not report.candidates:
            return None
        candidate_names = [f.name for f in report.candidate_functions]
        if report.trigger.name in candidate_names:
            return report.trigger.name
        return candidate_names[0]

    def confirm_derivation(self, function: FunctionDef,
                           derivation: Derivation) -> bool:
        return True


class CallbackDesigner(Designer):
    """Adapter turning two callables into a designer — convenient for
    embedding the session in UIs or notebooks."""

    def __init__(
        self,
        on_cycle: Callable[[CycleReport], str | None],
        on_derivation: Callable[[FunctionDef, Derivation], bool] = (
            lambda function, derivation: True
        ),
    ) -> None:
        self._on_cycle = on_cycle
        self._on_derivation = on_derivation

    def break_cycle(self, report: CycleReport) -> str | None:
        return self._on_cycle(report)

    def confirm_derivation(self, function: FunctionDef,
                           derivation: Derivation) -> bool:
        return self._on_derivation(function, derivation)


@dataclass(frozen=True)
class DesignEvent:
    """One entry of the session log, for printing design traces."""

    kind: str  # "added" | "cycle" | "removed" | "kept" | "retracted"
    function: str | None = None
    report: CycleReport | None = None

    def describe(self) -> str:
        if self.kind == "added":
            return f"added {self.function}"
        if self.kind == "cycle":
            assert self.report is not None
            return self.report.describe()
        if self.kind == "removed":
            return f"designer removed {self.function} (derived)"
        if self.kind == "retracted":
            return f"retracted {self.function} from the design"
        return "designer kept the cycle (no edge removed)"


@dataclass(frozen=True)
class DesignOutcome:
    """Result of :meth:`DesignSession.finish`.

    ``derivations`` holds, for each derived function, the designer-
    confirmed derivations found in the final base graph.
    """

    base: Schema
    derived: Schema
    derivations: dict[str, tuple[Derivation, ...]]

    def summary(self) -> str:
        lines = ["Base functions: " + ", ".join(self.base.names)]
        lines.append("Derived functions: " + ", ".join(self.derived.names))
        for name in self.derived.names:
            for derivation in self.derivations.get(name, ()):
                lines.append(f"  {name} = {derivation}")
        return "\n".join(lines)


class DesignSession:
    """Method 2.1: dynamically maintain the minimal schema.

    >>> session = DesignSession(designer)      # doctest: +SKIP
    >>> session.add(teach); session.add(taught_by)  # doctest: +SKIP
    >>> outcome = session.finish()             # doctest: +SKIP
    """

    def __init__(self, designer: Designer,
                 max_cycle_length: int | None = None) -> None:
        """``max_cycle_length`` bounds the cycles reported per addition.

        Section 2.2 warns that a cyclic function graph can produce an
        exponential number of cycles. Long cycles are also the least
        interesting (a derivation through eight functions rarely
        matches any edge's functionality), so production sessions on
        deliberately cyclic designs can cap the search; None (the
        default) reports everything, as the paper's method does.
        """
        self.designer = designer
        self.max_cycle_length = max_cycle_length
        self.catalog = Schema()
        self.graph = FunctionGraph()
        self.log: list[DesignEvent] = []
        # Cycles the designer explicitly kept, by edge-name set, so the
        # same cycle is not re-reported within or across additions.
        self._kept_cycles: set[frozenset[str]] = set()

    # -- step 1-4 of Method 2.1 -------------------------------------------

    def add(self, function: FunctionDef) -> list[CycleReport]:
        """Add the next function; returns the cycle reports raised.

        Implements one iteration of Method 2.1: the function joins the
        dynamic graph, every cycle it forms is reported to the designer,
        and designer-chosen edges are removed (classified derived).
        """
        self.catalog.add(function)
        self.graph.add(function)
        self.log.append(DesignEvent("added", function.name))
        if OBS.enabled:
            OBS.inc("design.functions_added")
            # Scope the cycle-hunting loop so its design.cycle events
            # carry span context in the structured event log.
            with OBS.span("design.add", function=function.name):
                return self._resolve_cycles(function)
        return self._resolve_cycles(function)

    def _resolve_cycles(self, function: FunctionDef) -> list[CycleReport]:
        reports: list[CycleReport] = []
        while function.name in self.graph:
            report = self._next_unhandled_cycle(function)
            if report is None:
                break
            reports.append(report)
            self.log.append(DesignEvent("cycle", report=report))
            if OBS.enabled:
                OBS.inc("design.cycles_reported")
                OBS.event(
                    "design.cycle",
                    trigger=function.name,
                    cycle=" - ".join(f.name for f in report.cycle_functions),
                    candidates=len(report.candidates),
                )
            choice = self.designer.break_cycle(report)
            if choice is None:
                self._kept_cycles.add(frozenset(report.cycle.edge_names))
                self.log.append(DesignEvent("kept"))
                if OBS.enabled:
                    OBS.inc("design.decisions_kept")
                continue
            if choice not in report.cycle.edge_names:
                raise DesignError(
                    f"designer chose {choice!r}, which is not in the cycle"
                )
            if choice not in (f.name for f in report.candidate_functions):
                raise DesignError(
                    f"designer chose {choice!r}, but only candidate derived "
                    "functions may be removed (its syntax/type functionality "
                    "must agree with the rest of the cycle)"
                )
            self.graph.remove(choice)
            self.log.append(DesignEvent("removed", choice))
            if OBS.enabled:
                OBS.inc("design.decisions_removed")
        if OBS.enabled:
            OBS.gauge("design.graph_edges", len(self.graph))
            OBS.gauge("design.graph_nodes", len(self.graph.nodes))
        return reports

    def add_all(self, functions: Iterable[FunctionDef]) -> None:
        for function in functions:
            self.add(function)

    def retract(self, name: str) -> FunctionDef:
        """Withdraw a function from the design entirely.

        Method 2.1 only adds, but real design is iterative: a function
        declared by mistake must be removable. The function leaves the
        catalog and (if base) the dynamic graph; kept-cycle records
        that mention it are dropped, so an equivalent cycle formed
        later is reported afresh.
        """
        function = self.catalog.remove(name)
        if name in self.graph:
            self.graph.remove(name)
        self._kept_cycles = {
            cycle for cycle in self._kept_cycles if name not in cycle
        }
        self.log.append(DesignEvent("retracted", name))
        if OBS.enabled:
            OBS.inc("design.functions_retracted")
            OBS.gauge("design.graph_edges", len(self.graph))
            OBS.gauge("design.graph_nodes", len(self.graph.nodes))
        return function

    def _next_unhandled_cycle(self, trigger: FunctionDef) -> CycleReport | None:
        """First cycle through ``trigger`` whose edge set has not been
        kept by the designer already."""
        for cycle in self.graph.cycles_through(
            trigger.name, max_length=self.max_cycle_length
        ):
            key = frozenset(cycle.edge_names)
            if key in self._kept_cycles:
                continue
            return self._report_for(trigger, cycle)
        return None

    def _report_for(self, trigger: FunctionDef, cycle: Path) -> CycleReport:
        """Step 3(i): identify the candidate derived functions of a cycle.

        "A necessary condition for an edge to be a derived function is
        that its syntactic and type functional information agree with the
        other path between that pair of nodes in the cycle."
        """
        candidates: list[tuple[FunctionDef, Derivation]] = []
        for index, step in enumerate(cycle.steps):
            complement = complement_in_cycle(cycle, index)
            if not complement.steps:
                continue  # self-loop: nothing derives it
            function = step.edge.function
            if complement.equivalent_to(function):
                candidates.append((function, complement.to_derivation()))
        return CycleReport(trigger, cycle, tuple(candidates))

    # -- inspection --------------------------------------------------------

    @property
    def base_schema(self) -> Schema:
        """The current minimal schema (the dynamic graph's functions)."""
        return self.graph.to_schema()

    @property
    def derived_schema(self) -> Schema:
        """Catalog functions not in the graph — the derived functions."""
        return self.catalog - self.base_schema

    def is_derived(self, name: str) -> bool:
        if name not in self.catalog:
            raise DesignError(f"{name!r} was never added to this session")
        return name not in self.graph

    def potential_derivations(self, name: str) -> Iterator[Derivation]:
        """All syntactically and type-functionally equivalent paths in the
        current base graph — before designer filtering."""
        function = self.catalog[name]
        for path in self.graph.iter_equivalent_paths(function):
            yield path.to_derivation()

    def confirmed_derivations(self, name: str) -> tuple[Derivation, ...]:
        """Potential derivations that survive designer vetting."""
        function = self.catalog[name]
        return tuple(
            derivation
            for derivation in self.potential_derivations(name)
            if self.designer.confirm_derivation(function, derivation)
        )

    def finish(self) -> DesignOutcome:
        """Extract the design (typically at the end): base and derived
        subschemas plus confirmed derivations of every derived function.
        """
        derived = self.derived_schema
        derivations = {
            name: self.confirmed_derivations(name) for name in derived.names
        }
        return DesignOutcome(self.base_schema, derived, derivations)

    def trace(self) -> str:
        """The session log as printable text (used by examples/benches to
        reproduce the Section 2.3 trace)."""
        return "\n".join(event.describe() for event in self.log)
