"""Graphviz (DOT) export of function graphs and designs.

Figure 1 of the paper is a drawing of the dynamic function graph. This
module renders :class:`repro.core.graph.FunctionGraph` instances and
finished :class:`repro.core.design_aid.DesignOutcome` designs as DOT
text, so the figure can actually be drawn (``dot -Tpng``). Derived
functions appear as dashed edges labelled with their derivations.

Output is deterministic: nodes and edges are emitted in insertion
order, so the same design always produces the same file.
"""

from __future__ import annotations

from repro.core.design_aid import DesignOutcome
from repro.core.graph import FunctionGraph

__all__ = ["graph_to_dot", "design_to_dot", "dag_to_dot"]


def _quote(text: str) -> str:
    escaped = text.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def graph_to_dot(graph: FunctionGraph, *, name: str = "function_graph",
                 rankdir: str = "LR") -> str:
    """The function graph as an undirected DOT graph.

    Each edge is labelled ``function (functionality)`` and drawn from
    domain to range so orientation stays readable even in an undirected
    drawing.
    """
    lines = [f"graph {_quote(name)} {{", f"  rankdir={rankdir};",
             "  node [shape=ellipse];"]
    for node in graph.nodes:
        lines.append(f"  {_quote(str(node))};")
    for edge in graph.edges:
        label = f"{edge.name} ({edge.function.functionality})"
        lines.append(
            f"  {_quote(str(edge.u))} -- {_quote(str(edge.v))} "
            f"[label={_quote(label)}];"
        )
    lines.append("}")
    return "\n".join(lines)


_DAG_STYLES = {
    "span": "shape=box",
    "event": "shape=ellipse, style=dashed, color=gray40, "
             "fontcolor=gray40",
    "action": "shape=ellipse, style=bold",
    "cause": "shape=diamond, style=filled, fillcolor=lightyellow",
}


def dag_to_dot(nodes, edges, *, name: str = "dag",
               rankdir: str = "TB") -> str:
    """A generic directed acyclic graph as DOT text.

    ``nodes`` is an iterable of ``(node_id, label, kind)`` triples —
    ``kind`` selects a node style (span/event/action/cause, anything
    else drawn plain); ``edges`` of ``(src_id, dst_id, label)``
    triples. Used to draw update-propagation span trees
    (:meth:`repro.obs.tracing.Span.to_dot`), but intentionally knows
    nothing about spans: any DAG renders.
    """
    lines = [f"digraph {_quote(name)} {{", f"  rankdir={rankdir};"]
    for node_id, label, kind in nodes:
        style = _DAG_STYLES.get(kind)
        # Multi-line labels use DOT's \n escape, not raw newlines.
        attrs = "label=" + _quote(label).replace("\n", "\\n")
        if style:
            attrs += f", {style}"
        lines.append(f"  {_quote(node_id)} [{attrs}];")
    for src, dst, label in edges:
        attrs = f" [label={_quote(label)}]" if label else ""
        lines.append(f"  {_quote(src)} -> {_quote(dst)}{attrs};")
    lines.append("}")
    return "\n".join(lines)


def design_to_dot(outcome: DesignOutcome, *, name: str = "design",
                  rankdir: str = "LR") -> str:
    """A finished design: base edges solid, derived edges dashed and
    annotated with their confirmed derivations (Figure 1 with the
    derived functions drawn back in)."""
    lines = [f"graph {_quote(name)} {{", f"  rankdir={rankdir};",
             "  node [shape=ellipse];"]
    nodes: dict[str, None] = {}
    for function in list(outcome.base) + list(outcome.derived):
        nodes.setdefault(str(function.domain))
        nodes.setdefault(str(function.range))
    for node in nodes:
        lines.append(f"  {_quote(node)};")
    for function in outcome.base:
        label = f"{function.name} ({function.functionality})"
        lines.append(
            f"  {_quote(str(function.domain))} -- "
            f"{_quote(str(function.range))} [label={_quote(label)}];"
        )
    for function in outcome.derived:
        derivations = outcome.derivations.get(function.name, ())
        how = "; ".join(str(d) for d in derivations) or "?"
        label = f"{function.name} = {how}"
        lines.append(
            f"  {_quote(str(function.domain))} -- "
            f"{_quote(str(function.range))} "
            f"[style=dashed, color=gray40, fontcolor=gray40, "
            f"label={_quote(label)}];"
        )
    lines.append("}")
    return "\n".join(lines)
