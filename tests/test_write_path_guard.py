"""Guard: one write path, one request scope.

Every appender — a lane's ``execute``, ``read_modify_write``,
``checkpoint``, the sharded facade's multi-shard write —
passes the breaker and takes the ``__write__`` token in one place
(``repro.service.service.Appender``), and every request enters the
admission gate in one place (the request scope). A second call site is
a second write path whose fences will drift from the first: this test
walks the AST of ``repro.service`` and ``repro.shard`` and fails on
one. It also keeps the facade out of the lanes' private state.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro.service
import repro.shard


def sources() -> dict[str, ast.Module]:
    return {
        f"{package.__name__.split('.')[-1]}/{path.name}":
            ast.parse(path.read_text(encoding="utf-8"))
        for package in (repro.service, repro.shard)
        for path in sorted(Path(package.__file__).parent.glob("*.py"))
    }


def calls(tree: ast.AST, owner: str, method: str) -> list[int]:
    """Lines calling ``<anything>.<owner>.<method>(...)``."""
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == method
        and isinstance(node.func.value, ast.Attribute)
        and node.func.value.attr == owner
    ]


def reads(tree: ast.AST, name: str) -> list[int]:
    """Lines that read the variable ``name`` (imports, ``__all__``
    strings and the defining assignment do not)."""
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == name
        and isinstance(node.ctx, ast.Load)
    ]


def foreign_privates(tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, attr)`` of every ``<not self>._attr`` access."""
    return [
        (node.lineno, node.attr) for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_") and not node.attr.startswith("__")
        and not (isinstance(node.value, ast.Name)
                 and node.value.id == "self")
    ]


def sites(found: dict[str, list[int]]) -> list[str]:
    return [f"{module}:{line}"
            for module, lines in found.items() for line in lines]


def test_detectors_see_what_they_guard():
    tree = ast.parse(
        "lane.breaker.allow()\n"
        "self.gate.enter(deadline=limit)\n"
        "held({WRITE_RESOURCE} | clusters)\n"
        "WRITE_RESOURCE = '__write__'\n"
        "lane._deadline(x); self.lanes[0]._health(); self._map()\n"
        "breaker.allow(); gate.enter  # not <x>.breaker / not a call\n"
    )
    assert calls(tree, "breaker", "allow") == [1]
    assert calls(tree, "gate", "enter") == [2]
    assert reads(tree, "WRITE_RESOURCE") == [3]
    assert foreign_privates(tree) == [(5, "_deadline"), (5, "_health")]


def test_one_breaker_gate_and_write_token_site():
    trees = sources()
    allow = sites({m: calls(t, "breaker", "allow")
                   for m, t in trees.items()})
    enter = sites({m: calls(t, "gate", "enter") for m, t in trees.items()})
    token = sites({m: reads(t, "WRITE_RESOURCE")
                   for m, t in trees.items()})
    assert len(allow) == 1, f"breaker.allow() call sites: {allow}"
    assert len(enter) == 1, f"gate.enter() call sites: {enter}"
    assert len(token) == 1 and token[0].startswith("service/service.py"), (
        f"__write__ is taken at: {token}")


def test_the_retired_seams_stay_retired():
    for module, tree in sources().items():
        names = {node.name for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)}
        params = {arg.arg for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef)
                  for arg in (*node.args.args, *node.args.kwonlyargs)}
        assert not names & {"_multi_once_with_retry", "_multi_once"}, module
        assert "gated" not in params, module


def test_facade_touches_no_lane_private():
    offenders = foreign_privates(sources()["shard/sharded.py"])
    assert not offenders, (
        "shard/sharded.py reaches into private state: "
        + ", ".join(f"line {line}: ._{attr.lstrip('_')}"
                    for line, attr in offenders)
    )
