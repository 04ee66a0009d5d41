"""Guard: fact state changes only through the recording primitives.

A transaction abort replays the undo records the primitives of
:mod:`repro.fdb.table` leave behind; a truth flag or NCL changed
behind their back is a change no rollback will ever undo. This test
walks the AST of every engine module and fails on a direct write.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro.fdb

OWNERS = {"table.py"}  # the module(s) holding the primitives
FIELDS = {"truth", "ncl"}
SET_MUTATORS = {
    "add", "discard", "remove", "pop", "clear", "update",
    "difference_update", "intersection_update",
    "symmetric_difference_update",
}


def direct_writes(source: str) -> list[tuple[int, str]]:
    """(line, description) of every assignment to ``<x>.truth`` /
    ``<x>.ncl`` and every in-place mutation of an ``<x>.ncl`` set."""
    def is_field(node: ast.AST, names=FIELDS) -> bool:
        return isinstance(node, ast.Attribute) and node.attr in names

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = node.targets
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr in SET_MUTATORS
              and is_field(node.func.value, {"ncl"})):
            found.append((node.lineno, f".ncl.{node.func.attr}()"))
            continue
        else:
            continue
        for target in targets:
            elements = (target.elts if isinstance(target, ast.Tuple)
                        else [target])
            found.extend((node.lineno, f"write to .{element.attr}")
                         for element in elements if is_field(element))
    return found


def test_detector_sees_each_kind_of_write():
    source = (
        "fact.truth = Truth.TRUE\n"
        "existing.ncl |= fact.ncl\n"
        "a.ncl, b = set(), 1\n"
        "fact.ncl.add(3)\n"
        "row.fact.ncl.discard(3)\n"
        "del fact.ncl\n"
        "ok = fact.truth is Truth.TRUE and 3 in fact.ncl\n"
        "copy = set(fact.ncl)\n"
    )
    assert sorted(line for line, _ in direct_writes(source)) == [
        1, 2, 3, 4, 5, 6]


def test_fact_state_is_written_only_by_the_primitives():
    package = Path(repro.fdb.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert OWNERS <= {path.name for path in modules}
    offenders = [
        f"{path.name}:{line}: {what}"
        for path in modules if path.name not in OWNERS
        for line, what in direct_writes(path.read_text(encoding="utf-8"))
    ]
    assert not offenders, (
        "fact state written outside repro.fdb.table's recording "
        "primitives (set_truth / ncl_add / ncl_discard):\n"
        + "\n".join(offenders)
    )
    # The owner really is where the writes live, so the exemption is
    # not a stale file name.
    owned = direct_writes((package / "table.py").read_text("utf-8"))
    assert owned
