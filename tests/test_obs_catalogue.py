"""docs/OBSERVABILITY.md's name tables against what ``src/repro`` emits.

Two directions, one failure each:

* every backticked name in the span, event, action and metric tables
  is emitted somewhere under ``src/repro`` — as the literal name of an
  ``OBS.inc`` / ``observe`` / ``gauge`` / ``event`` / ``action`` /
  ``span`` call, as an f-string name such a call builds (a ``<family>``
  placeholder in the table stands for the f-string's ``{...}``), or as a
  string constant handed to one indirectly (``span_name``, a lookup
  table);
* every string-literal name passed to one of those calls has a row.

A table row may abbreviate: ``fdb.updates.insert`` / ``.delete`` names
``fdb.updates.delete`` (the shorthand replaces as many trailing
segments of the previous name as it has).
"""

from __future__ import annotations

import ast
import functools
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "repro").rglob("*.py"))
CATALOGUE = ROOT / "docs" / "OBSERVABILITY.md"
EMITTERS = {"inc", "observe", "gauge", "event", "action", "span"}
TABLES = {"span", "event", "action", "metric", "instrument"}


def _emit_calls(tree: ast.AST):
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and node.args
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in EMITTERS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "OBS"):
            yield node.args[0]


def _template(node: ast.JoinedStr) -> re.Pattern:
    parts = [re.escape(part.value) if isinstance(part, ast.Constant)
             else ".+" for part in node.values]
    return re.compile("".join(parts))


@functools.cache
def code_names() -> tuple[set[str], list[re.Pattern], set[str]]:
    """(literal call names, f-string call names, every str constant)."""
    literals: set[str] = set()
    templates: list[re.Pattern] = []
    constants: set[str] = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name in _emit_calls(tree):
            if isinstance(name, ast.Constant) and isinstance(name.value, str):
                literals.add(name.value)
            elif isinstance(name, ast.JoinedStr):
                templates.append(_template(name))
        constants.update(node.value for node in ast.walk(tree)
                         if isinstance(node, ast.Constant)
                         and isinstance(node.value, str))
    return literals, templates, constants


def catalogue_names() -> set[str]:
    """The first-column names of every span/event/action/metric table."""
    names: set[str] = set()
    in_table = False
    for line in CATALOGUE.read_text(encoding="utf-8").splitlines():
        if not line.startswith("|"):
            in_table = False
            continue
        first = line.split("|")[1].strip()
        if not in_table:
            in_table = first in TABLES  # the header row
            continue
        previous = None
        for name in re.findall(r"`([^`]+)`", first):
            if name.startswith(".") and previous is not None:
                shorthand = name[1:].split(".")
                name = ".".join(previous.split(".")[:-len(shorthand)]
                                + shorthand)
            names.add(name)
            previous = name
    return names


def _sample(name: str) -> str:
    """A concrete name for a table name with ``<placeholder>``s."""
    return re.sub(r"<[^>]+>", "x", name)


def test_every_catalogued_name_is_emitted():
    literals, templates, constants = code_names()
    missing = sorted(
        name for name in catalogue_names()
        if not (name in literals or name in constants
                or any(template.fullmatch(_sample(name))
                       for template in templates)))
    assert not missing, f"catalogued but emitted nowhere: {missing}"


def test_every_emitted_name_is_catalogued():
    literals, templates, _ = code_names()
    catalogued = catalogue_names()
    missing = sorted(literals - catalogued)
    missing += sorted(
        template.pattern for template in templates
        if not any(template.fullmatch(_sample(name)) for name in catalogued))
    assert not missing, f"emitted but not catalogued: {missing}"


def test_the_catalogue_parses():
    """The guard reads something: a table row per kind, with shorthand
    expanded and placeholders kept."""
    names = catalogue_names()
    assert {"update.delete", "nc.created", "recovery.start",
            "fdb.updates.delete", "service.red.<family>.errors"} <= names
