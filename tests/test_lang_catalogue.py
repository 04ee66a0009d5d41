"""The REPL's verbs: the parser, ``help`` and docs/LANGUAGE.md name the
same ones.

Two directions:

* every keyword ``parse_statement`` dispatches has a ``HELP_TEXT`` line
  and a docs/LANGUAGE.md row;
* every verb a help line or a doc row names parses.

A help line is a line of ``HELP_TEXT`` indented by two spaces; it names
the first word of each `` / ``-separated alternative of its syntax
column (the text before the first run of two or more spaces). A doc
row is an unindented line of a plain fenced block (no info string) in
docs/LANGUAGE.md; it names its first word.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

from repro.errors import ParseError
from repro.lang.interp import HELP_TEXT
from repro.lang.parser import parse_statement

ROOT = Path(__file__).resolve().parent.parent
PARSER = ROOT / "src" / "repro" / "lang" / "parser.py"
LANGUAGE = ROOT / "docs" / "LANGUAGE.md"


def dispatched() -> set[str]:
    """The keys of the keyword table in ``_Parser.parse_statement``."""
    tree = ast.parse(PARSER.read_text(encoding="utf-8"))
    (table,) = [node for function in ast.walk(tree)
                if isinstance(function, ast.FunctionDef)
                and function.name == "parse_statement"
                for node in ast.walk(function) if isinstance(node, ast.Dict)]
    return {key.value for key in table.keys}


def help_verbs() -> set[str]:
    verbs: set[str] = set()
    for line in HELP_TEXT.splitlines():
        if re.match(r"  \S", line):
            syntax = re.split(r"\s{2,}", line.strip())[0]
            verbs.update(alternative.split()[0]
                         for alternative in syntax.split(" / "))
    return verbs


def doc_verbs() -> set[str]:
    verbs: set[str] = set()
    fence = None  # the open block's info string
    for line in LANGUAGE.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            fence = line[3:].strip() if fence is None else None
        elif fence == "" and line and not line[0].isspace():
            verbs.add(line.split()[0])
    return verbs


def parses(verb: str) -> bool:
    """The parser knows ``verb`` (its arguments may still be missing)."""
    try:
        parse_statement(verb)
    except ParseError as exc:
        return "unknown statement" not in str(exc)
    return True


def test_every_dispatched_verb_has_a_help_line():
    missing = sorted(dispatched() - help_verbs())
    assert not missing, f"no HELP_TEXT line: {missing}"


def test_every_dispatched_verb_has_a_doc_row():
    missing = sorted(dispatched() - doc_verbs())
    assert not missing, f"no docs/LANGUAGE.md row: {missing}"


@pytest.mark.parametrize("named", [help_verbs, doc_verbs])
def test_every_named_verb_parses(named):
    unknown = sorted(verb for verb in named() if not parses(verb))
    assert not unknown, f"named by {named.__name__}, unknown: {unknown}"


def test_the_catalogue_reads_something():
    assert {"add", "insert", "trace", "checkpoint", "help"} <= dispatched()
