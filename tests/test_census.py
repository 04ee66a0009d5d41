"""The call census (benchmarks/census.py) on a planted package.

No entry point runs here: a throwaway package is imported in one small
subprocess under the census hook, and its recorded calls are matched
against the package's ``ast`` definitions the way the real census
matches ``src/repro``.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "census", ROOT / "benchmarks" / "census.py")
census = sys.modules.setdefault("census",
                               importlib.util.module_from_spec(_spec))
_spec.loader.exec_module(census)

MODULE = '''\
import functools


def traced(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return fn(*args, **kwargs)
    return wrapper


@traced
def decorated():
    def nested():
        return 1
    return nested()


class Box:
    @property
    def size(self):
        return 3

    def method(self):
        return self.size

    def __repr__(self):
        return "Box()"


def used():
    return decorated() + Box().method()


def planted():
    return "nobody calls me"
'''


@pytest.fixture
def world(tmp_path):
    """A repo-shaped root: the package, its docs, a test and a bench."""
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(MODULE)
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "API.md").write_text("| `Box` | a box |\n")
    (tmp_path / "docs" / "LANGUAGE.md").write_text(
        "```\nshow pupil\n```\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_pkg.py").write_text(
        "def test_planted():\n    pass\n")
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "benchmarks" / "bench_e1_table.py").write_text("")
    return tmp_path


def run_used(root: Path) -> set[str]:
    """Import the package under the census hook, call ``used()``, and
    return the keys of the definitions the hook saw entered."""
    hook = root / "hook"
    hook.mkdir()
    (hook / "sitecustomize.py").write_text(census.HOOK)
    calls = root / "calls"
    calls.mkdir()
    env = dict(os.environ, CENSUS_CALLS=str(calls),
               PYTHONPATH=os.pathsep.join([str(hook), str(root)]))
    subprocess.run([sys.executable, "-c",
                    "from pkg.mod import used; used()"],
                   env=env, check=True, cwd=root)
    return census.reached(calls, root / "pkg",
                          census.definitions(root / "pkg"))


def allowlist(root: Path, text: str) -> list:
    path = root / "allow.txt"
    path.write_text(textwrap.dedent(text))
    return census.read_allowlist(path)


def test_definitions_are_keyed_by_first_decorator_line_and_qualname(world):
    defs = {d.key: d for d in census.definitions(world / "pkg")}
    lines = MODULE.splitlines()
    decorated = defs["mod.py::decorated"]
    assert lines[decorated.line - 1] == "@traced"
    assert lines[defs["mod.py::Box.size"].line - 1].strip() == "@property"
    assert "mod.py::decorated.<locals>.nested" in defs
    assert "mod.py::traced.<locals>.wrapper" in defs
    assert "mod.py::Box.method" in defs
    assert defs["mod.py::Box.__repr__"].exempt
    assert not defs["mod.py::planted"].exempt


def test_the_hook_maps_decorated_nested_method_and_property(world):
    hits = run_used(world)
    assert {"mod.py::used", "mod.py::decorated",
            "mod.py::decorated.<locals>.nested",
            "mod.py::traced.<locals>.wrapper", "mod.py::Box.method",
            "mod.py::Box.size"} <= hits
    assert "mod.py::planted" not in hits


def test_a_planted_unreached_def_fails_until_listed(world):
    defs = census.definitions(world / "pkg")
    hits = run_used(world)
    failures, _ = census.verdict(defs, hits, [], world)
    # __repr__ is exempt; traced() itself ran at import (module level).
    assert failures == ["mod.py::planted (line 34): unreached and not "
                        "listed"]
    entries = allowlist(world, """\
        # the planted one, with a surface
        mod.py::planted  oracle  tests/test_pkg.py::test_planted
    """)
    assert census.verdict(defs, hits, entries, world) == ([], [])


def test_unknown_kind_and_missing_definition_fail(world):
    defs = census.definitions(world / "pkg")
    hits = run_used(world) | {"mod.py::planted"}
    entries = allowlist(world, """\
        mod.py::planted  dead-code  nobody
        mod.py::gone  api  `Box`
    """)
    failures, _ = census.verdict(defs, hits, entries, world)
    assert any("unknown kind 'dead-code'" in f for f in failures)
    assert any("mod.py::gone: no such definition" in f for f in failures)


def test_details_must_name_a_real_surface(world):
    defs = census.definitions(world / "pkg")
    entries = allowlist(world, """\
        mod.py::planted  api  `Crate`
        mod.py::Box.method  verb  frobnicate
        mod.py::used  paper  E99 a bench that does not exist
        mod.py::decorated  fault-path  tests/test_pkg.py::test_missing
        mod.py::traced  oracle
    """)
    failures, _ = census.verdict(defs, set(), entries, world)
    for problem in ("docs/API.md has no 'Crate'",
                    "no docs/LANGUAGE.md row for verb 'frobnicate'",
                    "no experiment E99",
                    "defines no test_missing",
                    "no detail"):
        assert any(problem in f for f in failures), problem


def test_a_listed_def_that_was_reached_is_only_a_note(world):
    defs = census.definitions(world / "pkg")
    hits = run_used(world)
    entries = allowlist(world, """\
        mod.py::planted  paper  E1 the table
        mod.py::used  verb  show
    """)
    failures, notes = census.verdict(defs, hits, entries, world)
    assert failures == []
    assert notes == ["census_allow.txt:2: mod.py::used: listed but "
                     "reached"]


def test_the_committed_allowlist_is_well_formed():
    """Every entry of benchmarks/census_allow.txt has a known kind, a
    detail naming a real surface, and an existing definition (the
    census itself checks which definitions the entry points reach)."""
    defs = census.definitions(census.PACKAGE)
    entries = census.read_allowlist(census.ALLOWLIST)
    assert entries
    everything = {d.key for d in defs}
    failures, _ = census.verdict(defs, everything, entries, ROOT)
    assert failures == []


def test_every_documented_verb_has_a_script():
    assert set(census.doc_verbs(census.LANGUAGE)) <= set(
        census.VERB_SCRIPTS)


# Paper code (repro.core, repro.relational), the statement language and
# fdb/logic.py's Kleene operators may be kept alive by their docs/API.md
# rows alone; any other ``api`` entry is surface no entry point runs.
PAPER_CODE = ("core/", "relational/", "lang/", "fdb/logic.py")
NON_PAPER_API_LIMIT = 17


def test_non_paper_api_entries_do_not_grow():
    """A new definition outside paper code gets a reader (an example, a
    REPL verb script, a bench or soak check) before it gets an ``api``
    allowlist line: the count of such lines only falls."""
    entries = census.read_allowlist(census.ALLOWLIST)
    surface = [entry.key for entry in entries if entry.kind == "api"
               and not entry.key.startswith(PAPER_CODE)]
    assert len(surface) <= NON_PAPER_API_LIMIT, surface
