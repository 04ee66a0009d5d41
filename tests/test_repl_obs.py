"""The REPL's observability command ``trace``, with its ``--dot`` flag.

Statement-level tests through the :class:`Interpreter`, covering the
parse shapes (including the ``--dot`` flag) and the executed behaviour.
"""

from __future__ import annotations

import pytest

from repro.errors import ParseError
from repro.lang import ast
from repro.lang.interp import HELP_TEXT, Interpreter
from repro.lang.parser import parse_statement
from repro.obs import OBS


def _scrub():
    OBS.disable()
    OBS.reset()
    OBS.metrics.clear()
    OBS.events.clear_sinks()


@pytest.fixture(autouse=True)
def clean_obs():
    _scrub()
    yield
    _scrub()


SETUP = """
add teach: faculty -> course
add class_list: course -> student
add pupil: faculty -> student
commit
insert teach(euclid, math)
insert class_list(math, john)
"""


def _ready() -> Interpreter:
    interpreter = Interpreter()
    interpreter.execute(SETUP)
    return interpreter


# -- parsing ------------------------------------------------------------------


class TestParsing:
    def test_trace_show_dot(self):
        statement = parse_statement('trace show --dot "out.dot"')
        assert statement == ast.Trace("show", "out.dot")

    def test_trace_plain_modes_unchanged(self):
        assert parse_statement("trace on") == ast.Trace("on")
        assert parse_statement("trace show") == ast.Trace("show")

    def test_dot_flag_requires_show(self):
        with pytest.raises(ParseError):
            parse_statement('trace on --dot "x.dot"')

    def test_dot_flag_requires_path(self):
        with pytest.raises(ParseError):
            parse_statement("trace show --dot")


# -- execution ----------------------------------------------------------------


class TestTraceDot:
    def test_writes_propagation_dag(self, tmp_path):
        interpreter = _ready()
        interpreter.execute("trace on")
        interpreter.execute("delete class_list(math, john)")
        out = tmp_path / "trace.dot"
        (line,) = interpreter.execute(f'trace show --dot "{out}"')
        assert "propagation DAG" in line
        dot = out.read_text(encoding="utf-8")
        assert dot.startswith('digraph "trace"')
        assert "update.delete" in dot

    def test_without_a_trace_reports_nothing(self, tmp_path):
        interpreter = _ready()
        out = tmp_path / "none.dot"
        (line,) = interpreter.execute(f'trace show --dot "{out}"')
        assert "no trace recorded" in line
        assert not out.exists()


class TestHelp:
    def test_help_documents_the_commands(self):
        assert "--dot" in HELP_TEXT
