"""The REPL's observability commands: ``trace --dot``, ``monitor`` and
``timeline``.

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


class TestMonitorCommand:
    def test_parse_shapes(self):
        assert parse_statement("monitor") == ast.Monitor("show")
        assert parse_statement("monitor serve") == ast.Monitor("serve")
        assert parse_statement("monitor serve 8123") == \
            ast.Monitor("serve", 8123)
        assert parse_statement("monitor stop") == ast.Monitor("stop")

    def test_parse_rejects_bad_port(self):
        with pytest.raises(ParseError):
            parse_statement("monitor serve 70000")
        with pytest.raises(ParseError):
            parse_statement("monitor serve 80.5")

    def test_show_renders_dashboard(self):
        interpreter = _ready()
        output = interpreter.execute("monitor")
        text = "\n".join(output)
        assert "requests (RED)" in text
        assert "locks:" in text
        assert "breaker:" in text
        # OBS is disabled in this session, and the dashboard says so.
        assert "observability disabled" in text

    def test_serve_scrape_stop_cycle(self):
        import urllib.request

        from repro.obs.endpoint import parse_prometheus

        interpreter = _ready()
        (line,) = interpreter.execute("monitor serve")
        assert "http://127.0.0.1:" in line
        assert OBS.enabled  # serving turned collection on
        endpoint = interpreter.monitor_endpoint
        assert endpoint is not None and endpoint.running
        interpreter.execute("insert teach(noether, algebra)")
        body = urllib.request.urlopen(
            endpoint.url + "/metrics", timeout=5
        ).read().decode("utf-8")
        parse_prometheus(body)
        assert "fdb_" in body
        (again,) = interpreter.execute("monitor serve")
        assert "already serving" in again
        (stopped,) = interpreter.execute("monitor stop")
        assert "stopped" in stopped
        assert interpreter.monitor_endpoint is None
        (nothing,) = interpreter.execute("monitor stop")
        assert "no endpoint" in nothing


class TestHelp:
    def test_help_documents_the_commands(self):
        assert "--dot" in HELP_TEXT
        assert "monitor" in HELP_TEXT


# -- timeline -----------------------------------------------------------------


class TestTimelineCommand:
    def test_parse_shapes(self):
        assert parse_statement("timeline") == ast.Timeline(None)
        assert parse_statement('timeline "events.jsonl"') == \
            ast.Timeline("events.jsonl")

    def test_help_mentions_timeline(self):
        assert "timeline" in HELP_TEXT

    def test_first_bare_call_attaches_the_ring(self):
        from repro.obs import RingBufferSink

        interpreter = Interpreter()
        lines = interpreter.execute("timeline")
        assert any("recording started" in line for line in lines)
        assert any(isinstance(sink, RingBufferSink)
                   for sink in OBS.events.sinks)
        # No replication activity yet: the second call says so.
        lines = interpreter.execute("timeline")
        assert any("no replication events" in line for line in lines)

    def test_folds_a_jsonl_artifact(self, tmp_path):
        from repro.obs import FileSink

        sink = FileSink(tmp_path / "events.jsonl")
        OBS.events.add_sink(sink)
        OBS.enable()
        OBS.action("replication.primary_attached", term=1,
                   node="primary")
        OBS.action("replication.commit_acked", seq=1, term=1, acks=2)
        OBS.disable()
        OBS.events.remove_sink(sink)
        sink.close()
        interpreter = Interpreter()
        lines = interpreter.execute(
            f'timeline "{tmp_path / "events.jsonl"}"')
        text = "\n".join(lines)
        assert "replication timeline: 2 entries" in text
        assert "attach" in text

    def test_missing_artifact_reports_cleanly(self):
        interpreter = Interpreter()
        lines = interpreter.execute('timeline "/no/such/events.jsonl"')
        assert any("cannot read" in line for line in lines)
