"""Tests for the console REPL and its interactive designer."""

from __future__ import annotations

import gc
import io
import warnings

import pytest

from repro.lang.repl import ConsoleDesigner, Repl, main


class ScriptedInput:
    """input() replacement fed from a list; records prompts."""

    def __init__(self, lines):
        self._lines = list(lines)
        self.prompts: list[str] = []

    def __call__(self, prompt: str = "") -> str:
        self.prompts.append(prompt)
        if not self._lines:
            raise EOFError
        return self._lines.pop(0)


class TestConsoleDesigner:
    def _designer(self, answers):
        source = ScriptedInput(answers)
        output = io.StringIO()
        return ConsoleDesigner(source, output), source, output

    def _cycle_report(self):
        from repro.core.design_aid import AutoDesigner, DesignSession
        from repro.core.schema import FunctionDef
        from repro.core.types import ObjectType

        session = DesignSession(AutoDesigner())
        A, B = ObjectType("A"), ObjectType("B")
        session.add(FunctionDef("teach", A, B))
        reports = session.add(FunctionDef("taught_by", B, A))
        return reports[0]

    def test_break_cycle_accepts_candidate(self):
        designer, source, output = self._designer(["taught_by"])
        report = self._cycle_report()
        assert designer.break_cycle(report) == "taught_by"
        assert "cycle:" in output.getvalue()

    def test_break_cycle_keep(self):
        designer, _, _ = self._designer(["keep"])
        assert designer.break_cycle(self._cycle_report()) is None

    def test_break_cycle_empty_answer_keeps(self):
        designer, _, _ = self._designer([""])
        assert designer.break_cycle(self._cycle_report()) is None

    def test_break_cycle_reprompts_on_garbage(self):
        designer, source, _ = self._designer(["nonsense", "teach"])
        assert designer.break_cycle(self._cycle_report()) == "teach"
        assert len(source.prompts) == 2

    def test_no_candidates_auto_keep(self):
        from repro.core.design_aid import CycleReport
        report = self._cycle_report()
        no_candidates = CycleReport(report.trigger, report.cycle, ())
        designer, source, output = self._designer([])
        assert designer.break_cycle(no_candidates) is None
        assert "no candidate" in output.getvalue()
        assert source.prompts == []  # never asked

    def test_confirm_derivation(self):
        from repro.core.derivation import Derivation, Op, Step
        report = self._cycle_report()
        derivation = Derivation(
            [Step(report.trigger, Op.INVERSE)]
        )
        designer, _, _ = self._designer(["y"])
        assert designer.confirm_derivation(report.trigger, derivation)
        designer, _, _ = self._designer(["n"])
        assert not designer.confirm_derivation(report.trigger, derivation)
        designer, _, _ = self._designer(["what", "no"])
        assert not designer.confirm_derivation(report.trigger, derivation)


class TestRepl:
    def _run(self, lines):
        source = ScriptedInput(lines)
        output = io.StringIO()
        repl = Repl(source, output)
        repl.loop()
        return output.getvalue()

    def test_banner_and_exit(self):
        text = self._run(["exit"])
        assert "design aid" in text

    def test_eof_exits(self):
        text = self._run([])
        assert "design aid" in text

    def test_statement_roundtrip(self):
        text = self._run([
            "add teach: faculty -> course (many-many)",
            "insert teach(euclid, math)",
            "truth teach(euclid, math)",
            "quit",
        ])
        assert "teach(euclid) = math: true" in text

    def test_interactive_cycle_dialogue(self):
        text = self._run([
            "add teach: faculty -> course (many-many)",
            "add taught_by: course -> faculty (many-many)",
            "taught_by",          # answer to the cycle prompt
            "design",
            "y",                  # confirm taught_by = teach^-1
            "exit",
        ])
        assert "Derived functions: taught_by" in text

    def test_blank_lines_ignored(self):
        text = self._run(["", "   ", "help", "exit"])
        assert "insert f(x, y)" in text

    def test_error_keeps_looping(self):
        text = self._run(["insert f(a b)", "help", "exit"])
        assert "error:" in text
        assert "insert f(x, y)" in text

    @pytest.mark.parametrize("last", [["exit"], []], ids=["exit", "eof"])
    def test_leaving_the_loop_releases_the_log(self, tmp_path, last):
        repl = Repl(ScriptedInput([
            "add teach: faculty -> course (many-many)",
            f'checkpoint "{tmp_path}"',
            "insert teach(euclid, math)",
            *last,
        ]), io.StringIO())
        repl.loop()
        assert repl.interpreter.wal is None


class TestMain:
    def test_batch_script(self, tmp_path, capsys):
        script = tmp_path / "script.fdb"
        script.write_text(
            "add teach: faculty -> course (many-many);\n"
            "insert teach(euclid, math);\n"
            "truth teach(euclid, math);\n",
            encoding="utf-8",
        )
        code = main([str(script), "--batch"])
        captured = capsys.readouterr()
        assert code == 0
        assert "teach(euclid) = math: true" in captured.out

    def test_a_checkpointing_script_leaves_no_open_log(self, tmp_path,
                                                       capsys):
        script = tmp_path / "script.fdb"
        script.write_text(
            "add teach: faculty -> course (many-many);\n"
            f'checkpoint "{tmp_path / "ckpt"}";\n'
            "insert teach(euclid, math);\n",
            encoding="utf-8",
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            assert main([str(script), "--batch"]) == 0
            gc.collect()
        assert "checkpoint:" in capsys.readouterr().out
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]
