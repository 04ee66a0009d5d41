"""Tests for the extended language surface: journal navigation,
possible worlds, integrity constraints, guard mode, DOT export."""

from __future__ import annotations

import pytest

from repro.core.design_aid import AutoDesigner
from repro.errors import ParseError
from repro.lang import ast
from repro.lang.interp import Interpreter
from repro.lang.parser import parse_statement

PUPIL_SETUP = """
add teach: faculty -> course (many-many);
add class_list: course -> student (many-many);
add pupil: faculty -> student (many-many);
commit;
insert teach(euclid, math);
insert class_list(math, john);
"""


def run(script: str) -> tuple[Interpreter, list[str]]:
    interp = Interpreter(AutoDesigner())
    return interp, interp.execute(script)


class TestParsingNewStatements:
    def test_nullaries(self):
        assert isinstance(parse_statement("undo"), ast.Undo)
        assert isinstance(parse_statement("redo"), ast.Redo)
        assert isinstance(parse_statement("history"), ast.History)
        assert isinstance(parse_statement("worlds"), ast.Worlds)
        assert isinstance(parse_statement("check"), ast.Check)

    def test_prob(self):
        statement = parse_statement("prob teach(euclid, math)")
        assert statement == ast.Probability("teach", "euclid", "math")

    def test_inclusion(self):
        statement = parse_statement(
            "constraint include class_list.domain in teach.range"
        )
        assert statement == ast.DeclareInclusion(
            "class_list", "domain", "teach", "range"
        )

    def test_inclusion_requires_valid_columns(self):
        with pytest.raises(ParseError):
            parse_statement("constraint include f.sideways in g.range")

    def test_range(self):
        statement = parse_statement("constraint range score.range 0 100")
        assert statement == ast.DeclareRange("score", "range", 0, 100)

    def test_cardinality(self):
        statement = parse_statement(
            "constraint card class_list per domain min 1 max 30"
        )
        assert statement == ast.DeclareCardinality(
            "class_list", "domain", 1, 30
        )

    def test_cardinality_max_only(self):
        statement = parse_statement("constraint card f per range max 2")
        assert statement == ast.DeclareCardinality("f", "range", 0, 2)

    def test_unknown_constraint_kind(self):
        with pytest.raises(ParseError):
            parse_statement("constraint foreign f.domain")

    def test_guard(self):
        assert parse_statement("guard on") == ast.Guard(True)
        assert parse_statement("guard off") == ast.Guard(False)
        with pytest.raises(ParseError):
            parse_statement("guard maybe")

    def test_dot(self):
        assert parse_statement('dot "out.dot"') == ast.DotExport("out.dot")


class TestJournalStatements:
    def test_undo_redo_roundtrip(self):
        interp, out = run(PUPIL_SETUP + """
            delete pupil(euclid, john);
            undo;
            truth pupil(euclid, john);
            redo;
            truth pupil(euclid, john);
        """)
        assert "undone: DEL(pupil, <euclid, john>)" in out
        assert "pupil(euclid) = john: true" in out
        assert out[-1] == "pupil(euclid) = john: false"

    def test_history_lists_updates(self):
        interp, out = run(PUPIL_SETUP + "history;")
        joined = "\n".join(out)
        assert "2 applied, 0 undone" in joined
        assert "1. INS(teach, <euclid, math>)" in joined

    def test_undo_with_empty_journal_reports_error(self):
        interp, out = run(PUPIL_SETUP + "undo; undo; undo;")
        assert out[-1] == "error: nothing to undo"


class TestWorldsStatements:
    def test_worlds_report(self):
        interp, out = run(PUPIL_SETUP + """
            delete pupil(euclid, john);
            worlds;
        """)
        joined = "\n".join(out)
        assert "3 possible worlds over 2 ambiguous facts" in joined

    def test_verbs_have_no_atom_limit(self):
        """30 independent derived deletes: 60 ambiguous facts, past
        what world *enumeration* allows; the verbs count instead."""
        deletes = "".join(
            f"insert teach(t{i}, c{i}); insert class_list(c{i}, s{i});"
            f"delete pupil(t{i}, s{i});" for i in range(30)
        )
        interp, out = run(PUPIL_SETUP + deletes + """
            worlds;
            prob teach(t0, c0);
            default teach(t0, c0);
        """)
        joined = "\n".join(out)
        assert f"{3 ** 30} possible worlds over 60 ambiguous facts" in joined
        assert "P(teach(t0) = c0) = 0.333" in joined
        assert "teach(t0) = c0 by default: ambiguous" in joined

    def test_prob_values(self):
        interp, out = run(PUPIL_SETUP + """
            delete pupil(euclid, john);
            prob teach(euclid, math);
            prob pupil(euclid, john);
            prob class_list(math, nobody);
        """)
        assert "P(teach(euclid) = math) = 0.333" in out
        assert "P(pupil(euclid) = john) = 0.000" in out
        assert "P(class_list(math) = nobody) = 0.000" in out


class TestDefaultStatement:
    def test_default_promotes_shared_survivors(self):
        interp, out = run(PUPIL_SETUP + """
            insert class_list(math, bill);
            delete pupil(euclid, john);
            delete pupil(euclid, bill);
            truth class_list(math, john);
            default class_list(math, john);
            default teach(euclid, math);
        """)
        assert "class_list(math) = john: ambiguous" in out
        assert "class_list(math) = john by default: true" in out
        assert "teach(euclid) = math by default: false" in out


class TestConstraintStatements:
    def test_check_clean(self):
        interp, out = run(PUPIL_SETUP + """
            constraint include class_list.domain in teach.range;
            check;
        """)
        assert out[-1] == "ok: all 1 constraints hold"

    def test_check_reports_violation(self):
        interp, out = run(PUPIL_SETUP + """
            constraint include class_list.domain in teach.range;
            insert class_list(alchemy, ada);
            check;
        """)
        assert any(line.startswith("violation:") for line in out)

    def test_guard_undoes_violating_update(self):
        interp, out = run(PUPIL_SETUP + """
            constraint include class_list.domain in teach.range;
            guard on;
            insert class_list(alchemy, ada);
        """)
        assert out[-1].startswith("error: update INS(class_list, "
                                  "<alchemy, ada>) undone")
        # The fact is really gone.
        assert interp.db is not None
        assert interp.db.table("class_list").get("alchemy", "ada") is None
        # And the journal holds only the two clean updates.
        assert len(interp.journal.history) == 2

    def test_guard_off_allows(self):
        interp, out = run(PUPIL_SETUP + """
            constraint include class_list.domain in teach.range;
            guard on;
            guard off;
            insert class_list(alchemy, ada);
        """)
        assert out[-1] == "ok: INS(class_list, <alchemy, ada>)"

    def test_range_constraint(self):
        interp, out = run("""
            add score: student -> marks (many-one);
            commit;
            constraint range score.range 0 100;
            guard on;
            insert score(john, 91);
            insert score(bill, 140);
        """)
        assert "ok: INS(score, <john, 91>)" in out
        assert out[-1].startswith("error: update INS(score, <bill, 140>)")


class TestRedesignOrphans:
    def test_surviving_base_function_keeps_data_silently(self):
        """When the re-design keeps a function base, its facts carry
        forward with no orphan warning (AutoDesigner classifies the
        newly added taught_by as derived, not teach)."""
        interp, out = run("""
            add teach: faculty -> course (many-many);
            commit;
            insert teach(euclid, math);
            insert teach(gauss, optics);
            add taught_by: course -> faculty (many-many);
            commit;
        """)
        joined = "\n".join(out)
        assert "carried 2 stored facts forward" in joined
        assert "warning" not in joined

    def test_orphan_warning_fires(self):
        from repro.core.design_aid import ScriptedDesigner

        designer = ScriptedDesigner(removals={
            frozenset({"teach", "taught_by"}): "teach",
        })
        interp = Interpreter(designer)
        out = interp.execute("""
            add teach: faculty -> course (many-many);
            commit;
            insert teach(euclid, math);
            add taught_by: course -> faculty (many-many);
            commit;
        """)
        joined = "\n".join(out)
        # teach got re-classified as derived (= taught_by^-1) and its
        # stored fact has no counterpart in the empty taught_by table.
        assert "warning: 1 stored facts" in joined
        assert "<teach, euclid, math>" in joined


class TestDotStatement:
    def test_writes_file(self, tmp_path):
        path = str(tmp_path / "design.dot").replace("\\", "/")
        interp, out = run(PUPIL_SETUP + f'dot "{path}";')
        assert out[-1] == f"wrote DOT design to {path}"
        text = (tmp_path / "design.dot").read_text(encoding="utf-8")
        assert "pupil = teach o class_list" in text
        assert "style=dashed" in text


class TestDeadlineCommand:
    def test_parse_forms(self):
        assert parse_statement("deadline") == ast.DeadlineCmd("show")
        assert parse_statement("deadline off") == ast.DeadlineCmd("off")
        assert parse_statement("deadline 0.5") == ast.DeadlineCmd(
            "set", 0.5)

    def test_parse_rejects_nonpositive(self):
        with pytest.raises(ParseError):
            parse_statement("deadline 0")

    def test_set_show_off_roundtrip(self):
        _, out = run(PUPIL_SETUP + "deadline; deadline 0.5; deadline;"
                                   " deadline off; deadline;")
        assert out[-5] == "deadline off -- set one with 'deadline 0.5'"
        assert out[-4] == "deadline: statements limited to 0.5s"
        assert out[-3] == "deadline: 0.5s per statement"
        assert out[-2] == "deadline off"
        assert out[-1] == "deadline off -- set one with 'deadline 0.5'"

    def test_expired_deadline_aborts_statement_cleanly(self):
        interp, out = run(PUPIL_SETUP)
        interp.deadline_seconds = 1e-9
        result = interp.execute("insert teach(gauss, cs)")
        assert result and result[0].startswith("error: deadline")
        # The update was aborted before any mutation; turning the
        # deadline off restores normal service.
        interp.deadline_seconds = None
        from repro.fdb.logic import Truth

        assert interp.db.truth_of("teach", "gauss", "cs") is Truth.FALSE
        interp.execute("insert teach(gauss, cs)")
        assert interp.db.truth_of("teach", "gauss", "cs") is Truth.TRUE

    def test_deadline_command_itself_exempt(self):
        interp, _ = run(PUPIL_SETUP)
        interp.deadline_seconds = 1e-9
        # 'deadline off' must run even under an expired budget.
        assert interp.execute("deadline off") == ["deadline off"]
        assert interp.deadline_seconds is None
