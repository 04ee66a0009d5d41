"""Tests for the interpreter (design + update + query lifecycle)."""

from __future__ import annotations

import pytest

from repro.core.design_aid import AutoDesigner
from repro.lang.interp import Interpreter
from repro.workloads.university import design_trace_designer


def run(script: str, designer=None) -> tuple[Interpreter, list[str]]:
    interp = Interpreter(designer or AutoDesigner())
    return interp, interp.execute(script)


DESIGN = """
add teach: faculty -> course (many-many);
add class_list: course -> student (many-many);
add pupil: faculty -> student (many-many);
"""


class TestDesignPhase:
    def test_add_reports(self):
        interp, out = run(DESIGN)
        joined = "\n".join(out)
        assert "added teach" in joined
        assert "cycle:" in joined
        assert "pupil classified as derived" in joined

    def test_show_design(self):
        interp, out = run(DESIGN + "design;")
        joined = "\n".join(out)
        assert "Derived functions: pupil" in joined
        assert "pupil = teach o class_list" in joined

    def test_explicit_commit(self):
        interp, out = run(DESIGN + "commit;")
        assert any("committed: 2 base, 1 derived" in l for l in out)
        assert interp.db is not None

    def test_implicit_commit_on_data_statement(self):
        interp, out = run(DESIGN + "insert teach(euclid, math);")
        joined = "\n".join(out)
        assert "(implicit commit)" in joined
        assert "ok: INS(teach, <euclid, math>)" in joined

    def test_redesign_carries_facts(self):
        interp, out = run(DESIGN + """
            commit;
            insert teach(euclid, math);
            add score: [student; course] -> marks (many-one);
            commit;
            truth teach(euclid, math);
        """)
        joined = "\n".join(out)
        assert "carried 1 stored facts forward" in joined
        assert "teach(euclid) = math: true" in joined


class TestUpdatesAndQueries:
    FULL = DESIGN + """
        commit;
        insert teach(euclid, math);
        insert teach(laplace, math);
        insert class_list(math, john);
        insert class_list(math, bill);
    """

    def test_truth_query(self):
        interp, out = run(self.FULL + "truth pupil(euclid, john);")
        assert out[-1] == "pupil(euclid) = john: true"

    def test_derived_delete_and_ncs(self):
        interp, out = run(self.FULL + """
            delete pupil(euclid, john);
            ncs;
            truth pupil(euclid, bill);
        """)
        joined = "\n".join(out)
        assert "g1: NOT(<teach, euclid, math> AND "in joined
        assert out[-1] == "pupil(euclid) = bill: ambiguous"

    def test_replace(self):
        interp, out = run(self.FULL + """
            replace teach(euclid, math) with (euclid, physics);
            truth teach(euclid, physics);
        """)
        assert out[-1] == "teach(euclid) = physics: true"

    def test_image_query(self):
        interp, out = run(self.FULL + "query pupil(euclid);")
        assert set(out[-2:]) == {"  john", "  bill"}

    def test_image_query_with_expression(self):
        interp, out = run(
            self.FULL + "query (class_list^-1 o teach^-1)(john);"
        )
        assert set(out[-2:]) == {"  euclid", "  laplace"}

    def test_pairs_query(self):
        interp, out = run(self.FULL + "pairs teach^-1;")
        assert "  <math, euclid>" in out
        assert "  <math, laplace>" in out

    def test_empty_result(self):
        interp, out = run(self.FULL + "query teach(nobody);")
        assert out[-1] == "(empty)"

    def test_show_named(self):
        interp, out = run(self.FULL + "show teach;")
        assert any("euclid" in line and "math" in line for line in out)

    def test_show_derived_stars_ambiguity(self):
        interp, out = run(self.FULL + """
            delete pupil(euclid, john);
            show pupil;
        """)
        assert any(line.rstrip().endswith("*") for line in out)

    def test_metrics(self):
        interp, out = run(self.FULL + "metrics;")
        assert any("degree of ambiguity" in line for line in out)

    def test_resolve_reports(self):
        interp, out = run(DESIGN + """
            commit;
            insert pupil(gauss, bill);
            resolve;
        """)
        # pupil's functions are many-many: nothing is forced.
        assert out[-1] == "nothing to resolve"
        assert interp.journal.can_undo

    def test_resolve_that_substitutes_clears_undo_history(self):
        """The journal's undo steps describe the instance as its own
        updates left it; a resolve behind its back ends the history."""
        interp, out = run("""
            add teach: faculty -> course (many-one);
            add class_list: course -> student (many-one);
            add pupil: faculty -> student (many-one);
            commit;
            insert pupil(gauss, bill);
            insert teach(gauss, cs);
            resolve;
        """)
        assert any(line.startswith("resolved: n1 := cs") for line in out)
        assert out[-1] == "undo history cleared"
        assert not interp.journal.can_undo
        assert interp.db.table("class_list").get("cs", "bill") is not None


class TestPersistenceStatements:
    def test_save_and_load(self, tmp_path):
        path = str(tmp_path / "uni.json").replace("\\", "/")
        interp, out = run(
            self_full() + f'save "{path}"; delete teach(euclid, math); '
            f'load "{path}"; truth teach(euclid, math);'
        )
        assert out[-1] == "teach(euclid) = math: true"

    def test_add_after_load_continues_design(self, tmp_path):
        path = str(tmp_path / "uni.json").replace("\\", "/")
        interp, out = run(
            self_full()
            + f'save "{path}"; load "{path}"; '
            + "add taught_by: course -> faculty (many-many); design;"
        )
        joined = "\n".join(out)
        assert "taught_by" in joined and "cycle:" in joined


def self_full() -> str:
    return TestUpdatesAndQueries.FULL


class TestErrors:
    def test_parse_error_reported_not_raised(self):
        interp, out = run("insert f(a b);")
        assert out and out[0].startswith("error:")

    def test_runtime_error_reported(self):
        interp, out = run(DESIGN + "commit; insert nope(a, b);")
        assert out[-1].startswith("error: unknown function")

    def test_error_aborts_rest_of_script(self):
        interp, out = run(
            DESIGN + "commit; insert nope(a, b); insert teach(x, y);"
        )
        assert not any("INS(teach, <x, y>)" in line for line in out)

    def test_help(self):
        interp, out = run("help")
        assert any("insert f(x, y)" in line for line in out)


class TestWithPaperDesigner:
    def test_full_paper_design_via_language(self, trace_functions):
        script = "\n".join(
            f"add {f};" for f in trace_functions
        ).replace("; (", " (")
        interp = Interpreter(design_trace_designer())
        out = interp.execute(script + "\ndesign;")
        joined = "\n".join(out)
        assert "grade = score o cutoff" in joined
        assert "lecturer_of = class_list^-1 o teach^-1" in joined


class TestCheckpointRecover:
    """Every interpreter here is closed when the test ends: one that
    checkpointed or recovered holds its log's append descriptor."""

    @pytest.fixture
    def interpreter(self, closing):
        return lambda: closing(Interpreter(AutoDesigner()))

    def test_checkpoint_then_recover_roundtrip(self, tmp_path, interpreter):
        interp = interpreter()
        interp.execute(DESIGN + "commit; insert teach(euclid, math);")
        out = interp.execute(
            f'checkpoint "{tmp_path}"; insert teach(gauss, cs);'
        )
        assert any("checkpoint" in line for line in out)
        assert interp.wal is not None
        # only the post-checkpoint update
        assert interp.wal.health()["entries"] == 1

        # A second interpreter — the "restarted process" — recovers
        # both facts from the directory the first one left behind.
        fresh = interpreter()
        out2 = fresh.execute(
            f'recover "{tmp_path}";'
            "truth teach(euclid, math); truth teach(gauss, cs);"
        )
        joined = "\n".join(out2)
        assert "recovered: 1 log entries" in joined
        assert "teach(euclid) = math: true" in joined
        assert "teach(gauss) = cs: true" in joined
        assert fresh.wal is not None  # updates keep logging

    def test_insert_after_recovering_a_torn_log_survives(
            self, tmp_path, interpreter):
        """``recover`` re-attaches a log that ends in a crash's
        fragment; the next insert must land as a record of its own,
        not glued to the fragment, and recover again."""
        interp = interpreter()
        interp.execute(DESIGN + "commit;")
        interp.execute(
            f'checkpoint "{tmp_path}"; insert teach(euclid, math);')
        interp.close()
        with (tmp_path / "wal.log").open("ab") as handle:
            handle.write(b'{"crc": 1, "entry": {"kind": "IN')  # crash!
        restarted = interpreter()
        restarted.execute(f'recover "{tmp_path}";')
        restarted.execute("insert teach(gauss, cs);")
        restarted.close()
        fresh = interpreter()
        out = fresh.execute(
            f'recover "{tmp_path}";'
            "truth teach(euclid, math); truth teach(gauss, cs);"
        )
        joined = "\n".join(out)
        assert "recovered: 2 log entries" in joined
        assert "torn" not in joined
        assert "teach(euclid) = math: true" in joined
        assert "teach(gauss) = cs: true" in joined

    def test_close_releases_the_log(self, tmp_path, interpreter):
        interp = interpreter()
        interp.execute(DESIGN + f'commit; checkpoint "{tmp_path}";'
                       "insert teach(euclid, math);")
        log = interp.wal
        assert log._handle._file is not None  # the append opened it
        interp.close()
        assert interp.wal is None and log._handle._file is None
        # The session goes on, unlogged.
        out = interp.execute("insert teach(gauss, cs); "
                             "truth teach(gauss, cs);")
        assert out[-1] == "teach(gauss) = cs: true"

    def test_undo_refreshes_checkpoint(self, tmp_path, interpreter):
        interp = interpreter()
        interp.execute(DESIGN + "commit;")
        out = interp.execute(
            f'checkpoint "{tmp_path}";'
            "insert teach(gauss, cs); undo;"
        )
        assert any("checkpoint refreshed" in line for line in out)
        fresh = interpreter()
        out2 = fresh.execute(
            f'recover "{tmp_path}"; truth teach(gauss, cs);'
        )
        joined = "\n".join(out2)
        assert "recovered: 0 log entries" in joined
        assert "teach(gauss) = cs: false" in joined

    def test_load_detaches_wal(self, tmp_path, interpreter):
        interp = interpreter()
        interp.execute(DESIGN + "commit;")
        out = interp.execute(
            f'checkpoint "{tmp_path}";'
            f'save "{tmp_path / "plain.json"}";'
            f'load "{tmp_path / "plain.json"}";'
        )
        assert any("detached" in line for line in out)
        assert interp.wal is None

    def test_guard_undo_compensates_wal(self, tmp_path, interpreter):
        interp = interpreter()
        interp.execute(DESIGN + "commit;")
        out = interp.execute(
            f'checkpoint "{tmp_path}";'
            "constraint card teach per domain max 1;"
            "guard on;"
            "insert teach(euclid, math);"
            "insert teach(euclid, cs);"  # violates; undone + aborted
        )
        assert any(line.startswith("error:") for line in out)
        # the violating entry is aborted
        assert interp.wal.health()["entries"] == 1
        fresh = interpreter()
        out2 = fresh.execute(
            f'recover "{tmp_path}"; truth teach(euclid, cs);'
        )
        assert any("teach(euclid) = cs: false" in line
                   for line in out2)

    def test_update_the_schema_cannot_apply_is_never_logged(
            self, tmp_path, interpreter):
        """The schema check runs before the append, as in
        ``LoggedDatabase.execute``: an update naming no function
        leaves the log as it was — no entry, no abort."""
        interp = interpreter()
        interp.execute(DESIGN + f'commit; checkpoint "{tmp_path}";'
                       "insert teach(euclid, math);")
        before = interp.wal.last_seq()
        for script in ("insert zz(a, b);",
                       "begin; insert teach(gauss, cs); "
                       "insert zz(a, b); end;"):
            out = interp.execute(script)
            assert out[-1] == "error: unknown function: 'zz'"
            assert interp.wal.last_seq() == before
