"""Tests for general update requests (atomic update sequences)."""

from __future__ import annotations

import pytest

from repro.core.design_aid import AutoDesigner
from repro.errors import UpdateError
from repro.fdb.journal import Journal
from repro.fdb.logic import Truth
from repro.fdb.updates import Update, UpdateSequence, apply_entry
from repro.lang.interp import Interpreter


class TestUpdateSequence:
    def test_str(self):
        sequence = UpdateSequence((
            Update.ins("f", "a", "b"), Update.delete("g", "c", "d"),
        ), label="fixups")
        assert str(sequence) == (
            "BEGIN fixups { INS(f, <a, b>); DEL(g, <c, d>) }"
        )

    def test_empty_rejected(self):
        with pytest.raises(UpdateError):
            UpdateSequence(())

    def test_len_iter(self):
        sequence = UpdateSequence((Update.ins("f", "a", "b"),))
        assert len(sequence.updates) == 1
        assert [u.kind for u in sequence] == ["INS"]


class TestApplySequence:
    def test_all_applied(self, pupil_db):
        apply_entry(pupil_db, UpdateSequence((
            Update.ins("teach", "gauss", "optics"),
            Update.delete("teach", "euclid", "math"),
        )))
        assert pupil_db.truth_of("teach", "gauss", "optics") is Truth.TRUE
        assert pupil_db.truth_of("teach", "euclid", "math") is Truth.FALSE

    def test_atomic_on_failure(self, pupil_db):
        sequence = UpdateSequence((
            Update.ins("teach", "gauss", "optics"),
            Update.ins("no_such_function", "a", "b"),
        ))
        with pytest.raises(Exception):
            apply_entry(pupil_db, sequence)
        # The first insert was rolled back with the failure.
        assert pupil_db.truth_of("teach", "gauss", "optics") is Truth.FALSE


class TestJournaledSequences:
    def test_one_entry_one_undo(self, pupil_db):
        journal = Journal(pupil_db)
        journal.execute(UpdateSequence((
            Update.delete("pupil", "euclid", "john"),
            Update.ins("pupil", "gauss", "bill"),
        )))
        assert len(journal.history) == 1
        assert len(pupil_db.ncs) == 1
        journal.undo()
        assert len(pupil_db.ncs) == 0
        assert pupil_db.nulls.next_index == 1
        journal.redo()
        assert len(pupil_db.ncs) == 1
        assert pupil_db.truth_of("pupil", "gauss", "bill") is Truth.TRUE


class TestLanguageBlocks:
    SETUP = """
        add teach: faculty -> course (many-many);
        add class_list: course -> student (many-many);
        add pupil: faculty -> student (many-many);
        commit;
        insert teach(euclid, math);
        insert class_list(math, john);
    """

    def _run(self, script: str):
        interp = Interpreter(AutoDesigner())
        return interp, interp.execute(script)

    def test_begin_end_executes_atomically(self):
        interp, out = self._run(self.SETUP + """
            begin;
            delete pupil(euclid, john);
            insert teach(gauss, optics);
            end;
            history;
        """)
        joined = "\n".join(out)
        assert "queued: DEL(pupil, <euclid, john>)" in joined
        assert "ok: BEGIN { DEL(pupil, <euclid, john>); "in joined
        # One journal entry for the whole block (+2 setup inserts).
        assert "3 applied, 0 undone" in joined

    def test_undo_reverts_whole_block(self):
        interp, out = self._run(self.SETUP + """
            begin;
            delete pupil(euclid, john);
            insert teach(gauss, optics);
            end;
            undo;
            truth pupil(euclid, john);
            truth teach(gauss, optics);
        """)
        assert "pupil(euclid) = john: true" in out
        assert "teach(gauss) = optics: false" in out

    def test_abort_discards(self):
        interp, out = self._run(self.SETUP + """
            begin;
            delete pupil(euclid, john);
            abort;
            truth pupil(euclid, john);
        """)
        assert "aborted: discarded 1 queued updates" in out
        assert out[-1] == "pupil(euclid) = john: true"

    def test_nested_begin_rejected(self):
        interp, out = self._run(self.SETUP + "begin; begin;")
        assert out[-1] == "error: a begin block is already open"

    def test_end_without_begin_rejected(self):
        interp, out = self._run(self.SETUP + "end;")
        assert out[-1] == "error: no begin block is open"

    def test_empty_block(self):
        interp, out = self._run(self.SETUP + "begin; end;")
        assert out[-1] == "end: empty sequence, nothing to do"

    def test_guarded_block_undone_as_unit(self):
        interp, out = self._run(self.SETUP + """
            constraint include class_list.domain in teach.range;
            guard on;
            begin;
            insert teach(gauss, optics);
            insert class_list(alchemy, ada);
            end;
        """)
        assert out[-1].startswith("error: sequence undone")
        # Both halves of the block are gone (the error aborted the
        # script, so query in a fresh execute call).
        followup = interp.execute("truth teach(gauss, optics);")
        assert followup[-1] == "teach(gauss) = optics: false"
