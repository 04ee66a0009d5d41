"""Tests for the update journal (history, undo, redo)."""

from __future__ import annotations

import pytest

from repro.errors import UpdateError
from repro.fdb.evaluate import derived_extension
from repro.fdb.journal import Journal
from repro.fdb.logic import Truth
from repro.fdb.updates import Update
from repro.workloads.university import pupil_database, section_42_updates


@pytest.fixture
def journal(pupil_db):
    return Journal(pupil_db)


class TestExecute:
    def test_applies_and_records(self, journal):
        journal.execute(Update.ins("teach", "gauss", "cs"))
        assert journal.db.truth_of("teach", "gauss", "cs") is Truth.TRUE
        assert [str(u) for u in journal.history] == [
            "INS(teach, <gauss, cs>)",
        ]

    def test_execute_all(self, journal, u_sequence):
        for update in u_sequence:
            journal.execute(update)
        assert len(journal.history) == 5

    def test_max_depth_drops_oldest(self, pupil_db):
        journal = Journal(pupil_db, max_depth=2)
        for i in range(4):
            journal.execute(Update.ins("teach", f"t{i}", "c"))
        assert len(journal.history) == 2
        assert str(journal.history[0]) == "INS(teach, <t2, c>)"

    def test_bad_depth(self, pupil_db):
        with pytest.raises(ValueError):
            Journal(pupil_db, max_depth=0)


class TestUndo:
    def test_undo_base_insert(self, journal):
        journal.execute(Update.ins("teach", "gauss", "cs"))
        undone = journal.undo()
        assert str(undone) == "INS(teach, <gauss, cs>)"
        assert journal.db.truth_of("teach", "gauss", "cs") is Truth.FALSE

    def test_undo_derived_delete_restores_partial_info(self, journal):
        journal.execute(Update.delete("pupil", "euclid", "john"))
        assert len(journal.db.ncs) == 1
        journal.undo()
        assert len(journal.db.ncs) == 0
        fact = journal.db.table("teach").get("euclid", "math")
        assert fact.truth is Truth.TRUE and fact.ncl == set()

    def test_undo_derived_insert_restores_null_counter(self, journal):
        journal.execute(Update.ins("pupil", "gauss", "bill"))
        assert journal.db.nulls.next_index == 2
        journal.undo()
        assert journal.db.nulls.next_index == 1
        assert len(journal.db.table("teach")) == 2

    def test_undo_empty_raises(self, journal):
        with pytest.raises(UpdateError):
            journal.undo()

    def test_undo_all_restores_initial(self, journal, u_sequence):
        before = derived_extension(journal.db, "pupil")
        for update in u_sequence:
            journal.execute(update)
        undone = [journal.undo() for _ in range(5)]
        assert undone == list(reversed(u_sequence))
        assert derived_extension(journal.db, "pupil") == before
        assert journal.history == ()


class TestRedo:
    def test_redo_reproduces_exactly(self, journal, u_sequence):
        for update in u_sequence:
            journal.execute(update)
        final_rows = journal.db.table("teach").rows()
        final_pupil = derived_extension(journal.db, "pupil")
        for _ in range(5):
            journal.undo()
        for _ in range(5):
            journal.redo()
        assert journal.db.table("teach").rows() == final_rows
        assert derived_extension(journal.db, "pupil") == final_pupil

    def test_redo_empty_raises(self, journal):
        with pytest.raises(UpdateError):
            journal.redo()

    def test_new_execute_clears_redo(self, journal):
        journal.execute(Update.ins("teach", "gauss", "cs"))
        journal.undo()
        assert journal.describe().startswith("0 applied, 1 undone")
        journal.execute(Update.ins("teach", "noether", "algebra"))
        assert journal.describe().startswith("1 applied, 0 undone")
        with pytest.raises(UpdateError):
            journal.redo()

    def test_interleaved_undo_redo(self, journal, u_sequence):
        for update in list(u_sequence)[:3]:
            journal.execute(update)
        journal.undo()
        journal.redo()
        journal.undo()
        journal.undo()
        assert len(journal.history) == 1
        assert journal.describe().startswith("1 applied, 2 undone")


class TestInspection:
    def test_describe(self, journal, u_sequence):
        journal.execute(u_sequence[0])
        text = journal.describe()
        assert "1 applied, 0 undone" in text
        assert "DEL(pupil, <euclid, john>)" in text

    def test_clear(self, journal, u_sequence):
        journal.execute(u_sequence[0])
        journal.undo()
        journal.clear()
        assert journal.describe() == "0 applied, 0 undone"


class TestDeterministicReplay:
    def test_null_indices_identical_after_undo_redo(self, journal):
        """Redo must burn the same null index the original run did."""
        journal.execute(Update.ins("pupil", "gauss", "bill"))
        first_rows = journal.db.table("teach").rows()
        journal.undo()
        journal.redo()
        assert journal.db.table("teach").rows() == first_rows
