"""``structure_fault``: the stored structure checked against itself,
and the logged path refusing a commit that breaks it."""

from __future__ import annotations

import pytest

from repro.errors import PersistenceError, StructureError
from repro.fdb import persistence, updates
from repro.fdb.facts import Fact, FactRef
from repro.fdb.nc import NegatedConjunction
from repro.fdb.updates import Update, apply_update
from repro.fdb.wal import LoggedDatabase, UpdateLog, recover
from repro.workloads.university import pupil_database, section_42_updates


@pytest.fixture
def db():
    """The Section 4.2 instance after u1 and u2: true and ambiguous
    rows, a live NC, nulls."""
    db = pupil_database()
    for update in section_42_updates()[:2]:
        apply_update(db, update)
    assert db.ncs and any(t.null_x_facts() or t.null_y_facts()
                          for t in db.tables())
    return db


def an_ambiguous_fact(db):
    return next((table, fact) for table in db.tables()
                for fact in table.facts() if fact.ncl)


def test_a_sound_instance_has_no_fault(db):
    assert db.structure_fault() is None
    assert pupil_database().structure_fault() is None


def drop_from_domain_index(db):
    table = db.table("teach")
    fact = next(table.facts())
    table._by_x[fact.x].remove(fact)
    return "missing from a value index"


def leave_stale_index_entry(db):
    table = db.table("teach")
    fact = next(f for f in table.facts() if not f.ncl)
    del table._facts[fact.pair]
    return "holds a stale fact"


def store_under_wrong_pair(db):
    table = db.table("teach")
    table._facts[("nobody", "nothing")] = Fact("x", "y")
    return "is stored under"


def break_insertion_order(db):
    facts = list(db.table("teach").facts())
    facts[0].seq, facts[1].seq = facts[1].seq, facts[0].seq
    return "out of insertion order"


def forget_a_null(db):
    table = next(t for t in db.tables()
                 if t.null_x_facts() or t.null_y_facts())
    (table._null_x or table._null_y).pop()
    return "null list disagrees"


def bypass_ncl(db):
    _, fact = an_ambiguous_fact(db)
    fact.ncl.add(99)
    return "points to NC g99"


def bypass_flag(db):
    from repro.fdb.logic import Truth

    _, fact = an_ambiguous_fact(db)
    fact.truth = Truth.TRUE
    return "is not ambiguous"


def drop_back_pointer(db):
    _, fact = an_ambiguous_fact(db)
    fact.ncl.clear()
    return "lacks NCL entry"


def dangle_nc_member(db):
    index = next(iter(db.ncs)).index
    db.ncs._ncs[index] = NegatedConjunction(
        index, (FactRef("teach", "nobody", "nothing"),))
    return "references missing fact"


@pytest.mark.parametrize("damage", [
    drop_from_domain_index, leave_stale_index_entry,
    store_under_wrong_pair, break_insertion_order, forget_a_null,
    bypass_ncl, bypass_flag, drop_back_pointer, dangle_nc_member,
])
def test_each_contradiction_is_named(db, damage):
    expected = damage(db)
    assert expected in db.structure_fault()


def test_snapshot_load_reports_the_fault(db):
    data = persistence.to_dict(db)
    data["base"][0]["facts"][0]["ncl"].append(42)
    with pytest.raises(PersistenceError, match="points to NC g42"):
        persistence.from_dict(data)


def test_logged_commit_that_breaks_the_structure_is_aborted(
        tmp_path, monkeypatch):
    """An update whose application goes around the recording
    primitives is refused before it commits: the recorded part is
    rolled back and the log entry compensated, so replay skips it."""
    live = pupil_database()
    snapshot = tmp_path / "snapshot.json"
    persistence.save(live, snapshot)
    log_path = tmp_path / "updates.log"
    logged = LoggedDatabase(live, log_path)
    logged.insert("teach", "gauss", "cs")

    apply_update = updates.apply_update

    def apply_and_bypass(db, update):
        apply_update(db, update)
        next(db.table("teach").facts()).ncl.add(99)  # unrecorded

    monkeypatch.setattr(updates, "apply_update", apply_and_bypass)
    with pytest.raises(StructureError, match="points to NC g99"):
        logged.execute(Update.ins("teach", "noether", "algebra"))
    monkeypatch.undo()

    assert live.table("teach").get("noether", "algebra") is None
    assert len(UpdateLog(log_path)) == 1
    report = recover(snapshot, log_path)
    assert (report.entries_applied, report.aborted) == (1, 1)
    assert report.db.table("teach").get("noether", "algebra") is None
    # The unrecorded change is still there: the database fails stop.
    with pytest.raises(StructureError):
        logged.insert("teach", "noether", "algebra")
