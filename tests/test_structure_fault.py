"""``structure_fault``: the stored structure checked against itself,
and the logged path refusing a commit that breaks it — by looking at
the tables and NCs the commit wrote, with the whole-instance walk left
to load, ``recover`` and ``checkpoint``."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core.design_aid import AutoDesigner
from repro.core.derivation import Derivation
from repro.core.schema_text import parse_schema
from repro.errors import PersistenceError, StructureError
from repro.faults.harness import states_diff
from repro.fdb import persistence, updates, wal
from repro.fdb.database import FunctionalDatabase
from repro.fdb.facts import Fact, FactRef
from repro.fdb.nc import NegatedConjunction
from repro.fdb.table import FunctionTable
from repro.fdb.updates import Update, apply_update
from repro.fdb.wal import LoggedDatabase, UpdateLog, checkpoint, recover
from repro.lang.interp import Interpreter
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
    fact.ncl = fact.ncl | {99}
    return "points to NC g99"


def bypass_flag(db):
    from repro.fdb.logic import Truth

    _, fact = an_ambiguous_fact(db)
    fact.truth = Truth.TRUE
    return "is not ambiguous"


def drop_back_pointer(db):
    _, fact = an_ambiguous_fact(db)
    fact.ncl = frozenset()
    return "lacks NCL entry"


def dangle_nc_member(db):
    index = next(iter(db.ncs)).index
    db.ncs._ncs[index] = NegatedConjunction(
        index, (FactRef("teach", "nobody", "nothing"),))
    return "references missing fact"


def lag_null_counter(db):
    db.nulls._next = 1
    return "at or past the null counter"


def lag_nc_counter(db):
    db.ncs._next = 1
    return "at or past the NC counter"


DAMAGES = [
    drop_from_domain_index, leave_stale_index_entry,
    store_under_wrong_pair, break_insertion_order, forget_a_null,
    bypass_ncl, bypass_flag, drop_back_pointer, dangle_nc_member,
    lag_null_counter, lag_nc_counter,
]


@pytest.mark.parametrize("damage", DAMAGES)
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
    logged.execute(Update.ins("teach", "gauss", "cs"))

    apply_update = updates.apply_update

    def apply_and_bypass(db, update):
        apply_update(db, update)
        fact = next(db.table("teach").facts())
        fact.ncl = fact.ncl | {99}  # unrecorded

    monkeypatch.setattr(updates, "apply_update", apply_and_bypass)
    with pytest.raises(StructureError, match="points to NC g99"):
        logged.execute(Update.ins("teach", "noether", "algebra"))
    monkeypatch.undo()

    assert live.table("teach").get("noether", "algebra") is None
    assert UpdateLog(log_path).health()["entries"] == 1
    report = recover(snapshot, log_path)
    assert (report.entries_applied, report.aborted) == (1, 1)
    assert report.db.table("teach").get("noether", "algebra") is None
    # The unrecorded change is still there: the database fails stop.
    with pytest.raises(StructureError):
        logged.execute(Update.ins("teach", "noether", "algebra"))
    logged.close()


def test_interpreter_commit_that_breaks_the_structure_is_aborted(
        tmp_path, monkeypatch, closing):
    """The REPL's write-ahead path refuses the same commit: once
    ``checkpoint`` attached a log, the update's recorded part is undone
    through the journal and the log entry compensated."""
    interp = closing(Interpreter(AutoDesigner()))
    interp.execute("add teach: faculty -> course (many-many); commit;"
                   f'checkpoint "{tmp_path}"; insert teach(gauss, cs);')

    apply_update = updates.apply_update

    def apply_and_bypass(db, update):
        apply_update(db, update)
        fact = next(db.table("teach").facts())
        fact.ncl = fact.ncl | {99}  # unrecorded

    monkeypatch.setattr(updates, "apply_update", apply_and_bypass)
    (line,) = interp.execute("insert teach(noether, algebra);")
    monkeypatch.undo()
    assert line.startswith("error:") and "points to NC g99" in line

    assert interp.db.table("teach").get("noether", "algebra") is None
    interp.close()
    report = recover(tmp_path / "snapshot.json", tmp_path / "wal.log")
    assert (report.entries_applied, report.aborted) == (1, 1)
    assert report.db.table("teach").get("noether", "algebra") is None
    assert report.db.table("teach").get("gauss", "cs") is not None


def test_snapshot_whose_counters_lag_its_contents_is_refused(db):
    """Loaded, such a snapshot would issue n1 and g1 a second time:
    ``INS(pupil, <noether, mary>)`` re-uses n1, and ``pupil(gauss) =
    mary`` reads true though nobody asserted it."""
    data = persistence.to_dict(db)
    for counter, named in (("next_null_index", "null counter n1"),
                           ("next_nc_index", "NC counter g1")):
        lagging = dict(data, **{counter: 1})
        with pytest.raises(PersistenceError, match=named):
            persistence.from_dict(lagging)
    assert persistence.from_dict(data).structure_fault() is None


# -- the commit check follows the transaction ---------------------------------


def two_cluster_database() -> FunctionalDatabase:
    """The Section 4.2 instance plus a second derivation cluster that
    shares no table with it: ``mentor = heads o staff``."""
    db = pupil_database()
    schema = parse_schema("""
        heads: faculty -> lab; (many-many)
        staff: lab -> student; (many-many)
        mentor: faculty -> student; (many-many)
    """)
    db.declare_base(schema["heads"])
    db.declare_base(schema["staff"])
    db.declare_derived(schema["mentor"],
                       Derivation.of(schema["heads"], schema["staff"]))
    db.load_instance({"heads": [("gauss", "optics")],
                      "staff": [("optics", "mary")]})
    return db


U1, U2 = section_42_updates()[:2]  # DEL(pupil ...): g1; INS(pupil ...): n1
ELSEWHERE = Update.ins("heads", "euler", "topology")


class Durable:
    """A logged two-cluster instance with its snapshot, and a twin
    that sees every committed update."""

    def __init__(self, tmp_path, closing):
        self.db = two_cluster_database()
        self.twin = two_cluster_database()
        self.snapshot = tmp_path / "snapshot.json"
        persistence.save(self.db, self.snapshot)
        self.log_path = tmp_path / "updates.log"
        self.logged = closing(LoggedDatabase(self.db, self.log_path))

    def commit(self, update):
        self.logged.execute(update)
        apply_update(self.twin, update)

    def on_disk(self):
        return self.snapshot.read_bytes(), self.log_path.read_bytes()

    def assert_recovers_what_was_committed(self):
        report = recover(self.snapshot, self.log_path)
        assert states_diff(self.twin, report.db) is None
        return report


@pytest.fixture
def durable(tmp_path, closing):
    return Durable(tmp_path, closing)


@pytest.mark.parametrize("damage", DAMAGES)
def test_commit_that_damages_what_it_writes_is_refused(
        durable, monkeypatch, damage):
    """u1 writes ``teach`` and ``class_list`` and creates g1; an apply
    step that also does the damage, round the recording primitives, is
    refused with the words the whole-instance walk has for it."""
    live = durable.db
    durable.commit(U2)
    apply_recorded = updates.apply_update
    whole_walk = []

    def apply_and_damage(db, update):
        apply_recorded(db, update)
        assert damage(db) in db.structure_fault()
        whole_walk.append(db.structure_fault())

    monkeypatch.setattr(updates, "apply_update", apply_and_damage)
    with pytest.raises(StructureError) as refused:
        durable.logged.execute(U1)
    monkeypatch.undo()

    assert [str(refused.value)] == whole_walk
    # The recorded part (g1) is rolled back, the log entry compensated.
    assert not live.ncs and all(
        1 not in fact.ncl for table in live.tables()
        for fact in table.facts())
    assert UpdateLog(durable.log_path).health()["entries"] == 1
    assert durable.assert_recovers_what_was_committed().aborted == 1


@pytest.mark.parametrize("damage", DAMAGES)
def test_damage_a_commit_does_not_write_waits_for_the_whole_walk(
        durable, damage):
    """Damage in the pupil cluster is not the business of a commit to
    ``heads``: it succeeds. ``checkpoint`` looks everywhere and
    refuses, leaving a snapshot + log pair that still recovers every
    committed update."""
    durable.commit(U1)
    durable.commit(U2)
    expected = damage(durable.db)
    durable.commit(ELSEWHERE)
    assert expected in durable.db.structure_fault()

    before = durable.on_disk()
    with pytest.raises(StructureError, match=expected):
        checkpoint(durable.logged, durable.snapshot)
    assert durable.on_disk() == before
    assert durable.assert_recovers_what_was_committed().entries_applied == 3


def test_recover_checks_the_whole_instance_once_after_replay(
        durable, monkeypatch):
    durable.commit(U1)
    walks = []
    walk = FunctionalDatabase.structure_fault

    def counted(db, records=None):
        walks.append(records)
        return walk(db, records)

    monkeypatch.setattr(FunctionalDatabase, "structure_fault", counted)
    durable.assert_recovers_what_was_committed()
    assert walks == [None, None]  # the load, then the replayed state
    checkpoint(durable.logged, durable.snapshot)
    del walks[:]
    assert recover(durable.snapshot, durable.log_path).entries_applied == 0
    assert walks == [None]  # nothing replayed: the load covered it


def test_recover_refuses_a_replay_that_breaks_the_structure(
        durable, monkeypatch):
    durable.commit(U2)
    durable.commit(ELSEWHERE)
    apply_recorded = updates.apply_update

    def apply_and_bypass(db, update):
        apply_recorded(db, update)
        fact = next(db.table("teach").facts())
        fact.ncl = fact.ncl | {99}

    monkeypatch.setattr(updates, "apply_update", apply_and_bypass)
    with pytest.raises(PersistenceError, match="points to NC g99"):
        recover(durable.snapshot, durable.log_path)
    report = recover(durable.snapshot, durable.log_path, policy="salvage")
    assert report.entries_applied == 2
    assert any("points to NC g99" in note for note in report.notes)


def test_commit_check_visits_what_the_undo_records_name(
        durable, monkeypatch):
    """The pin on the scope: one of four tables for a base write, the
    chain's tables for a derived DEL, and no NC but the ones the
    records name — g1 is live next door throughout."""
    durable.commit(U1)
    durable.commit(U2)
    tables, resolved, checking = [], [], []
    fault, get = FunctionTable.fault, FunctionTable.get
    walk = FunctionalDatabase.structure_fault

    def spied_fault(table):
        tables.append(table.name)
        return fault(table)

    def spied_get(table, x, y):
        if checking:
            resolved.append(FactRef(table.name, x, y))
        return get(table, x, y)

    def spied_walk(db, records=None):
        checking.append(True)
        try:
            return walk(db, records)
        finally:
            checking.pop()

    monkeypatch.setattr(FunctionTable, "fault", spied_fault)
    monkeypatch.setattr(FunctionTable, "get", spied_get)
    monkeypatch.setattr(FunctionalDatabase, "structure_fault", spied_walk)

    durable.commit(ELSEWHERE)
    assert (tables, resolved) == (["heads"], [])

    del tables[:]
    durable.commit(Update.delete("mentor", "gauss", "mary"))
    g2 = durable.db.ncs.get(2)
    assert sorted(tables) == ["heads", "staff"]
    assert resolved == list(g2.members)

    del tables[:], resolved[:]
    assert durable.db.structure_fault() is None
    assert sorted(tables) == sorted(durable.db.base_names)
    assert resolved == [*durable.db.ncs.get(1).members, *g2.members]


def test_transaction_records_is_the_live_list_inside_and_none_outside(db):
    txn = db.transaction()
    assert txn.records is None
    with txn:
        assert txn.records == []
        db.insert("teach", "noether", "algebra")
        (record,) = txn.records
        assert record[:2] == (db.table("teach"), "fact")
        assert db.structure_fault(txn.records) is None
    assert txn.records is None
    # The logged path reads the records through that accessor.
    assert "_undo" not in Path(wal.__file__).read_text(encoding="utf-8")
