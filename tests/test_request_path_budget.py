"""Guard: what one uncontended request costs the service, counted.

A request through :class:`repro.service.DatabaseService` should cost
about what its engine call costs. Timing that in CI is noise; counting
it is not. ``sys.setprofile`` sees every Python-level call, so the
number of calls into ``src/repro`` for one in-memory base ``INS``
through ``execute``, one base-fact ``truth_of``, one derived
``truth_of`` the maintained extension answers by lookup (no cluster
lock) and one it answers after applying a change that waits (the
locked path) — OBS off, no deadline, no contention — is exact for a
given tree, and the budgets below are upper bounds on it. A change
that puts a layer of calls back on the request path fails here with the
per-function tally.

The lane's SLO monitor gets a clock that does not move, so the counted
request neither evaluates nor rolls the window (both are once per
interval, not per request).
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.fdb.logic import Truth
from repro.fdb.updates import Update
from repro.obs import OBS, SLOMonitor
from repro.service import DatabaseService
from repro.workloads.university import pupil_database

# Python-level calls into src/repro for one request, engine included.
EXECUTE_BUDGET = 50
TRUTH_OF_BUDGET = 22
MEMO_TRUTH_OF_BUDGET = 10
WAITING_TRUTH_OF_BUDGET = 39

ROOT = str(Path(repro.__file__).parent)


def calls_into_repro(fn) -> Counter:
    """(file, function) -> calls made while ``fn()`` runs."""
    tally: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(ROOT):
                tally[(Path(code.co_filename).name, code.co_name)] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return tally


@pytest.fixture
def service():
    OBS.disable()
    lane = DatabaseService(pupil_database())
    lane.slo = SLOMonitor(clock=lambda: 1000.0)
    # Warm every lazy path: the first request rolls and evaluates the
    # SLO window; both the insert and the delete have run once.
    lane.execute(Update.ins("teach", "zed", "art"))
    lane.execute(Update.delete("teach", "zed", "art"))
    lane.truth_of("teach", "zed", "art")
    yield lane
    lane.close()


def report(tally: Counter) -> str:
    return "\n".join(f"{count:4d}  {file}:{name}"
                     for (file, name), count in tally.most_common())


def test_an_uncontended_write_stays_in_budget(service):
    insert = Update.ins("teach", "zed", "art")
    tally = calls_into_repro(lambda: service.execute(insert))
    assert service.truth_of("teach", "zed", "art") is Truth.TRUE
    assert sum(tally.values()) <= EXECUTE_BUDGET, report(tally)


def test_an_uncontended_point_read_stays_in_budget(service):
    service.execute(Update.ins("teach", "zed", "art"))
    result: list = []
    tally = calls_into_repro(
        lambda: result.append(service.truth_of("teach", "zed", "art")))
    assert result == [Truth.TRUE]
    assert sum(tally.values()) <= TRUTH_OF_BUDGET, report(tally)


def test_a_memo_answered_derived_point_read_stays_in_budget(service):
    for _ in range(2):  # the second scan keeps the memo
        service.extension("pupil")
    db = service.db
    assert db.memo("pupil").truth(db, "euclid", "bill") is Truth.TRUE
    service.truth_of("pupil", "euclid", "bill")
    result: list = []
    tally = calls_into_repro(
        lambda: result.append(service.truth_of("pupil", "euclid", "bill")))
    assert result == [Truth.TRUE]
    assert sum(tally.values()) <= MEMO_TRUTH_OF_BUDGET, report(tally)


def test_a_derived_point_read_with_a_change_waiting_stays_in_budget(
        service):
    for _ in range(2):  # the second scan keeps the memo
        service.extension("pupil")
    service.execute(Update.ins("teach", "zed", "math"))
    db = service.db
    assert db.memo("pupil").pending  # the lookup declines: locked path
    result: list = []
    tally = calls_into_repro(
        lambda: result.append(service.truth_of("pupil", "zed", "bill")))
    assert result == [Truth.TRUE] and not db.memo("pupil").pending
    assert sum(tally.values()) <= WAITING_TRUTH_OF_BUDGET, report(tally)
