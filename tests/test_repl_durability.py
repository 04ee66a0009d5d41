"""The REPL commits through the library's write-ahead protocol, and a
re-design carries the instance through ``repro.fdb``.

Three properties, each checked through the surface language:

* a re-design (an unrelated ``add …; commit``) changes no verdict: the
  stored facts keep their flags and NCLs, the NCs whose members stay
  stored survive, and neither index counter goes back;
* with a checkpoint directory attached, recovering that directory
  gives the live instance after every statement that changes it —
  logged updates, a guard refusal, and the verbs that rewrite the
  instance outside the log (undo, redo, resolve, a re-design);
* a REPL update passes the wrapper's fault points, so an apply that
  fails there leaves the entry and its abort record in the log.
"""

from __future__ import annotations

import pytest

from repro.core.design_aid import AutoDesigner
from repro.errors import ReproError
from repro.faults import FAULTS, ErrorFault
from repro.faults.harness import states_diff
from repro.fdb.wal import recover
from repro.lang.interp import Interpreter

DESIGN = """
add teach: faculty -> course (many-many);
add class_list: course -> student (many-many);
add pupil: faculty -> student (many-many);
commit;
"""

REDESIGN = "add advisor: faculty -> student (many-many); commit;"


@pytest.fixture
def interpreter(closing):
    return lambda: closing(Interpreter(AutoDesigner()))


def recovered(directory):
    return recover(directory / "snapshot.json", directory / "wal.log").db


@pytest.mark.parametrize("before, after", [
    # The second insert must draw a fresh null: n1 is the first's.
    ("insert pupil(gauss, bill);",
     "insert pupil(noether, ada); truth pupil(gauss, ada);"
     "truth pupil(noether, bill); ncs;"),
    # The NC g1 the derived delete left must survive the re-design.
    ("insert teach(euclid, math); insert class_list(math, john);"
     "delete pupil(euclid, john);",
     "truth pupil(euclid, john); truth teach(euclid, math); ncs;"
     "insert teach(euclid, optics); insert class_list(optics, ada);"
     "delete pupil(euclid, ada); ncs;"),
])
def test_a_redesign_changes_no_verdict(interpreter, before, after):
    plain, redesigned = interpreter(), interpreter()
    plain.execute(DESIGN + before)
    redesigned.execute(DESIGN + before)
    out = redesigned.execute(REDESIGN)
    assert not any(line.startswith(("error", "warning")) for line in out)
    assert redesigned.execute(after) == plain.execute(after)


STEPS = [
    "insert teach(euclid, math)",
    "insert class_list(math, john)",
    "delete pupil(euclid, john)",
    "replace class_list(math, john) with (math, mary)",
    "begin; insert class_list(math, ada); insert pupil(gauss, bill); end",
    "guard on; insert class_list(math, zed); guard off",
    "undo",
    "redo",
    "insert teach(gauss, physics)",
    "resolve",
    "add office: faculty -> room (many-one); commit",
    "insert office(euclid, r101)",
    "undo",
]


def test_recovery_matches_the_live_instance_after_every_statement(
        tmp_path, interpreter):
    """teach is many-one here, so ``resolve`` has a null to settle:
    ``INS(pupil, <gauss, bill>)`` stores ``teach(gauss, n1)``, and
    ``teach(gauss, physics)`` forces ``n1 := physics``."""
    interp = interpreter()
    interp.execute(DESIGN.replace("course (many-many)",
                                  "course (many-one)")
                   + "constraint card class_list per domain max 2;"
                   + f'checkpoint "{tmp_path}";')
    for step in STEPS:
        out = interp.execute(step + ";")
        if step.startswith("guard"):
            assert any(line.startswith("error: update INS(class_list")
                       and "undone; it violates" in line for line in out)
        else:
            assert not any(line.startswith("error") for line in out), out
        if step == "resolve":
            assert any(line.startswith("resolved:") for line in out), out
        assert states_diff(interp.db, recovered(tmp_path)) is None, step


def test_a_repl_update_passes_the_wrapper_fault_points(
        tmp_path, interpreter):
    interp = interpreter()
    interp.execute(DESIGN + f'checkpoint "{tmp_path}";'
                   "insert teach(euclid, math);")
    FAULTS.arm("wal.apply.before", ErrorFault(
        make=lambda: ReproError("injected apply failure")))
    try:
        out = interp.execute("insert teach(gauss, cs);")
    finally:
        FAULTS.disarm_all()
    assert out == ["error: injected apply failure"]
    assert interp.db.table("teach").get("gauss", "cs") is None
    frames = [frame for frame in interp.wal.scan().records
              if frame.kind != "header"]
    assert [frame.kind for frame in frames] == ["entry", "entry", "abort"]
    assert frames[2].payload == frames[1].seq
    assert states_diff(interp.db, recovered(tmp_path)) is None
    assert len(interp.journal.history) == 1
