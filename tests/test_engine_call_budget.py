"""Guard: what one engine op costs, counted.

``tests/test_request_path_budget.py`` counts the service's share of a
request; this file counts the engine's. ``sys.setprofile`` sees every
Python-level call, so the calls into ``src/repro`` that one derived
INS, one derived DEL, one point ``truth_of`` (on a kept extension, and
right after a base write to a fact starting at its ``x``) and one ``extension``
right after a base write make are exact for a given tree and instance.
Each op runs on its own copy of one ``chain_fdb(3)`` instance from
``repro.workloads``, in a subprocess under ``PYTHONHASHSEED=0`` (value
hashes fix set and dict orders). The budgets are upper bounds at the
counts of the tree that set them: a change that adds calls to one of
these paths fails here with the per-function tally; one that removes
calls lowers the budget.

The scan row is the maintained extension: after one base write the
scan joins the chains through the fact the write changed, outward from
the step it sits at, and moves the counts of their keys
(:mod:`repro.fdb.memo`), where a join from scratch makes a call per
value looked up at every hop. A point read right after the write
applies that same delta, then answers from the extension.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

BUDGETS = {
    # Walking the exact chains a second time for exists-NVC made 74; the
    # depth-first walk, a generator per partial chain, 61.
    "derived_insert": 55,
    "derived_delete": 133,
    # A walk over the chains from x made 72.
    "truth_of": 9,
    # The delta of the write, then a lookup; walking from x made 81.
    "truth_of_after_base_write": 21,
    # A join from scratch made 178; folding every kept partition, 84;
    # re-joining the partitions the write reached, 64; probing each
    # value's exact and null matches in one copying call, 35.
    "scan_after_base_write": 26,
}

ROOT = Path(repro.__file__).parent

SCRIPT = r"""
import json, sys
from collections import Counter
from pathlib import Path

import repro
from repro.fdb import persistence
from repro.workloads.generator import chain_fdb, random_instance

ROOT = str(Path(repro.__file__).parent)
base = chain_fdb(3)
random_instance(base, 100, seed=7, value_pool=30)
snapshot = persistence.to_dict(base)


def fresh():
    db = persistence.from_dict(snapshot)
    db.extension("v")
    db.extension("v")  # the memo starts at the second scan
    return db


def counted(fn):
    tally = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(ROOT):
            code = frame.f_code
            tally[f"{Path(code.co_filename).name}:{code.co_name}"] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return tally


derivable = sorted(fresh().extension("v"))
x, y = derivable[len(derivable) // 2]


def scan_after_base_write(db):
    db.insert("f3", "T2_3", "T3_new")
    return counted(lambda: db.extension("v"))


def truth_of_after_base_write(db):
    db.insert("f1", x, "T1_new")  # a first-step fact starting at x
    return counted(lambda: db.truth_of("v", x, y))


rows = {
    "derived_insert": lambda db: counted(
        lambda: db.insert("v", "T0_new", "T3_new")),
    "derived_delete": lambda db: counted(lambda: db.delete("v", x, y)),
    "truth_of": lambda db: counted(lambda: db.truth_of("v", x, y)),
    "truth_of_after_base_write": truth_of_after_base_write,
    "scan_after_base_write": scan_after_base_write,
}
for name, row in rows.items():
    row(fresh())  # the first run imports and warms lazy paths
print(json.dumps({name: row(fresh()) for name, row in rows.items()}))
"""


def engine_calls() -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=str(ROOT.parent))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def report(tally: dict) -> str:
    return "\n".join(f"{count:5d}  {where}" for where, count in
                     sorted(tally.items(), key=lambda item: -item[1]))


def test_engine_ops_stay_in_budget():
    calls = engine_calls()
    assert set(calls) == set(BUDGETS)
    over = {name: tally for name, tally in calls.items()
            if sum(tally.values()) > BUDGETS[name]}
    assert not over, "\n\n".join(
        f"{name}: {sum(tally.values())} calls, budget {BUDGETS[name]}\n"
        + report(tally) for name, tally in over.items())
