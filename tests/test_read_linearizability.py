"""Point reads through the service against a sequential spec.

A point ``truth_of`` the maintained extension answers with nothing
waiting is a lookup under the memo's lock alone (:mod:`repro.fdb.memo`),
while the writer of the same cluster may be mid-commit. Linearizability
(Herlihy and Wing, TOPLAS 1990) is what such a read may observe: the
verdict of *some* prefix of the commit order that the read's own
interval allows. One writer commits a seeded stream of base INS / DEL
to ``v``'s tables and derived INS of ``v`` (each storing a null-valued
chain, whose facts a later base DEL may take apart), bumping ``begun``
before each call and ``done`` after it returns. Every ``OUTRUN``-th
commit is a sequence long enough that ``v``'s memo drops its chains,
and the next read that holds the cluster lock builds the memo again
while lock-free lookups race it. Readers record ``done`` before each
read and ``begun`` after it. Replayed on a copy of the
initial instance, the prefixes between those two counts are the only
states the read could have seen, and its verdict must be the walk's
(``reference_truth`` over ``tests/test_chain_walk.py``'s depth-first
walk, which keeps no memo and shares no code with the engine's join)
after one of them.
"""

from __future__ import annotations

import random
import sys
import threading
import time

from repro.fdb.memo import ExtensionMemo
from repro.fdb.updates import Update, UpdateSequence, apply_entry
from repro.service import DatabaseService
from tests.test_chain_walk import reference_truth
from tests.test_extension_memo import two_clusters

OPS = 200
POOL = 5
OUTRUN = 40  # every 40th commit drops v's kept chains
# Reads the memo answered with nothing to apply while the writer had a
# call open: the overlap the test is for (a few hundred in practice).
MIN_OVERLAPPED_LOOKUPS = 20


def one_update(db, rng: random.Random) -> Update:
    """A base INS / DEL on ``f1`` or ``f2`` or a derived INS of ``v``,
    valid against ``db``; applied to it."""
    name = rng.choice(("f1", "f2"))
    pairs = tuple(db.table(name).pairs())
    if rng.random() < 0.15:
        update = Update.ins("v", f"T0_{rng.randrange(POOL)}",
                            f"T2_{rng.randrange(POOL)}")
    elif pairs and rng.random() < 0.5:
        update = Update.delete(name, *rng.choice(pairs))
    else:
        k = int(name[1])
        update = Update.ins(name, f"T{k - 1}_{rng.randrange(POOL)}",
                            f"T{k}_{rng.randrange(POOL)}")
    apply_entry(db, update)
    return update


def stream(seed: int) -> list[Update | UpdateSequence]:
    """``OPS`` commits, each valid against the state the ones before it
    leave: one update, or at every ``OUTRUN``-th a sequence that goes on
    until ``v``'s memo drops its chains (current before it: a scan)."""
    db, rng, ops = two_clusters(), random.Random(seed), []
    for i in range(1, OPS + 1):
        if i % OUTRUN:
            ops.append(one_update(db, rng))
            continue
        db.extension("v")
        burst = []
        while db.memo("v").chains:
            burst.append(one_update(db, rng))
        ops.append(UpdateSequence(tuple(burst)))
    return ops


def verdicts(ops: list, cells: list) -> list[dict]:
    """The walk's verdict on every cell after each prefix of ``ops``."""
    db = two_clusters()
    derivations = db.derived("v").derivations
    table = []
    for k in range(len(ops) + 1):
        if k:
            apply_entry(db, ops[k - 1])
        table.append({cell: reference_truth(db, derivations, *cell)
                      for cell in cells})
    return table


def test_point_reads_linearize_against_the_sequential_walk(monkeypatch):
    ops = stream(seed=59)
    cells = [(f"T0_{i}", f"T2_{j}") for i in range(POOL)
             for j in range(POOL)] + [("T0_0", "absent")]
    service = DatabaseService(two_clusters(), lock_timeout=10.0)
    counts = {"begun": 0, "done": 0}
    reads: list[tuple] = []  # (done before, verdict, begun after, cell, kept)
    errors: list = []
    finished = threading.Event()

    # A read the kept memo answered with no delta to apply: a lookup.
    looked = threading.local()
    truth, apply = ExtensionMemo.truth, ExtensionMemo._apply
    rebuilt: list = []  # point reads that built the dropped memo again

    def counted(self, db, x, y, join=None):
        idle = self.chains and not self.pending
        looked.point = True
        try:
            verdict = truth(self, db, x, y, join)
        finally:
            looked.point = False
        if verdict is not None and idle:
            looked.hit = True
        return verdict

    def applied(self, db, join, pending):
        if pending is None and getattr(looked, "point", False):
            rebuilt.append(self.name)
        return apply(self, db, join, pending)

    monkeypatch.setattr(ExtensionMemo, "truth", counted)
    monkeypatch.setattr(ExtensionMemo, "_apply", applied)

    def writer() -> None:
        try:
            for update in ops:
                counts["begun"] += 1
                service.execute(update)
                counts["done"] += 1
                time.sleep(0.0002)  # readers get in between commits
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)
        finally:
            finished.set()

    def reader(seed: int) -> None:
        rng = random.Random(seed)
        try:
            while not finished.is_set():
                if rng.random() < 0.05:  # a scan: the memo stays kept
                    service.extension("v")
                    continue
                cell = rng.choice(cells)
                looked.hit = False
                before = counts["done"]
                verdict = service.truth_of("v", *cell)
                reads.append((before, verdict, counts["begun"], cell,
                              looked.hit))
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=reader, args=(seed,))
               for seed in range(3)] + [threading.Thread(target=writer)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # threads trade places inside a read
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        service.close()
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert counts["done"] == OPS

    table = verdicts(ops, cells)
    unexplained = [
        (before, verdict, after, cell) for before, verdict, after, cell, _
        in reads
        if all(table[k][cell] is not verdict
               for k in range(before, after + 1))
    ]
    assert not unexplained, unexplained[:5]
    # The spec constrains something: verdicts moved under the stream,
    # point reads built dropped memos again, and lookups ran while a
    # commit was open.
    assert len({verdict for _, verdict, *_ in reads}) > 1
    assert rebuilt, "no point read built a dropped memo"
    overlapped = sum(1 for before, _, after, _, hit in reads
                     if hit and before < after)
    assert overlapped >= MIN_OVERLAPPED_LOOKUPS, overlapped
