"""The maintained extension on the read-heavy traffic it is built for.

E20's ``derived_read_mem`` checks the stack against a sequential
replay that keeps a memo too, so it compares memo verdicts with memo
verdicts. This replays the same shape on a bare database and holds
every answer to the evaluators that keep nothing: ``chain_fdb(3)``,
300 rows over a pool of 100 values, 20 derived DELs so that NCs exist
and 10 derived INS so that null-valued chains (NVCs) do, then a seeded
stream in blocks of 100 ops (93 point ``truth_of``, 2 ``extension``, 5
writes: a derived INS, which stores an NVC's nulls, or a base INS /
DEL, which may delete a null-valued fact and so leave the rest of its
chain behind). Each point read must give the walk's
verdict (``reference_truth``), each scan the walk's fold
(``reference_pairs``): both over ``tests/test_chain_walk.py``'s
depth-first walk, which shares no code with the join the engine runs.
The memo starts at the stream's first scan (setup scans once) and from
then on applies the writes at the next read.
"""

from __future__ import annotations

import random

import pytest

from repro.workloads.generator import chain_fdb, random_instance
from tests.test_chain_walk import reference_pairs, reference_truth

ROWS, POOL, DELETES, INSERTS, OPS = 300, 100, 20, 10, 600
BLOCK = ["read"] * 93 + ["scan"] * 2 + ["write"] * 5


def setup(seed: int):
    db = chain_fdb(3)
    random_instance(db, ROWS, seed=seed, value_pool=POOL)
    rng = random.Random(seed)
    pairs = sorted(db.extension("v"))  # the function's first scan
    for x, y in rng.sample(pairs, DELETES):
        db.delete("v", x, y)
    for _ in range(INSERTS):
        pairs.append(random_pair(rng))
        db.insert("v", *pairs[-1])
    return db, pairs, rng


def random_pair(rng: random.Random) -> tuple[str, str]:
    return f"T0_{rng.randrange(POOL)}", f"T3_{rng.randrange(POOL)}"


@pytest.mark.parametrize("seed", (7, 20))
def test_reads_and_scans_equal_the_evaluators_that_keep_nothing(seed):
    db, derivable, rng = setup(seed)
    assert db.ncs and db.nulls.next_index > 1
    derivations = db.derived("v").derivations
    labels = []
    while len(labels) < OPS:
        rng.shuffle(BLOCK)
        labels += BLOCK
    answered = 0
    for done, label in enumerate(labels):
        if label == "read":
            if rng.random() < 0.7:
                x, y = rng.choice(derivable)
            else:
                x, y = random_pair(rng)
            answered += db.memo("v").size > 0
            assert db.truth_of("v", x, y) is reference_truth(
                db, derivations, x, y), (done, x, y)
        elif label == "scan":
            assert db.extension("v") == reference_pairs(
                db, derivations), done
        elif rng.random() < 0.2:
            derivable.append(random_pair(rng))
            db.insert("v", *derivable[-1])
        else:
            name = rng.choice(db.base_names)
            pairs = tuple(db.table(name).pairs())
            if pairs and rng.random() < 0.5:
                db.delete(name, *rng.choice(pairs))
            else:
                k = int(name[1])
                db.insert(name, f"T{k - 1}_{rng.randrange(POOL)}",
                          f"T{k}_{rng.randrange(POOL)}")
    assert answered > OPS // 2  # most reads met a kept memo
