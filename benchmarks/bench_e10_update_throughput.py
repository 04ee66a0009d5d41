"""E10 — cost of the four update procedures.

Paper artifact: the Section 4 data structures are designed so each
update touches only the facts involved (the NCL makes dismantle-NC
local; the NVC is one row per derivation step). The bench times each
procedure on a populated three-hop chain instance and a mixed stream,
giving the implementation-level numbers the paper never measured.
"""

from __future__ import annotations

import itertools

from repro.bench.scale import scaled
from repro.fdb.persistence import dumps, loads
from repro.fdb.updates import apply_update
from repro.workloads.generator import (
    WorkloadConfig,
    chain_fdb,
    random_instance,
    random_updates,
)

K = 3
# Scaled under `python -m repro.bench --smoke`; identity at scale 1.
ROWS = scaled(120, minimum=20)
STREAM = scaled(200, minimum=40)


def prepared_snapshot() -> str:
    db = chain_fdb(K)
    random_instance(db, ROWS, seed=42, value_pool=60)
    return dumps(db)


SNAPSHOT = prepared_snapshot()


def test_bench_base_insert(benchmark):
    db = loads(SNAPSHOT)
    counter = itertools.count()

    def run():
        i = next(counter)
        db.insert("f1", f"T0_fresh{i}", f"T1_fresh{i}")

    benchmark(run)


def test_bench_base_delete(benchmark):
    db = loads(SNAPSHOT)
    pairs = itertools.cycle(list(db.table("f1").pairs()))

    def run():
        db.delete("f1", *next(pairs))

    benchmark(run)


def test_bench_derived_insert(benchmark):
    db = loads(SNAPSHOT)
    counter = itertools.count()

    def run():
        i = next(counter)
        db.insert("v", f"T0_new{i}", f"T{K}_new{i}")

    benchmark(run)


def test_bench_derived_delete(benchmark):
    from repro.fdb.evaluate import derived_extension

    db = loads(SNAPSHOT)
    targets = itertools.cycle(list(derived_extension(db, "v")))

    def run():
        db.delete("v", *next(targets))

    benchmark(run)


def test_bench_mixed_stream(benchmark, report):
    db = loads(SNAPSHOT)
    stream = random_updates(
        db, STREAM, WorkloadConfig(seed=7, value_pool=60)
    )

    def run():
        working = loads(SNAPSHOT)
        for update in stream:
            apply_update(working, update)
        return working

    final = benchmark(run)
    counts = final.counts()
    report.line("E10 -- update throughput (3-hop chain, "
                f"{ROWS} rows/table, {STREAM}-update mixed stream)")
    report.line()
    report.line(f"final state: {counts['stored_facts']} stored facts, "
                f"{counts['ambiguous_facts']} ambiguous, "
                f"{counts['ncs']} NCs, "
                f"{counts['next_null_index'] - 1} nulls issued")
    report.line("per-operation timings: see `timings` in this record "
                "(base_insert / base_delete / derived_insert / "
                "derived_delete).")
    # Metric snapshot for the JSON artifact: replay the same stream once
    # *outside* the timed loop with instrumentation on — the timed runs
    # above stay on the disabled fast path.
    from repro.obs.export import snapshot
    from repro.obs.hooks import OBS

    with OBS.collecting():
        working = loads(SNAPSHOT)
        for update in stream:
            apply_update(working, update)
        report.attach(snapshot())
