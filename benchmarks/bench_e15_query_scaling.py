"""E15 — derived-query evaluation cost vs chain length and instance
size.

The paper stores derived functions intensionally: every query pays for
chain enumeration at read time (the flip side of the side-effect-free
writes). This bench measures that read cost — full derived extension
and single-fact truth valuation — as the derivation lengthens and the
instance grows, and checks the join indexes keep single-fact lookups
far cheaper than full extensions.

The full extension is the join from scratch (``evaluate_derivations``:
what a first scan, an image and a ``Query`` run). The ``maintained``
series is the mean scan over ``ROUNDS`` rounds of one base write and
one scan on a warm database: a function's partitions are kept from its
second scan on, and a scan joins again only those the write reached and
moves the counts of the keys they changed (:mod:`repro.fdb.memo`). On a
dense instance one write reaches most partitions, and the scan then
costs more than the join. It is checked against the join from scratch,
as a mapping.
"""

from __future__ import annotations

import time

from repro.bench.scale import scaled, scaled_sizes
from repro.fdb.evaluate import (derived_extension, evaluate_derivations,
                                truth_of)
from repro.workloads.generator import chain_fdb, random_instance

CHAIN_LENGTHS = (2, 3, 4)
# Scaled under `python -m repro.bench --smoke`; identity at scale 1.
ROW_COUNTS = scaled_sizes((50, 100, 200), minimum=15)
ROUNDS = 3  # write-then-scan rounds the maintained series averages


def build(k: int, rows: int):
    db = chain_fdb(k)
    random_instance(db, rows, seed=13, value_pool=max(8, rows // 4))
    return db


def _measure(db, k: int) -> tuple[float, float, float, int]:
    derivations = db.derived("v").derivations
    start = time.perf_counter()
    extension = evaluate_derivations(db, derivations)
    extension_time = time.perf_counter() - start

    derived_extension(db, "v")  # a first scan keeps nothing
    # The second builds the memo.
    assert derived_extension(db, "v") == extension
    last = db.table(f"f{k}")
    xs = list(dict.fromkeys(fact.x for fact in last.facts()))[:ROUNDS]
    maintained_time = 0.0
    for i, x in enumerate(xs):
        db.insert(f"f{k}", x, f"T{k}_maintained{i}")  # one base write
        start = time.perf_counter()
        maintained = derived_extension(db, "v")
        maintained_time += time.perf_counter() - start
        assert maintained == evaluate_derivations(db, derivations)
    maintained_time /= len(xs)

    probes = list(extension)[:20] or [("zz", "zz")]
    start = time.perf_counter()
    for x, y in probes:
        truth_of(db, "v", x, y)
    point_time = (time.perf_counter() - start) / len(probes)
    return extension_time, maintained_time, point_time, len(extension)


def test_query_scaling(report):
    rows_table = []
    for k in CHAIN_LENGTHS:
        for rows in ROW_COUNTS:
            db = build(k, rows)
            extension_time, maintained_time, point_time, size = _measure(
                db, k)
            rows_table.append((
                k, rows, size,
                f"{extension_time * 1e3:.2f}",
                f"{maintained_time * 1e3:.2f}",
                f"{point_time * 1e6:.1f}",
            ))
            # Point lookups must beat the full extension comfortably.
            assert point_time < extension_time

    report.line("E15 -- derived-query evaluation cost")
    report.line()
    report.table(
        ("chain k", "rows/table", "|extension|",
         "full extension (ms)", "maintained (ms)", "truth_of probe (us)"),
        rows_table,
    )
    report.line()
    report.line("shape: extension cost grows with chain length and "
                "join fan-out; indexed single-fact probes stay orders "
                "of magnitude cheaper — intensional storage is viable "
                "for point queries. After one base write a warm "
                "extension joins again only the partitions the write "
                "reached and moves the counts of the keys they changed: "
                "under the join where a write reaches few partitions "
                "(k = 2, and the 200-row instances at scale 1), above "
                "it on dense instances, where one write reaches a third "
                "of the partitions or more and those hold most chains.")


def test_bench_extension_k3(benchmark):
    """The join from scratch, not the memo: every round joins."""
    db = build(3, scaled(100, minimum=25))
    extension = benchmark(evaluate_derivations, db,
                          db.derived("v").derivations)
    assert extension


def test_bench_truth_probe_k3(benchmark):
    db = build(3, scaled(100, minimum=25))
    extension = list(derived_extension(db, "v"))
    probe = extension[0]
    verdict = benchmark(truth_of, db, "v", *probe)
    from repro.fdb.logic import Truth

    assert verdict is Truth.TRUE
