"""What one uncontended request costs the service over its engine call.

    python3 benchmarks/request_cost.py             # the cost table
    python3 benchmarks/request_cost.py --sustain 30

The table: microseconds per in-memory base write (an INS/DEL pair on
``teach``, halved) and per base-fact ``truth_of``, through one
:class:`~repro.service.DatabaseService` lane and bare on its
:class:`~repro.fdb.database.FunctionalDatabase`, OBS off, no deadline;
best of ``--repeat`` rounds of ``--ops`` operations.

``--sustain S``: one client writing through one lane for S seconds,
printing per second the writes and the share of that second spent in
:meth:`~repro.obs.slo.SLOMonitor.evaluate`, then the last five
seconds' rate against seconds 2-5, and the process's peak RSS. A
request's bookkeeping that grows with the lane's age shows as a
falling rate and a rising share.

Run with ``PYTHONPATH=src`` from the repository root.
"""

from __future__ import annotations

import argparse
import resource
import time

from repro.fdb.updates import Update, apply_entry
from repro.obs.slo import SLOMonitor
from repro.service import DatabaseService
from repro.workloads.university import pupil_database

INSERT = Update.ins("teach", "zed", "art")
DELETE = Update.delete("teach", "zed", "art")


def best_us(fn, ops: int, repeat: int) -> float:
    """Best per-operation microseconds of ``fn(ops)`` over ``repeat``
    rounds."""
    rounds = []
    for _ in range(repeat):
        started = time.perf_counter()
        fn(ops)
        rounds.append(time.perf_counter() - started)
    return min(rounds) / ops * 1e6


def cost_table(ops: int, repeat: int) -> None:
    db = pupil_database()
    lane = DatabaseService(db)

    def service_writes(n):
        for _ in range(n // 2):
            lane.execute(INSERT)
            lane.execute(DELETE)

    def engine_writes(n):
        for _ in range(n // 2):
            apply_entry(db, INSERT)
            apply_entry(db, DELETE)

    def service_reads(n):
        for _ in range(n):
            lane.truth_of("teach", "zed", "art")

    def engine_reads(n):
        for _ in range(n):
            db.truth_of("teach", "zed", "art")

    write = (best_us(service_writes, ops, repeat),
             best_us(engine_writes, ops, repeat))
    lane.execute(INSERT)
    read = (best_us(service_reads, ops, repeat),
            best_us(engine_reads, ops, repeat))
    print(f"{'request':10} {'service us':>11} {'engine us':>10} "
          f"{'service - engine':>17}")
    for name, (service, engine) in (("write", write), ("truth_of", read)):
        print(f"{name:10} {service:11.2f} {engine:10.2f} "
              f"{service - engine:17.2f}")
    lane.close()


def sustain(seconds: int) -> None:
    spent = [0.0]
    evaluate = SLOMonitor.evaluate

    def timed(self, now=None):
        started = time.perf_counter()
        try:
            return evaluate(self, now)
        finally:
            spent[0] += time.perf_counter() - started

    SLOMonitor.evaluate = timed
    lane = DatabaseService(pupil_database())
    rows = []
    origin = time.perf_counter()
    try:
        for second in range(1, seconds + 1):
            writes, spent[0] = 0, 0.0
            while time.perf_counter() < origin + second:
                lane.execute(INSERT)
                lane.execute(DELETE)
                writes += 2
            rows.append((writes, spent[0]))
    finally:
        SLOMonitor.evaluate = evaluate
        lane.close()
    for second, (writes, share) in enumerate(rows, 1):
        print(f"{second:4d}  {writes:7d} writes/s  evaluate "
              f"{share * 100:5.1f} %")
    early = sum(w for w, _ in rows[1:5]) / len(rows[1:5])
    late = sum(w for w, _ in rows[-5:]) / len(rows[-5:])
    print(f"seconds 2-5 {early:.0f}/s, last 5 {late:.0f}/s "
          f"({late / early:.0%}); evaluate at most "
          f"{max(s for _, s in rows) * 100:.1f} % of a second")
    # ru_maxrss is in kilobytes on Linux.
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS {peak:.1f} MB")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--ops", type=int, default=2000)
    parser.add_argument("--repeat", type=int, default=25)
    parser.add_argument("--sustain", type=int, metavar="SECONDS",
                        help="run the sustained write loop instead")
    args = parser.parse_args()
    if args.sustain:
        if args.sustain < 6:
            parser.error("--sustain needs at least 6 seconds")
        sustain(args.sustain)
    else:
        cost_table(args.ops, args.repeat)


if __name__ == "__main__":
    main()
