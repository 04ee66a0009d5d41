"""Durability: snapshots, write-ahead logging, crash recovery.

Run:  python examples/durability.py

Base functions are "extensionally stored" — so the store had better
survive a crash. This example runs the Section 4.2 update sequence
through a checksummed write-ahead log, simulates a crash mid-write (a
torn final log line), and recovers: the partial information —
ambiguous flags, the negated conjunction, the null-valued chain —
comes back exactly, because update application is deterministic from
the persisted counters. It then flips a byte of an interior record to
show the CRC catching silent corruption (strict vs salvage recovery),
and kills the process at a fault point mid-checkpoint to show the
atomic snapshot-then-truncate ordering at work. docs/DURABILITY.md
has the full contract; `python -m repro.faults` runs the whole crash
matrix.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.errors import PersistenceError
from repro.faults import FAULTS, CrashFault, SimulatedCrash
from repro.fdb import persistence
from repro.fdb.render import render_state
from repro.fdb.wal import LoggedDatabase, checkpoint, recover
from repro.workloads.university import pupil_database, section_42_updates


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="fdb-durability-"))
    snapshot = workdir / "snapshot.json"
    log_path = workdir / "updates.log"

    # Boot: snapshot the initial instance, open the log.
    db = pupil_database()
    persistence.save(db, snapshot)
    logged = LoggedDatabase(db, log_path)
    print(f"working under {workdir}")

    # Run u1..u3 through the WAL.
    updates = section_42_updates()
    for update in updates[:3]:
        logged.execute(update)
        print(f"logged+applied: {update}")

    # Checkpoint: fold the log into a fresh snapshot.
    checkpoint(logged, snapshot)
    print("checkpoint written; log truncated")

    # u4, u5 after the checkpoint...
    for update in updates[3:]:
        logged.execute(update)
        print(f"logged+applied: {update}")

    # ... and then the process dies mid-write of one more update.
    logged.close()  # a dead process holds no descriptor on the log
    with log_path.open("a", encoding="utf-8") as handle:
        handle.write('{"kind": "DEL", "function": "tea')
    print("simulated crash: torn final log line")

    # A new process recovers from snapshot + log.
    report = recover(snapshot, log_path)
    print(report)

    print("\nrecovered state (matches the paper's final u5 table):")
    print(render_state(report.db))

    same = all(
        report.db.table(name).rows() == logged.db.table(name).rows()
        for name in logged.db.base_names
    )
    print(f"\nrecovered state identical to pre-crash state: {same}")

    # -- silent corruption: the CRC catches what parsing cannot ------
    import json

    lines = log_path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[1])  # first entry after the header
    record["entry"]["function"] = "taech"  # bit rot, still valid JSON
    lines[1] = json.dumps(record, sort_keys=True)
    corrupt_path = workdir / "corrupt.log"
    corrupt_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        recover(snapshot, corrupt_path, policy="strict")
    except PersistenceError as exc:
        print(f"\nstrict recovery refuses the flipped byte: {exc}")
    salvaged = recover(snapshot, corrupt_path, policy="salvage")
    print(f"salvage recovery: {salvaged}")

    # -- crash mid-checkpoint: snapshot durable, log untruncated -----
    FAULTS.arm("wal.checkpoint.after-snapshot", CrashFault())
    try:
        checkpoint(logged, snapshot)
    except SimulatedCrash as exc:
        print(f"\n{exc}")
    finally:
        FAULTS.disarm_all()
    report = recover(snapshot, log_path)
    print(f"after the half-finished checkpoint: {report}")
    print("(the already-folded records were skipped by sequence "
          "number, not replayed twice)")


if __name__ == "__main__":
    main()
