"""E20 machine-speed probe: what the sandbox is doing to us right now.

This sandbox is a few vCPUs of a shared host. The same Python loop
runs at 1.0x, 1.4x or 3x its best time depending on what the
neighbours do, an fsync takes 0.15 to 0.4 ms, and both drift over
minutes, so ten runs of identical code spread 15-35% however long a
run is and whatever statistic summarises it (README, "Sandbox
caveats"). Nothing measured inside one run can average that out.

What does cancel it is a reading of the machine's speed taken right
beside the work: every ~100 ms all clients park at a barrier and one
of them times a fixed piece of interpreter work and (on durable
workloads) a fixed durable append, the two resources a request spends
its time on. A timing is reported as

    measured / slowdown,
    slowdown = (1 - io_share) * cpu_probe / CPU_NOMINAL_S
             +      io_share  * fsync_probe / FSYNC_NOMINAL_S

i.e. in seconds *of this sandbox in its quiet state*. The probe is
benchmark code and runs while the program under test is idle, so no
change to the program can move it; ``io_share`` is a constant of the
workload (the share of a request spent in the durable append, from the
traced layer table), not something fitted per run. On identical code
this takes the run-to-run spread of a write's p50 from ~35% to ~3%.
``bench.machine_slowdown`` reports the factor that was divided out,
so raw wall-clock figures can be had back.
"""

from __future__ import annotations

import os
import statistics
import time
from pathlib import Path
from typing import NamedTuple

# What the two probes take on this sandbox when nothing else runs on
# the host. They only fix the scale of the reported figures.
CPU_NOMINAL_S = 90e-6
FSYNC_NOMINAL_S = 190e-6
REPEATS = 5  # probes per reading; the reading is their median

_clock = time.perf_counter
# Bound now: a traced run patches ``os.fsync`` later, and the probe is
# not the program.
_fsync = os.fsync


def cpu_probe() -> float:
    """Seconds for a fixed piece of interpreter-bound work of the kind
    the program does: build strings and tuples, fill a dict, sort."""
    started = _clock()
    table = {}
    for i in range(300):
        table[f"k{i}"] = (i, str(i))
    sorted(table.items(), key=lambda item: item[1][1])
    return _clock() - started


def fsync_probe(path: Path) -> float:
    """Seconds for one durable append the way ``repro.fdb.storage``
    makes one: open, write a line, flush, fsync, close."""
    started = _clock()
    with open(path, "ab") as handle:
        handle.write(b"x" * 120 + b"\n")
        handle.flush()
        _fsync(handle.fileno())
    return _clock() - started


class Reading(NamedTuple):
    cpu: float
    fsync: float | None  # None when the workload writes no log


class Meter:
    """Takes readings; ``path`` (a scratch file on the log's file
    system) turns the durable-append probe on."""

    def __init__(self, path: Path | None = None) -> None:
        self.path = path

    def read(self) -> Reading:
        cpu = statistics.median(cpu_probe() for _ in range(REPEATS))
        if self.path is None:
            return Reading(cpu, None)
        return Reading(cpu, statistics.median(
            fsync_probe(self.path) for _ in range(REPEATS)))


def slowdown(before: Reading, after: Reading, io_share: float) -> float:
    """How many times slower than its quiet state the machine ran the
    work between two readings, for work that spends ``io_share`` of
    its time in durable appends."""
    cpu = (before.cpu + after.cpu) / 2 / CPU_NOMINAL_S
    if not io_share or before.fsync is None or after.fsync is None:
        return cpu
    disk = (before.fsync + after.fsync) / 2 / FSYNC_NOMINAL_S
    return (1 - io_share) * cpu + io_share * disk
