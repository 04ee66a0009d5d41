"""Watching update propagation: tracing and metrics.

Run:  python examples/observability_demo.py

Section 4.2 walks the pupil database through five updates (u1..u5) and
shows the state after each. The *states* tell you what changed; the
instrumentation in :mod:`repro.obs` tells you *how* — which chains were
enumerated, which negated conjunctions were created or dismantled,
which null-valued chains materialized, and how long each span took.

1. ``OBS.enable(tracing=True)`` turns on metrics + span trees;
2. each Section 4.2 update prints its propagation trace — the span for
   the update with one event per NC/NVC and base mutation inside it;
3. ``db.stats()`` summarizes the run: instance counts plus the runtime
   counters and timings.
"""

from __future__ import annotations

from repro.fdb.updates import apply_update
from repro.obs import OBS, render_stats
from repro.workloads.university import pupil_database, section_42_updates


def heading(text: str) -> None:
    print(f"\n=== {text} ===")


def traced_section_42() -> None:
    db = pupil_database()
    OBS.enable(tracing=True)
    for index, update in enumerate(section_42_updates(), start=1):
        heading(f"u{index}: {update}")
        apply_update(db, update)
        trace = OBS.tracer.last_trace
        assert trace is not None
        print(trace.render())

    heading("stats after u1..u5")
    print(render_stats(db.stats()))


def main() -> None:
    print(__doc__)
    try:
        traced_section_42()
    finally:
        # Leave the process-wide context as we found it for any caller
        # embedding this demo (the test suite runs every example).
        OBS.disable()
        OBS.reset()


if __name__ == "__main__":
    main()
