"""Regression comparison between bench runs.

Timing comparisons across machines are noise; work-counter comparisons
are not. The counters the runtime already maintains — chains
enumerated, NCs created, WAL appends — are deterministic functions of
(code, workload, scale), so a counter that grew 30% between two runs
of the same workload is a real algorithmic regression, reproducible
anywhere. The comparison therefore *enforces* counter drift and merely
*reports* timing drift.

Small counters are exempt: a 1 → 2 jump is a 100% "regression" of no
consequence, so counters need ``MIN_COUNT`` observations before they
can fail a run. A counter the baseline holds at ``MIN_COUNT`` or more
and the run no longer reports has vanished: its instrument stopped
counting, which fails the run too. Both records carry their scale,
and runs at different scales refuse to compare — a smoke run is not a
baseline for a full run.
"""

from __future__ import annotations

__all__ = ["VOLATILE_COUNTER_PREFIXES", "compare_payloads", "counters"]

THRESHOLD = 0.25
MIN_COUNT = 20

# Counter families that are timing-shaped despite living in the
# counter namespace — latency instruments keyed per replica and lag
# samples. Their values are functions of scheduling and wall clock,
# not of (code, workload, scale), so drift in them is noise and they
# are excluded from enforcement. Matched by prefix against the flattened counter name.
VOLATILE_COUNTER_PREFIXES = (
    "replication.lag.",
    "replication.pipeline.",
    "replication.ship.",
    "replication.commit.",
)


def _volatile(name: str) -> bool:
    return name.startswith(VOLATILE_COUNTER_PREFIXES)


def counters(record: dict) -> dict[str, int]:
    """The work counters the comparison keys on: the non-zero counters
    of the record's metrics snapshot."""
    return {name: value
            for name, value in record.get("metrics", {})
            .get("counters", {}).items()
            if value}


def _ratio(current: float, previous: float) -> float:
    """Relative growth of ``current`` over ``previous`` (0.0 = equal,
    0.25 = 25% worse)."""
    if previous <= 0:
        return 0.0 if current <= 0 else float("inf")
    return current / previous - 1.0


def compare_payloads(current: dict, previous: dict | None) -> dict:
    """Compare a run's record against its predecessor.

    Both are ``BENCH_<exp>.json`` shapes: ``metrics`` (a snapshot whose
    ``counters`` map name → int), ``timings`` (test →
    {min_seconds, ...}), ``scale``. Returns a verdict dict with
    ``status`` of ``"ok"``, ``"regression"``, or
    ``"no-baseline"``/``"scale-mismatch"`` when comparison is
    impossible.
    """
    verdict = {"counter_regressions": [], "timing_regressions": []}
    if previous is None:
        return {"status": "no-baseline", **verdict}
    if current.get("scale") != previous.get("scale"):
        return {"status": "scale-mismatch", **verdict}
    now = counters(current)
    for name, before in sorted(counters(previous).items()):
        value = now.get(name, 0)
        if _volatile(name) or max(value, before) < MIN_COUNT:
            continue
        growth = _ratio(value, before)
        if growth > THRESHOLD or not value:
            verdict["counter_regressions"].append({
                "counter": name,
                "previous": before,
                "current": value,
                "growth": round(growth, 4),
            })
    previous_timings = previous.get("timings", {})
    for test, stats in sorted(current.get("timings", {}).items()):
        before = previous_timings.get(test)
        if not before:
            continue
        growth = _ratio(stats.get("min_seconds", 0.0),
                        before.get("min_seconds", 0.0))
        if growth > THRESHOLD:
            verdict["timing_regressions"].append({
                "test": test,
                "previous_min_seconds": before.get("min_seconds"),
                "current_min_seconds": stats.get("min_seconds"),
                "growth": round(growth, 4),
            })
    failed = bool(verdict["counter_regressions"])
    return {"status": "regression" if failed else "ok", **verdict}
