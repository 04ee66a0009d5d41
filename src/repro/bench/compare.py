"""Regression comparison between bench runs.

Timing comparisons across machines are noise; work-counter comparisons
are not. The counters the runtime already maintains — chains
enumerated, NCs created, WAL appends — are deterministic functions of
(code, workload, scale), so a counter that grew 30% between two runs
of the same workload is a real algorithmic regression, reproducible
anywhere. The comparison therefore *enforces* counter drift and merely
*reports* timing drift (opt in with ``enforce_timings`` where the
hardware is controlled).

Small counters are exempt: a 1 → 2 jump is a 100% "regression" of no
consequence, so counters need ``min_count`` observations before they
can fail a run. Both payloads carry their scale, and runs at different
scales refuse to compare — a smoke run is not a baseline for a full
run.
"""

from __future__ import annotations

__all__ = ["VOLATILE_COUNTER_PREFIXES", "compare_payloads"]

_MIN_COUNT = 20

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


def _ratio(current: float, previous: float) -> float:
    """Relative growth of ``current`` over ``previous`` (0.0 = equal,
    0.25 = 25% worse)."""
    if previous <= 0:
        return 0.0 if current <= 0 else float("inf")
    return current / previous - 1.0


def compare_payloads(current: dict, previous: dict | None, *,
                     threshold: float = 0.25,
                     enforce_timings: bool = False,
                     min_count: int = _MIN_COUNT) -> dict:
    """Compare a run payload against its predecessor.

    Both payloads are ``BENCH_<exp>.json`` shapes: ``counters`` (flat
    name → int), ``timings`` (test → {min_seconds, ...}), ``scale``.
    Returns a verdict dict with ``status`` of ``"ok"``,
    ``"regression"``, or ``"no-baseline"``/``"scale-mismatch"`` when
    comparison is impossible.
    """
    if previous is None:
        return {"status": "no-baseline", "threshold": threshold,
                "counter_regressions": [], "timing_regressions": []}
    if current.get("scale") != previous.get("scale"):
        return {
            "status": "scale-mismatch",
            "threshold": threshold,
            "note": (f"current scale {current.get('scale')} vs baseline "
                     f"{previous.get('scale')} — not comparable"),
            "counter_regressions": [],
            "timing_regressions": [],
        }
    counter_regressions: list[dict] = []
    previous_counters = previous.get("counters", {})
    for name, value in sorted(current.get("counters", {}).items()):
        if _volatile(name):
            continue
        before = previous_counters.get(name)
        if before is None or max(value, before) < min_count:
            continue
        growth = _ratio(value, before)
        if growth > threshold:
            counter_regressions.append({
                "counter": name,
                "previous": before,
                "current": value,
                "growth": round(growth, 4),
            })
    timing_regressions: list[dict] = []
    previous_timings = previous.get("timings", {})
    for test, stats in sorted(current.get("timings", {}).items()):
        before = previous_timings.get(test)
        if not before:
            continue
        growth = _ratio(stats.get("min_seconds", 0.0),
                        before.get("min_seconds", 0.0))
        if growth > threshold:
            timing_regressions.append({
                "test": test,
                "previous_min_seconds": before.get("min_seconds"),
                "current_min_seconds": stats.get("min_seconds"),
                "growth": round(growth, 4),
            })
    failed = bool(counter_regressions
                  or (enforce_timings and timing_regressions))
    return {
        "status": "regression" if failed else "ok",
        "threshold": threshold,
        "enforce_timings": enforce_timings,
        "counter_regressions": counter_regressions,
        "timing_regressions": timing_regressions,
    }
