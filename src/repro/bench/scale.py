"""Workload scaling for smoke runs.

The heavy benches (E4's schema sweep, E10's update stream, E15's
query-scaling grid, E16–E19's traffic) read their sizes through these
helpers. The runner sets :data:`factor` before it imports a bench
module (several build their workloads at import): 1.0 for a full run,
0.25 under ``python -m repro.bench --smoke``.

Scale 1.0 (the default) must be the identity: the helpers return the
requested sizes untouched, so a full run is exactly the historical
workload.
"""

from __future__ import annotations

__all__ = ["factor", "scaled", "scaled_sizes"]

factor = 1.0
"""The current workload scale, set by :func:`repro.bench.__main__.main`."""


def scaled(n: int, *, minimum: int = 1) -> int:
    """``n`` scaled by the current factor, never below ``minimum``
    (a 0-row table benchmarks nothing)."""
    return max(minimum, round(n * factor))


def scaled_sizes(sizes: tuple[int, ...], *,
                 minimum: int = 2) -> tuple[int, ...]:
    """A size series scaled element-wise, deduplicated, order kept.

    Series feeding log-log exponent fits (E4) need several *distinct*
    points, so after scaling, collapsed duplicates are dropped rather
    than kept as flat repeats that would skew the fit.
    """
    out: list[int] = []
    for size in sizes:
        value = scaled(size, minimum=minimum)
        if value not in out:
            out.append(value)
    return tuple(out)
