"""E4 — Lemma 3: Algorithm AMS runs in O(n^2).

Paper artifact: a complexity claim, not a table — we turn it into a
measured series. AMS runs on tree+chord schemas of doubling size (the
chords are the derived functions; declared first, so every edge gets
real search work). The report prints time per size and the growth
exponent fitted on the log-log series; the test asserts the exponent
stays below 3 — i.e. the measured curve is compatible with the paper's
quadratic bound (the constant-factor BFS makes it roughly linear in
E^2/n on trees).
"""

from __future__ import annotations

import math
import time

from repro.bench.scale import scaled, scaled_sizes
from repro.core.minimal_schema import minimal_schema_ams
from repro.core.schema import Schema
from repro.workloads.generator import tree_schema_with_derived

# Scaled under `python -m repro.bench --smoke`; identity at scale 1.
# The log-log exponent fit needs several distinct sizes, which
# scaled_sizes guarantees by deduplicating after scaling.
SIZES = scaled_sizes((16, 32, 64, 128, 256), minimum=8)
_DERIVED_FRACTION = 4  # one chord per four types


def schema_for(n_types: int) -> Schema:
    schema = tree_schema_with_derived(
        n_types, n_types // _DERIVED_FRACTION, seed=7, max_path=6
    )
    chords = [f for f in schema if f.name.startswith("d")]
    tree = [f for f in schema if f.name.startswith("f")]
    return Schema(chords + tree)


def _time_once(schema: Schema) -> float:
    start = time.perf_counter()
    minimal_schema_ams(schema)
    return time.perf_counter() - start


def test_ams_scaling_is_subcubic(report):
    timings: list[tuple[int, int, float]] = []
    for n_types in SIZES:
        schema = schema_for(n_types)
        best = min(_time_once(schema) for _ in range(3))
        timings.append((n_types, len(schema), best))

    # Fit t = c * n^k on the last few points (least squares in log-log).
    xs = [math.log(n_functions) for _, n_functions, _ in timings[1:]]
    ys = [math.log(seconds) for _, _, seconds in timings[1:]]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    exponent = (
        sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
        / sum((x - mean_x) ** 2 for x in xs)
    )

    report.line("E4 -- AMS scaling (Lemma 3: O(n^2))")
    report.line()
    report.table(
        ("object types", "functions n", "AMS time (ms)"),
        [(t, n, f"{seconds * 1e3:.2f}") for t, n, seconds in timings],
    )
    report.line()
    report.line(f"fitted growth exponent: n^{exponent:.2f} "
                "(paper's bound: n^2)")
    assert exponent < 3.0, f"super-cubic growth: n^{exponent:.2f}"


def test_bench_ams_midsize(benchmark):
    n_types = scaled(64, minimum=16)
    schema = schema_for(n_types)
    result = benchmark(minimal_schema_ams, schema)
    assert len(result.derived) == n_types // _DERIVED_FRACTION
