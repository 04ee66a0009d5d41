"""The unified benchmark runner (``python -m repro.bench``).

The E1–E15 experiment benches under ``benchmarks/`` are plain pytest
modules; this package runs them *without* pytest — discovering the
bench modules, supplying lightweight ``benchmark``/``report``
stand-ins, attaching a metrics snapshot to every run, writing
canonical ``BENCH_<exp>.json`` artifacts at the repo root (plus the
familiar ``benchmarks/results/*.json``/``.txt`` pair), and comparing
each run against the previous one with a regression report.

Pieces:

* :mod:`repro.bench.report` — the structured report every bench
  writes; the ``.txt`` file is a render of the JSON, not a separate
  artifact;
* :mod:`repro.bench.scale` — ``REPRO_BENCH_SCALE`` helpers the heavy
  benches use so ``--smoke`` runs scaled-down workloads;
* :mod:`repro.bench.runner` — discovery and execution;
* :mod:`repro.bench.compare` — the regression comparison (work
  counters are the enforced signal — they are machine-independent;
  timings are reported, and enforced only on request);
* :mod:`repro.bench.__main__` — the CLI.
"""

from __future__ import annotations

from repro.bench.compare import compare_payloads
from repro.bench.report import Report, ReportStore, render_payload_text
from repro.bench.runner import (
    BenchResult,
    FakeBenchmark,
    discover_benches,
    run_bench,
)
from repro.bench.scale import scale_factor, scaled, scaled_sizes

__all__ = [
    "Report",
    "ReportStore",
    "render_payload_text",
    "scale_factor",
    "scaled",
    "scaled_sizes",
    "discover_benches",
    "run_bench",
    "BenchResult",
    "FakeBenchmark",
    "compare_payloads",
]
