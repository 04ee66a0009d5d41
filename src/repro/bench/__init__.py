"""The bench runner (``python -m repro.bench``), the one way E1–E19 run.

The experiment benches under ``benchmarks/`` are plain Python modules
whose ``test_*`` functions take a ``benchmark`` timer and a ``report``;
this package discovers them, runs them, and writes one record per
experiment, ``BENCH_<exp>.json`` at the repo root: the report blocks,
everything the bench attached, the timings and a metrics snapshot.
``benchmarks/results/<exp>.txt`` is a render of that record. Each run
is compared against the committed record with a regression report.

Pieces:

* :mod:`repro.bench.report` — the structured report every bench
  writes; the ``.txt`` file is a render of the record, not a separate
  artifact;
* :mod:`repro.bench.scale` — the scale helpers the heavy benches use
  so ``--smoke`` runs scaled-down workloads;
* :mod:`repro.bench.runner` — discovery and execution;
* :mod:`repro.bench.compare` — the regression comparison (work
  counters are the enforced signal — they are machine-independent;
  timings are reported);
* :mod:`repro.bench.__main__` — the CLI.
"""

from __future__ import annotations

from repro.bench.compare import compare_payloads
from repro.bench.report import Report, render_payload_text
from repro.bench.runner import FakeBenchmark, discover_benches, run_bench
from repro.bench.scale import scaled, scaled_sizes

__all__ = [
    "Report",
    "render_payload_text",
    "scaled",
    "scaled_sizes",
    "discover_benches",
    "run_bench",
    "FakeBenchmark",
    "compare_payloads",
]
