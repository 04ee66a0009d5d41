"""CLI of the bench runner.

Usage::

    python -m repro.bench                 # full E1–E19 suite
    python -m repro.bench e4 e10          # a named subset
    python -m repro.bench --smoke         # scaled-down E4/E10/E16/E18/E19 (CI)
    python -m repro.bench --list          # what exists

Each selected bench runs through :func:`repro.bench.runner.run_bench`
and its record is compared against the committed
``BENCH_<exp>.json`` (counter drift enforced, timing drift reported).
The record then replaces ``BENCH_<exp>.json`` at the repo root, and
``benchmarks/results/<exp>.txt`` is rewritten as its render — unless
the committed record was taken at another scale: that comparison
reads ``scale-mismatch`` and both files are left alone (delete the
record to change its scale).

Exit status is non-zero on bench failures or counter regressions.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.bench import scale
from repro.bench.compare import compare_payloads, counters
from repro.bench.report import render_payload_text
from repro.bench.runner import discover_benches, run_bench

SMOKE_EXPS = ("e4", "e10", "e16", "e18", "e19")
SMOKE_SCALE = 0.25


def _repo_root() -> Path:
    here = Path.cwd()
    if (here / "benchmarks").is_dir():
        return here
    # src/repro/bench/__main__.py → repo root three levels above src/.
    candidate = Path(__file__).resolve().parents[3]
    if (candidate / "benchmarks").is_dir():
        return candidate
    return here


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run the E1-E19 benches with metric snapshots and "
                    "a regression comparison.",
    )
    parser.add_argument("exps", nargs="*",
                        help="experiment keys (e1..e19); default all")
    parser.add_argument("--smoke", action="store_true",
                        help=f"scaled-down {'/'.join(SMOKE_EXPS)} at "
                             f"scale {SMOKE_SCALE} (CI smoke job)")
    parser.add_argument("--list", action="store_true",
                        help="list discovered benches and exit")
    args = parser.parse_args(argv)

    root = _repo_root()
    benches = discover_benches(root / "benchmarks")
    if args.list:
        for key, path in benches.items():
            print(f"{key:>4}  {path.name}")
        return 0

    selected = list(args.exps) or (
        list(SMOKE_EXPS) if args.smoke else list(benches)
    )
    unknown = [key for key in selected if key not in benches]
    if unknown:
        parser.error(f"unknown experiments: {', '.join(unknown)} "
                     f"(have: {', '.join(benches)})")

    scale.factor = SMOKE_SCALE if args.smoke else 1.0
    results = root / "benchmarks" / "results"
    failed = False
    for key in selected:
        path = benches[key]
        print(f"[{key}] running {path.name} (scale {scale.factor}) ...")
        record = run_bench(path)
        bench_path = root / f"BENCH_{record['exp_id']}.json"
        previous = None
        if bench_path.exists():
            try:
                previous = json.loads(bench_path.read_text())
            except ValueError:
                previous = None
        comparison = compare_payloads(record, previous)
        status = comparison["status"]
        if status == "scale-mismatch":
            status += (f" (record at scale {previous.get('scale')}, "
                       "left as it is)")
        else:
            bench_path.write_text(
                json.dumps(record, indent=2, sort_keys=True, default=str)
                + "\n",
                encoding="utf-8",
            )
            results.mkdir(exist_ok=True)
            (results / f"{record['exp_id']}.txt").write_text(
                render_payload_text(record), encoding="utf-8")
        for failure in record["failures"]:
            failed = True
            print(f"[{key}] FAIL {failure['test']}\n{failure['error']}",
                  file=sys.stderr)
        print(f"[{key}] {record['tests_run']} tests, "
              f"{len(counters(record))} counters, "
              f"comparison: {status} -> {bench_path.name}")
        for entry in comparison["counter_regressions"]:
            failed = True
            print(f"[{key}]   counter {entry['counter']}: "
                  f"{entry['previous']} -> {entry['current']} "
                  f"({entry['growth']:+.1%})", file=sys.stderr)
        for entry in comparison["timing_regressions"]:
            print(f"[{key}]   (timing, informational) "
                  f"{entry['test']}: {entry['growth']:+.1%}")

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
