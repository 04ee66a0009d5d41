"""CLI of the unified bench runner.

Usage::

    python -m repro.bench                 # full E1–E19 suite
    python -m repro.bench e4 e10          # a named subset
    python -m repro.bench --smoke         # scaled-down E4/E10/E15/E16/E18/E19 (CI)
    python -m repro.bench --list          # what exists

Each selected bench runs through :func:`repro.bench.runner.run_bench`,
gets a metrics snapshot attached, is compared against the
previous run's committed ``BENCH_<exp>.json`` (counter drift enforced
at ``--fail-threshold``, timing drift reported), and rewrites the
canonical ``BENCH_<exp>.json`` at the repo root plus the
``benchmarks/results/<exp>.json``/``.txt`` pair. Every invocation also
round-trips a Section-4.2 propagation trace through the structured
event log (JSONL → span tree → DOT) as a pipeline self-check.

Exit status is non-zero on bench failures or enforced regressions.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from repro.bench.compare import compare_payloads
from repro.bench.report import ReportStore
from repro.bench.runner import discover_benches, run_bench
from repro.bench.scale import ENV_VAR, scale_factor

SMOKE_EXPS = ("e4", "e10", "e15", "e16", "e18", "e19")
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
    parser.add_argument("--scale", type=float, default=None,
                        help="workload scale factor (default 1.0, or "
                             f"{SMOKE_SCALE} under --smoke)")
    parser.add_argument("--fail-threshold", type=float, default=0.25,
                        help="relative counter growth that fails the "
                             "run (default 0.25)")
    parser.add_argument("--enforce-timings", action="store_true",
                        help="also fail on timing growth past the "
                             "threshold (noisy off controlled hardware)")
    parser.add_argument("--rounds", type=int, default=3,
                        help="timed rounds per benchmark call")
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

    scale = args.scale if args.scale is not None else (
        SMOKE_SCALE if args.smoke else 1.0
    )
    os.environ[ENV_VAR] = str(scale)

    store = ReportStore(root / "benchmarks" / "results")
    failed = False
    for key in selected:
        path = benches[key]
        exp_id = path.stem.removeprefix("bench_")
        print(f"[{key}] running {path.name} (scale {scale_factor()}) ...")
        result = run_bench(path, store=store, rounds=args.rounds)
        bench_path = root / f"BENCH_{exp_id}.json"
        previous = None
        if bench_path.exists():
            try:
                previous = json.loads(bench_path.read_text())
            except ValueError:
                previous = None
        payload = {
            "exp_id": exp_id,
            "exp": key,
            "scale": scale,
            "rounds": args.rounds,
            "tests_run": result.tests_run,
            "timings": result.timings,
            "counters": result.counters(),
            "metrics": result.metrics,
            "failures": result.failures,
        }
        comparison = compare_payloads(
            payload, previous, threshold=args.fail_threshold,
            enforce_timings=args.enforce_timings,
        )
        payload["comparison"] = comparison
        bench_path.write_text(
            json.dumps(payload, indent=2, sort_keys=True, default=str)
            + "\n",
            encoding="utf-8",
        )
        for failure in result.failures:
            failed = True
            print(f"[{key}] FAIL {failure['test']}\n{failure['error']}",
                  file=sys.stderr)
        status = comparison["status"]
        print(f"[{key}] {result.tests_run} tests, "
              f"{len(result.counters())} counters, "
              f"comparison: {status} -> {bench_path.name}")
        if status == "regression":
            failed = True
            for entry in comparison["counter_regressions"]:
                print(f"[{key}]   counter {entry['counter']}: "
                      f"{entry['previous']} -> {entry['current']} "
                      f"(+{entry['growth'] * 100:.1f}%)",
                      file=sys.stderr)
            if comparison["enforce_timings"]:
                for entry in comparison["timing_regressions"]:
                    print(f"[{key}]   timing {entry['test']}: "
                          f"+{entry['growth'] * 100:.1f}%",
                          file=sys.stderr)
        elif comparison.get("timing_regressions"):
            for entry in comparison["timing_regressions"]:
                print(f"[{key}]   (timing, informational) "
                      f"{entry['test']}: +{entry['growth'] * 100:.1f}%")

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
