"""The E20 driver's spread gate, checked before the driver does.

    python3 benchmarks/gate_check.py --workload W [--workload W2 ...] \
        --parent-median [W/][METRIC=]M [...] [--seeds 1-10]

The driver refuses a change when, over its runs, the distance between
the quartiles of an end-to-end metric exceeds 25 % of the *parent's*
median for it — an absolute bound, so a large gain on ``ops_per_s``
carries its own noise past it (PR 12 and the first PR 13 learnt that
only at the driver). This runs ``e20_layer_budget/run.py`` once per
seed on the working tree, untraced and each in its own process, and
prints per end-to-end metric the median, the quartiles, their
distance and the headroom left under ``0.25 x M`` — one table per
workload. A bare ``M`` is the parent's median ``ops_per_s``; the
``W/`` part says whose, and may be left out when one workload is
checked. Exit 1 when a run is incorrect or has failed operations, or
a given bound is exceeded, on any workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "e20_layer_budget" / "run.py"
SPREAD_SHARE = 0.25  # of the parent's median; the driver's gate


def seeds_of(text: str) -> list[int]:
    """``"1-10"`` or ``"3,5,20-22"`` as a list of seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def medians_of(items: list[str],
               workloads: list[str]) -> dict[str, dict[str, float]]:
    """``[W/][METRIC=]M`` items as ``{workload: {metric: median}}``."""
    medians: dict[str, dict[str, float]] = {w: {} for w in workloads}
    for item in items:
        workload, _, rest = item.rpartition("/")
        if not workload and len(workloads) == 1:
            workload = workloads[0]
        if workload not in medians:
            raise SystemExit(
                f"--parent-median {item}: say which workload it is of "
                f"({', '.join(workloads)}) as W/{rest}")
        name, _, value = rest.rpartition("=")
        medians[workload][name or "ops_per_s"] = float(value)
    return medians


def run_once(workload: str, seed: int, seconds: float) -> dict:
    """One untraced run; the contract line (last line of stdout)."""
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"seed {seed}: no output "
                         f"(exit {done.returncode})")
    return json.loads(lines[-1])


def check(workload: str, parents: dict[str, float],
          seeds: list[int], seconds: float) -> bool:
    """Run one workload over ``seeds`` and print its table; whether
    every run was good and every given bound held."""
    runs: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    bad = 0
    for seed in seeds:
        result = run_once(workload, seed, seconds)
        ok = result["correct"] and not result["failed"]
        bad += not ok
        shown = []
        for name, metric in result["metrics"].items():
            runs.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
            shown.append(f"{name} {metric['value']:.4g}")
        print(f"seed {seed:>3}  {'ok ' if ok else 'BAD'} "
              f"failed {result['failed']}/{result['attempted']}  "
              + "  ".join(shown), flush=True)

    print(f"\n{workload}: {len(seeds)} runs, {seconds:g} s each")
    print(f"{'metric':<20} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'q3-q1':>9} {'bound':>9} {'headroom':>9}")
    over = 0
    for name, values in runs.items():
        q1, median, q3 = statistics.quantiles(values, n=4,
                                              method="inclusive")
        row = (f"{name + ' [' + units[name] + ']':<20} {median:>10.4g} "
               f"{q1:>10.4g} {q3:>10.4g} {q3 - q1:>9.3g}")
        if name in parents:
            bound = SPREAD_SHARE * parents[name]
            over += q3 - q1 > bound
            row += f" {bound:>9.3g} {bound - (q3 - q1):>9.3g}"
        print(row)
    if bad:
        print(f"{bad} run(s) incorrect or with failed operations")
    if over:
        print(f"{over} metric(s) spread wider than "
              f"{SPREAD_SHARE:.0%} of the parent's median")
    print(flush=True)
    return not (bad or over)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--parent-median", nargs="+", required=True,
                        metavar="[W/][METRIC=]M")
    parser.add_argument("--seeds", type=seeds_of, default=seeds_of("1-10"))
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    parents = medians_of(args.parent_median, args.workload)
    # Every workload runs, so one refusal does not hide the next.
    held = [check(workload, parents[workload], args.seeds, args.seconds)
            for workload in args.workload]
    return 0 if all(held) else 1


if __name__ == "__main__":
    sys.exit(main())
