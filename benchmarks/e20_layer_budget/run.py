"""E20 layer budget — the repo's benchmark.

    python3 benchmarks/e20_layer_budget/run.py \
        [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] \
        [--out FILE] [--quick]
    python3 benchmarks/e20_layer_budget/run.py --compare A.json B.json
    python3 benchmarks/e20_layer_budget/run.py --check-repeat

With ``--workload`` it runs that one workload in this process and its
last output line is the JSON object the driver reads: the end-to-end
metrics every workload reports (``--trace 0``) or the per-layer
metrics of the traced round (``--trace 1``). Without it, every
workload runs in a fresh subprocess of its own and the summary (all
metrics by name with units, ending ``"claim": null``) goes to
``--out``. See README.md for what each number means.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()  # as close to process start as we get

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parents[1] / "src")]

DEFAULT_SEED = 20
DEFAULT_SECONDS = 10.0
QUICK_SECONDS = 0.25


# -- one workload, in this process ------------------------------------------


def run_workload(name: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    """All rounds of one workload; returns its entry of the summary."""
    import harness
    import machine
    import metrics
    import workloads
    from repro.obs.hooks import OBS

    OBS.disable()  # end-to-end numbers never include telemetry
    meter = machine.Meter()
    now = meter.read()
    imports = [(time.perf_counter() - _STARTED)
               / machine.slowdown(now, now, 0.0)]
    workload = workloads.WORKLOADS[name]
    episodes = workloads.plan(workload, seed, seconds)
    oracles = [workloads.Oracle(workload, e) for e in episodes]
    workdir = HERE / ".work" / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)

    entry = {"why": workload.why, "seed": seed, "seconds": seconds,
             "clients": workload.clients,
             "ops_per_round": sum(len(s) for e in episodes
                                  for s in e.streams),
             "stream_digest": workloads.stream_digest(episodes),
             "correct": True, "errors": []}
    try:
        rounds = []
        # A traced run keeps two plain rounds, to compare its traced
        # one with; the end-to-end figures come from untraced runs.
        for r in range(2 if trace else workload.rounds):
            rounds.append(harness.run_round(workload, episodes, oracles,
                                            workdir / f"round-{r}"))
            if r:  # one import timing per round; the first is our own
                imports.append(time_imports(meter))
        peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                       / 1024)
        entry["end_to_end"] = end_to_end(harness, metrics, name, rounds,
                                         imports, peak_rss_mb)
        entry["attempted"] = sum(r.attempted for r in rounds)
        entry["failed"] = sum(r.failed for r in rounds)
        entry["errors"] = [e for r in rounds for e in r.errors][:5]
        if trace:
            entry["per_layer"], entry["layer_self_s"] = traced_round(
                harness, workload, episodes, oracles, workdir, rounds,
            )
    except workloads.OracleError as exc:
        entry["correct"] = False
        entry["errors"].append(str(exc))
        entry.setdefault("attempted", 1)
        entry.setdefault("failed", 0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if entry["failed"]:
        entry["correct"] = False
    return entry


def time_imports(meter) -> float:
    """Quiet-machine seconds a fresh interpreter takes from the top of
    this file to having the benchmark and the ``repro`` stack
    imported."""
    import machine

    before = meter.read()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--time-imports"],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    return float(done.stdout) / machine.slowdown(before, meter.read(), 0.0)


def end_to_end(harness, metrics, name: str, rounds: list,
               imports: list[float], peak_rss_mb: float) -> dict:
    """``value`` summarises the whole run: latency percentiles over the
    samples of all rounds pooled (the rounds replay one stream, so this
    multiplies the samples behind each percentile), throughput as total
    ops over total measured wall, ``setup_s`` and ``recover_s`` as the
    median of their repeats (complete set-ups: imports in a fresh
    interpreter + one round's build and warm-up; ``recover`` calls).
    Every timing has the machine's speed divided out (``machine.py``).
    ``rounds`` keeps each round's own figure for ``--compare``."""
    whole = harness.RoundResult.merged(rounds)

    def figures(r) -> dict:
        out = {
            "ops_per_s": r.ops_per_s,
            "failed_share": r.failed / r.attempted,
            "recover_s": (statistics.median(r.recover_s)
                          if r.recover_s else None),
            "wal_bytes_per_write": (r.wal_bytes / r.writes
                                    if r.writes else None),
        }
        for cls in ("base_write", "derived_ins", "derived_del",
                    "point_read", "scan"):
            for label, q in (("p50", 0.50), ("p95", 0.95)):
                p = metrics.percentile(r.latencies.get(cls, []), q)
                out[f"{cls}_{label}_ms"] = None if p is None else p * 1e3
        return out

    value = figures(whole)
    per_round = [figures(r) for r in rounds]
    setups = [i + r.setup_s for i, r in zip(imports, rounds)]
    value["setup_s"] = statistics.median(setups)
    value["peak_rss_mb"] = peak_rss_mb
    return {
        m.name: {"value": value[m.name], "unit": m.unit,
                 "rounds": (setups if m.name == "setup_s"
                            else [peak_rss_mb] if m.name == "peak_rss_mb"
                            else [r[m.name] for r in per_round])}
        for m in metrics.END_TO_END if name in m.workloads
    }


def traced_round(harness, workload, episodes, oracles, workdir: Path,
                 rounds: list) -> tuple[dict, dict]:
    """One more round with the layer wrappers installed, folded into
    the per-layer metrics; plus, on durable_small_1c, a round each
    with ``repro.obs`` metrics and tracing on, to price the telemetry
    itself against the plain rounds."""
    import tracing  # untraced runs never import the entry-point table

    untraced_wall = statistics.median(r.quiet_wall_s for r in rounds)
    rates = [r.ops_per_s for r in rounds]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = harness.run_round(workload, episodes, oracles,
                                   workdir / "traced", tracer=tracer)
    finally:
        tracer.uninstall()
    layer, totals = tracing.fold(tracer, result, untraced_wall)
    tracer.write_jsonl(HERE / "out" / f"trace-{workload.name}.jsonl")
    layer["bench.round_spread"] = ((max(rates) - min(rates))
                                   / statistics.median(rates))
    layer["bench.machine_slowdown"] = statistics.median(
        factor for r in rounds for factor in r.slowdowns)
    for mode in ("metrics", "tracing"):
        share = 0.0
        if workload.name == "durable_small_1c":
            on = harness.run_round(workload, episodes, oracles,
                                   workdir / f"obs-{mode}", obs=mode)
            share = on.quiet_wall_s / untraced_wall - 1
        layer[f"obs.{mode}_overhead_share"] = share
    return layer, totals


# -- output -----------------------------------------------------------------


def flat_metrics(entry: dict) -> dict[str, tuple]:
    """name -> (value, unit) under the names BENCHMARK.json declares:
    the four universal end-to-end metrics as they are, the
    class-specific ones as ``e2e.*``, then the per-layer ones."""
    import metrics

    flat = {}
    for name, data in entry.get("end_to_end", {}).items():
        key = name if name in metrics.UNIVERSAL else f"e2e.{name}"
        flat[key] = (data["value"], data["unit"])
    units = {m.name: m.unit for m in metrics.PER_LAYER}
    for name, value in entry.get("per_layer", {}).items():
        flat[name] = (value, units[name])
    return flat


def contract_line(entry: dict, trace: bool, declared: dict) -> str:
    """The one JSON object the driver reads. ``--trace 0``: every
    ``end_to_end`` metric of BENCHMARK.json; ``--trace 1``: every
    ``per_layer`` one. An ``e2e.*`` metric that does not apply to this
    workload (or whose percentile the sample cannot support) is 0; a
    layer metric whose trace target is gone is null."""
    flat = flat_metrics(entry)
    out = {}
    for m in declared["per_layer" if trace else "end_to_end"]:
        value = flat.get(m["name"], (0.0,))[0]
        if value is None and m["name"].startswith("e2e."):
            value = 0.0
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return json.dumps({
        "correct": entry["correct"],
        "attempted": max(1, entry["attempted"]),
        "failed": entry["failed"],
        "metrics": out,
    })


def print_entry(name: str, entry: dict) -> None:
    """Every metric by its declared name, with its unit."""
    print(f"== {name}  (seed {entry['seed']}, {entry['clients']} "
          f"client(s), {entry['ops_per_round']} ops/round)")
    for error in entry["errors"]:
        print(f"   ERROR {error}")
    for metric, (value, unit) in flat_metrics(entry).items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"   {metric:<42} {shown:>12} {unit}")
    totals = entry.get("layer_self_s")
    if totals:
        whole = sum(totals.values())
        print("     layer self time (sums to client-thread wall time)")
        for layer, seconds in sorted(totals.items(),
                                     key=lambda kv: -kv[1]):
            print(f"     {layer:<40} {seconds * 1e3:>12.1f} ms "
                  f"{seconds / whole:6.1%}")


def load_declared() -> dict:
    return json.loads(
        (HERE.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8")
    )


# -- the whole set, one subprocess per workload -----------------------------


def run_suite(seed: int, seconds: float, trace: bool,
              only: str | None = None) -> dict:
    import workloads

    summary = {"benchmark": "e20_layer_budget", "seed": seed,
               "seconds": seconds, "traced": trace, "workloads": {}}
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    for name in workloads.WORKLOADS:
        if only not in (None, name):
            continue
        detail = out_dir / f"detail-{name}-{os.getpid()}.json"
        command = [sys.executable, str(HERE / "run.py"),
                   "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds),
                   "--trace", "1" if trace else "0",
                   "--out", str(detail)]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")
        if not detail.exists():
            raise SystemExit(f"{name}: no result "
                             f"(exit {done.returncode})")
        summary["workloads"][name] = json.loads(detail.read_text())
        detail.unlink()
    summary["correct"] = all(w["correct"]
                             for w in summary["workloads"].values())
    summary["claim"] = None  # this benchmark claims no gain
    return summary


def check_repeat(seed: int, seconds: float) -> int:
    """Two full untraced sets back to back must agree within every
    metric's bound — the repeatability gate. The code is the same, so
    an "improvement" is disagreement too."""
    import metrics

    first = run_suite(seed, seconds, trace=False)
    second = run_suite(seed, seconds, trace=False)
    return report_compare(metrics.compare(first, second),
                          fail_on=("regressed", "unresolved", "improved"))


def report_compare(rows: list[tuple[str, str, str]],
                   fail_on=("regressed", "unresolved")) -> int:
    for workload, metric, outcome in rows:
        print(f"{workload:<22} {metric:<22} {outcome}")
    tally = {o: sum(r[2] == o for r in rows)
             for o in ("ok", "improved", "regressed", "unresolved")}
    print(f"{len(rows)} pairings: "
          + ", ".join(f"{n} {o}" for o, n in tally.items()))
    return 1 if any(tally[o] for o in fail_on) else 0


# -- command line -----------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", nargs="?", const="1", default="0",
                        choices=("0", "1"))
    parser.add_argument("--out", type=Path)
    parser.add_argument("--quick", action="store_true",
                        help="tiny op counts: a smoke run, not a "
                             "measurement")
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("A.json", "B.json"))
    parser.add_argument("--check-repeat", action="store_true")
    parser.add_argument("--time-imports", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        import harness  # noqa: F401 - what run_workload() imports
        import metrics  # noqa: F401
        import workloads
    except ModuleNotFoundError as exc:
        print(f"{exc}: the benchmark drives the repo's own src/repro "
              f"package and cannot run without it", file=sys.stderr)
        return 2
    if args.time_imports:
        print(time.perf_counter() - _STARTED)
        return 0
    seconds = args.seconds if args.seconds is not None else (
        QUICK_SECONDS if args.quick else DEFAULT_SECONDS)
    trace = args.trace == "1"

    if args.compare:
        import metrics
        before, after = (json.loads(p.read_text()) for p in args.compare)
        return report_compare(metrics.compare(before, after))
    if args.check_repeat:
        return check_repeat(args.seed, seconds)
    if args.workload is None or args.quick:
        summary = run_suite(args.seed, seconds, trace, args.workload)
        text = json.dumps(summary, indent=1)
        if args.out:
            args.out.write_text(text + "\n")
        print(f"correct: {summary['correct']}   claim: null")
        return 0 if summary["correct"] else 1

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of "
                     f"{', '.join(workloads.WORKLOADS)}")
    entry = run_workload(args.workload, args.seed, seconds, trace)
    if args.out:
        args.out.write_text(json.dumps(entry))
    print_entry(args.workload, entry)
    print(contract_line(entry, trace, load_declared()))
    return 0 if entry["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
