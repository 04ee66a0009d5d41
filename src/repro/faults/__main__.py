"""``python -m repro.faults`` — crash matrix by default, the chaos
harness with ``--soak``, its checks over a stored run with ``--check``.
All exit nonzero on any divergence."""

from __future__ import annotations

import argparse


def _names(text: str | None) -> tuple | None:
    if text is None:
        return None
    return tuple(part.strip() for part in text.split(",") if part.strip())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description=(
            "Fault-injection harnesses: the single-failure crash "
            "matrix (default) or the concurrent chaos harness (--soak), "
            "one runner over (shards, replicas, auto-failover, commit "
            "modes, scenarios)."
        ),
    )
    parser.add_argument("--soak", action="store_true",
                        help="run the concurrent chaos harness instead "
                             "of the crash matrix")
    parser.add_argument("--check", metavar="DIR", default=None,
                        help="instead of a run, fold the soak's checks "
                             "over a stored one: a cell's run directory "
                             "or a whole --workdir")
    parser.add_argument("--shards", type=int, default=1,
                        help="with --soak: write lanes behind the front "
                             "door (default 1); more than one adds "
                             "multi-shard global-lane writes and "
                             "scatter-gather reads to the mix")
    parser.add_argument("--replicas", type=int, default=0,
                        help="with --soak: replicas per lane (default "
                             "0); any adds bounded-staleness replica "
                             "reads, the replication checks and the "
                             "partition / replica_crash / primary_kill "
                             "scenarios")
    parser.add_argument("--modes", default=None,
                        help="commit modes, comma-separated, one cell "
                             "each (needs --replicas; default "
                             "'sync(1),quorum' on one lane, 'sync(1)' "
                             "on several)")
    parser.add_argument("--scenarios", default=None,
                        help="scenarios, comma-separated, one cell "
                             "each: storage, partition, replica_crash, "
                             "primary_kill (default: the last three on "
                             "one replicated lane, storage otherwise)")
    parser.add_argument("--threads", type=int, default=8,
                        help="soak worker threads (default 8)")
    parser.add_argument("--ops", type=int, default=30,
                        help="ops per worker (default 30)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (default 0)")
    parser.add_argument("--workdir", default=None,
                        help="with --soak: where each cell writes its "
                             "run directory (default: a temp dir)")
    parser.add_argument("--no-faults", action="store_true",
                        help="soak without the fault schedule under "
                             "the workload (pure concurrency check; "
                             "the epilogues still run)")
    parser.add_argument("--no-endpoint", action="store_true",
                        help="soak without the live metrics endpoint "
                             "(skips the scrape checks)")
    parser.add_argument("--auto-failover", action="store_true",
                        help="with --soak --replicas: lane 0 runs "
                             "lease-based leadership (heartbeat failure "
                             "detection, coordinator-driven election) "
                             "with clock skew and heartbeat loss "
                             "injected; every failover must then happen "
                             "without any harness-driven promote(), and "
                             "partition cells fail over too")
    args = parser.parse_args(argv)

    if args.check:
        # A stored run is checked as it was recorded: a soak flag would
        # be a no-op, so it is an error.
        flags = ["--" + name.replace("_", "-") for name, value
                 in vars(args).items()
                 if name != "check" and value != parser.get_default(name)]
        if flags:
            parser.error(f"--check takes no soak flags: {', '.join(flags)}")
    elif not args.soak:
        from repro.faults.harness import main as matrix_main

        return matrix_main()

    from repro.faults.soak import SoakConfig, check, run_soak

    try:
        if args.check:
            report = check(args.check)
        else:
            config = SoakConfig(
                shards=args.shards,
                replicas=args.replicas,
                auto_failover=args.auto_failover,
                modes=_names(args.modes),
                scenarios=_names(args.scenarios),
                threads=args.threads,
                ops_per_thread=args.ops,
                seed=args.seed,
                workdir=args.workdir,
                faults=not args.no_faults,
                serve_endpoint=not args.no_endpoint,
            )
    except ValueError as exc:
        # A flag the topology cannot honour, or a directory that holds
        # no run, is an error, not a no-op.
        parser.error(str(exc))
    if not args.check:
        report = run_soak(config)
    for line in report.lines():
        print(line)
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
