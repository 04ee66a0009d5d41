"""Renderers for observability data: JSON for machines, text for humans.

Everything the instrumentation collects is already plain data
(:meth:`MetricsRegistry.snapshot`, :meth:`Span.to_dict`); this module
turns those dicts into the two surfaces people actually read —
``benchmarks/results/*.json`` artifacts and the REPL's ``stats`` table.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.hooks import OBS, Instrumentation

__all__ = ["snapshot", "to_json", "write_json", "render_metrics",
           "render_monitor", "render_replication", "render_stats",
           "render_timeline"]


def snapshot(obs: Instrumentation | None = None) -> dict:
    """Flags + metrics of ``obs`` (default: the process-wide
    :data:`repro.obs.hooks.OBS`)."""
    return (obs or OBS).snapshot()


def to_json(data: dict, *, indent: int | None = 2) -> str:
    """JSON-encode a snapshot; non-JSON values fall back to ``str``
    (nulls, tuples and enum members all have stable renderings)."""
    return json.dumps(data, indent=indent, sort_keys=True, default=str)


def write_json(path: str | Path, data: dict, *,
               indent: int | None = 2) -> Path:
    path = Path(path)
    path.write_text(to_json(data, indent=indent) + "\n", encoding="utf-8")
    return path


def _seconds(value: float | None) -> str:
    if value is None:
        return "-"
    return f"{value * 1000:.3f}ms"


def render_metrics(metrics: dict) -> str:
    """A metrics snapshot (the dict :meth:`MetricsRegistry.snapshot`
    returns) as aligned text."""
    lines: list[str] = []
    counters = metrics.get("counters", {})
    gauges = metrics.get("gauges", {})
    histograms = metrics.get("histograms", {})
    if counters:
        lines.append("counters:")
        width = max(len(name) for name in counters)
        for name, value in counters.items():
            lines.append(f"  {name.ljust(width)}  {value}")
    if gauges:
        lines.append("gauges:")
        width = max(len(name) for name in gauges)
        for name, value in gauges.items():
            lines.append(f"  {name.ljust(width)}  {value}")
    if histograms:
        lines.append("histograms:")
        width = max(len(name) for name in histograms)
        for name, h in histograms.items():
            lines.append(
                f"  {name.ljust(width)}  n={h['count']} "
                f"mean={_seconds(h['mean'])} p95={_seconds(h['p95'])} "
                f"max={_seconds(h['max'])}"
            )
    if not lines:
        return "(no metrics recorded)"
    return "\n".join(lines)


def _slo_value(value: float | None) -> str:
    return "-" if value is None else f"{value:.4g}"


def render_monitor(metrics: dict, *, slo: dict | None = None,
                   top: int = 5) -> str:
    """The service-health dashboard the REPL's ``monitor`` command
    prints: RED per operation family, lock contention (waiters,
    upgrades, deadlocks, timeouts, worst wait/hold clusters),
    admission saturation, breaker state, and — when an
    :meth:`repro.obs.slo.SLOMonitor.snapshot` is passed — the SLO
    verdicts.

    ``metrics`` is a :meth:`MetricsRegistry.snapshot` dict; everything
    here degrades to "(no ... )" placeholders when the corresponding
    instruments have never fired, so the dashboard is safe to print
    against a cold registry.
    """
    counters = metrics.get("counters", {})
    gauges = metrics.get("gauges", {})
    histograms = metrics.get("histograms", {})
    lines: list[str] = []

    # -- RED: one row per service.red.<family>.* triple -----------------
    families = sorted(
        name.split(".")[2] for name in counters
        if name.startswith("service.red.") and name.endswith(".requests")
    )
    lines.append("requests (RED):")
    if not families:
        lines.append("  (no service requests recorded)")
    else:
        rows = []
        for family in families:
            dur = histograms.get(
                f"service.red.{family}.duration_seconds", {}
            )
            rows.append((
                family,
                str(counters.get(f"service.red.{family}.requests", 0)),
                str(counters.get(f"service.red.{family}.errors", 0)),
                _seconds(dur.get("p50")),
                _seconds(dur.get("p95")),
                _seconds(dur.get("p99")),
            ))
        headers = ("family", "requests", "errors", "p50", "p95", "p99")
        widths = [
            max(len(headers[i]), *(len(row[i]) for row in rows))
            for i in range(len(headers))
        ]
        lines.append(
            "  " + "  ".join(h.ljust(w) for h, w in zip(headers, widths))
        )
        for row in rows:
            lines.append(
                "  " + "  ".join(c.ljust(w) for c, w in zip(row, widths))
            )

    # -- shard lanes (present only behind a ShardedDatabaseService) -----
    shard_ids = sorted({
        int(name.split(".")[2])
        for name in (*counters, *gauges, *histograms)
        if name.startswith("service.shard.")
        and name.split(".")[2].isdigit()
    })
    if shard_ids:
        lines.append("shards:")
        rows = []
        for shard in shard_ids:
            prefix = f"service.shard.{shard}."
            dur = histograms.get(prefix + "duration_seconds", {})
            rows.append((
                str(shard),
                str(counters.get(prefix + "requests", 0)),
                str(counters.get(prefix + "errors", 0)),
                "{:g}".format(gauges.get(prefix + "committed", 0)),
                _seconds(dur.get("p50")),
                _seconds(dur.get("p99")),
            ))
        headers = ("lane", "requests", "errors", "committed",
                   "p50", "p99")
        widths = [
            max(len(headers[i]), *(len(row[i]) for row in rows))
            for i in range(len(headers))
        ]
        lines.append(
            "  " + "  ".join(h.ljust(w)
                             for h, w in zip(headers, widths))
        )
        for row in rows:
            lines.append(
                "  " + "  ".join(c.ljust(w)
                                 for c, w in zip(row, widths))
            )
        lines.append(
            "  cross-shard: multi-shard writes={} "
            "scatter reads={}".format(
                counters.get("service.red.multi_write.requests", 0),
                counters.get("service.shard.scatter_reads", 0),
            )
        )

    # -- lock contention ------------------------------------------------
    lines.append("locks:")
    lines.append(
        "  waiters={:g} upgrades={} deadlocks={} timeouts={}".format(
            gauges.get("service.lock.waiters", 0),
            counters.get("service.lock.upgrades", 0),
            counters.get("service.lock.deadlocks", 0),
            counters.get("service.lock.timeouts", 0),
        )
    )
    for kind in ("wait", "hold"):
        prefix = f"service.lock.{kind}."
        per_cluster = sorted(
            ((name[len(prefix):], h) for name, h in histograms.items()
             if name.startswith(prefix)),
            key=lambda item: -(item[1].get("p95") or 0.0),
        )
        if per_cluster:
            worst = ", ".join(
                f"{cluster} p95={_seconds(h.get('p95'))} "
                f"(n={h.get('count')})"
                for cluster, h in per_cluster[:top]
            )
            lines.append(f"  worst {kind}: {worst}")

    # -- admission + breaker --------------------------------------------
    lines.append(
        "admission: active={:g} queued={:g} shed={}".format(
            gauges.get("service.active", 0),
            gauges.get("service.queued", 0),
            counters.get("service.shed", 0),
        )
    )
    state_names = {0: "closed", 1: "half_open", 2: "open"}
    code = gauges.get("service.breaker.state")
    lines.append(
        "breaker: "
        + ("(no transitions recorded)" if code is None
           else f"{state_names.get(int(code), '?')} (code {int(code)})")
    )

    # -- WAL + replication (gauges refreshed by health()/lag()) ---------
    wal_seq = gauges.get("fdb.wal.last_seq")
    if wal_seq is not None:
        lines.append(
            "wal: applied seq {:g}, {}".format(
                wal_seq,
                "TAIL TORN" if gauges.get("fdb.wal.tail_torn")
                else "tail clean",
            )
        )
    lag_prefix = "replication.lag.seq."
    lag_rows = sorted(
        (name[len(lag_prefix):], value)
        for name, value in gauges.items()
        if name.startswith(lag_prefix)
    )
    if lag_rows or gauges.get("replication.term") is not None:
        lines.append(
            "replication: term {:g}, {} shipped / {} applied, "
            "{} ack timeouts, {} fenced writes, {} promotions, "
            "{} rejoins".format(
                gauges.get("replication.term", 0),
                counters.get("replication.records_shipped", 0),
                counters.get("replication.records_applied", 0),
                counters.get("replication.ack_timeouts", 0),
                counters.get("replication.fenced_writes", 0),
                counters.get("replication.promotions", 0),
                counters.get("replication.rejoins", 0),
            )
        )
        lease_held = gauges.get("replication.lease.held")
        if lease_held is not None:
            lines.append(
                "  lease: {} ({:g}s left, quorum {:g}), "
                "{} renewals, {} expiries, {} elections".format(
                    "HELD" if lease_held else "LAPSED",
                    gauges.get("replication.lease.remaining_seconds",
                               0.0),
                    gauges.get("replication.lease.needed_acks", 0),
                    counters.get("replication.lease.renewals", 0),
                    counters.get("replication.lease.expiries", 0),
                    counters.get("replication.elections", 0),
                )
            )
        snap_raw = counters.get("replication.snapshot.bytes_raw", 0)
        snap_wire = counters.get("replication.snapshot.bytes_wire", 0)
        if snap_raw:
            lines.append(
                "  snapshots: {} catch-ups, {} -> {} bytes "
                "({:.0%} of raw)".format(
                    counters.get("replication.snapshot.catch_ups", 0),
                    snap_raw, snap_wire,
                    snap_wire / snap_raw if snap_raw else 0.0,
                )
            )
        for name, lag_seq in lag_rows:
            seconds = gauges.get(f"replication.lag.seconds.{name}", 0.0)
            lines.append(
                f"  lag {name}: {lag_seq:g} seqs / {seconds:g}s"
            )
            # Commit-pipeline stages for this replica, when the
            # distributed-tracing instruments have fired.
            stages = (
                ("ship", f"replication.ship.rtt_seconds.{name}"),
                ("apply",
                 f"replication.pipeline.apply_seconds.{name}"),
                ("ack", f"replication.commit.ack_seconds.{name}"),
            )
            parts = [
                "{} p50={} p99={}".format(
                    stage, _seconds(data.get("p50")),
                    _seconds(data.get("p99")),
                )
                for stage, metric in stages
                if (data := histograms.get(metric))
            ]
            if parts:
                lines.append(f"    pipeline: {'; '.join(parts)}")

    # -- SLO verdicts ---------------------------------------------------
    if slo is not None:
        status = "healthy" if slo.get("healthy") else "ALERTING"
        lines.append(
            f"slo: {status} "
            f"(raised={slo.get('alerts_raised', 0)} "
            f"cleared={slo.get('alerts_cleared', 0)}, "
            f"{slo.get('window_samples', 0)} samples in window)"
        )
        for verdict in slo.get("objectives", []):
            marker = "ALERT" if verdict.get("alerting") else (
                "ok" if verdict.get("ok") else "warn"
            )
            lines.append(
                f"  [{marker:5}] "
                f"{verdict.get('objective', verdict.get('name'))}"
                f"  slow={_slo_value(verdict.get('slow_value'))}"
                f" fast={_slo_value(verdict.get('fast_value'))}"
            )
    return "\n".join(lines)


def render_stats(stats: dict) -> str:
    """The full ``FunctionalDatabase.stats()`` payload as text (what
    the REPL's ``stats`` command prints)."""
    lines: list[str] = []
    instance = stats.get("instance")
    if instance:
        lines.append(
            "instance: "
            f"{instance['stored_facts']} stored facts "
            f"({instance['ambiguous_facts']} ambiguous), "
            f"{instance['ncs']} NCs, "
            f"{instance['next_null_index'] - 1} nulls issued"
        )
    flags = stats.get("observability", {})
    lines.append(
        "observability: "
        + ("enabled" if flags.get("enabled") else "disabled")
        + (", tracing" if flags.get("tracing") else "")
    )
    wal = stats.get("wal")
    if wal:
        lines.append(
            f"wal: applied seq {wal.get('last_seq', 0)} "
            f"(term {wal.get('term', 0)}), "
            f"{wal.get('entries', 0)} live entries "
            f"({wal.get('aborted', 0)} aborted), "
            + ("TAIL TORN" if wal.get("tail_torn") else "tail clean")
            + f", {wal.get('checksum_failures', 0)} checksum failures"
        )
    replication = stats.get("replication")
    if replication:
        lines.append(render_replication(replication,
                                        acked=stats.get("acked")))
    lines.append(render_metrics(stats.get("metrics", {})))
    return "\n".join(lines)


def render_replication(replication: dict, *,
                       acked: int | None = None) -> str:
    """A :meth:`ReplicationGroup.health
    <repro.replication.group.ReplicationGroup.health>` verdict as
    text: role, node, term, commit mode, staleness servability, and
    one lag row per replica."""
    head = (
        f"replication: {replication.get('role', '?')} "
        f"{replication.get('node', '?')}, term "
        f"{replication.get('term', 0)}, mode "
        f"{replication.get('mode', '?')}"
    )
    if acked is not None:
        head += f", {acked} acked commits"
    if not replication.get("servable", True):
        head += " — STALENESS UNSERVABLE"
    lines = [head]
    lease = replication.get("lease")
    if lease:
        state = "HELD" if lease.get("held") else (
            "LAPSED" if lease.get("granted") else "not granted")
        row = f"  lease: {state}"
        if lease.get("remaining_seconds") is not None:
            row += f", {lease['remaining_seconds']:g}s left"
        row += (f" (quorum {lease.get('needed_acks', '?')}, "
                f"{lease.get('acks', 0)} fresh acks, "
                f"duration {lease.get('duration', '?')}s "
                f"± {lease.get('margin', '?')}s)")
        lines.append(row)
    for name, info in sorted(replication.get("replicas", {}).items()):
        row = (
            f"  {name}: acked seq {info.get('acked_seq', 0)}, "
            f"lag {info.get('lag_seq', 0)} seqs / "
            f"{info.get('lag_seconds', 0.0):.3f}s, "
            f"{info.get('errors', 0)} transport errors"
        )
        if info.get("last_error"):
            row += f" (last: {info['last_error']})"
        lines.append(row)
    if not replication.get("replicas"):
        lines.append("  (no replicas linked)")
    for name, stages in sorted(
            (replication.get("pipeline") or {}).items()):
        parts = [
            "{} p50={} p99={}".format(
                stage, _seconds(data.get("p50")),
                _seconds(data.get("p99")),
            )
            for stage in ("ship_rtt", "wal_append", "apply",
                          "commit_ack")
            if (data := stages.get(stage))
        ]
        if parts:
            lines.append(f"  pipeline {name}: {'; '.join(parts)}")
    return "\n".join(lines)


def render_timeline(timeline) -> str:
    """A :class:`repro.obs.events.ReplicationTimeline` as text: one
    row per lifecycle step, commit runs collapsed to keep a long soak
    readable (``N commits (seq a..b, term t)``), fences and
    promotions spelled out with their fence seq and term handoff."""
    entries = list(timeline)
    if not entries:
        return "(no replication events recorded)"
    lines: list[str] = []
    run: list = []

    def flush_run() -> None:
        if not run:
            return
        if len(run) <= 2:
            for entry in run:
                lines.append(
                    f"  #{entry.order:<6} commit seq "
                    f"{entry.commit_seq} (term {entry.term}, "
                    f"acks {entry.attrs.get('acks', '?')})"
                )
        else:
            first, last = run[0], run[-1]
            lines.append(
                f"  #{first.order:<6} {len(run)} commits "
                f"(seq {first.commit_seq}..{last.commit_seq}, "
                f"term {first.term})"
            )
        run.clear()

    for entry in entries:
        if entry.kind == "commit":
            if run and run[-1].term != entry.term:
                flush_run()
            run.append(entry)
            continue
        flush_run()
        detail = {
            "attach": lambda e: f"node {e.replica or e.attrs.get('node')} "
                                f"term {e.term}",
            "fence": lambda e: f"term {e.term} fenced at seq "
                               f"{e.fence_seq} -> term "
                               f"{e.attrs.get('new_term')}",
            "promote": lambda e: f"{e.replica} promoted to term "
                                 f"{e.term}",
            "rejoin": lambda e: f"{e.replica} rejoined past fence "
                                f"{e.fence_seq} (dropped "
                                f"{e.attrs.get('records_dropped', 0)})",
            "catch_up": lambda e: f"{e.replica} via "
                                  f"{e.attrs.get('mode', '?')} to seq "
                                  f"{e.attrs.get('to_seq', '?')}",
            "snapshot_bootstrap": lambda e:
                f"{e.replica} re-bootstrapped at seq "
                f"{e.attrs.get('wal_applied', '?')}",
            "snapshot_install": lambda e:
                f"{e.replica} installed snapshot at seq "
                f"{e.attrs.get('wal_applied', '?')}",
            "write_fenced": lambda e: f"stale writer term {e.term} "
                                      f"refused",
            "ack_timeout": lambda e: f"seq {e.commit_seq} got "
                                     f"{e.attrs.get('acks', '?')}/"
                                     f"{e.attrs.get('needed', '?')} acks",
            "lease_grant": lambda e:
                f"node {e.attrs.get('node', '?')} term {e.term} "
                f"(duration {e.attrs.get('duration', '?')}s "
                f"± {e.attrs.get('margin', '?')}s)",
            "lease_renew": lambda e: f"term {e.term}, "
                                     f"{e.attrs.get('acks', '?')} acks"
                                     + (" (recovered)"
                                        if e.attrs.get("recovered")
                                        else ""),
            "lease_expire": lambda e:
                f"term {e.term} silent {e.attrs.get('age', '?')}s "
                f"({e.attrs.get('acks', '?')}/"
                f"{e.attrs.get('needed_acks', '?')} votes) — "
                f"self-demoted",
            "elect": lambda e: f"{e.replica} elected at seq "
                               f"{e.attrs.get('applied_seq', '?')} "
                               f"({e.attrs.get('votes', '?')} expiry "
                               f"votes)",
        }.get(entry.kind, lambda e: "")
        lines.append(
            f"  #{entry.order:<6} {entry.kind:<18} {detail(entry)}"
            .rstrip()
        )
    flush_run()
    violations = timeline.fence_violations()
    header = (f"replication timeline: {len(entries)} entries, "
              f"{len(timeline.of_kind('fence'))} fences"
              + (", ORDER VIOLATED" if violations else ""))
    out = [header] + lines
    out += [f"  !! {problem}" for problem in violations]
    return "\n".join(out)
