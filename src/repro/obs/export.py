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
           "render_replication", "render_stats"]


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


def _plain(value: float | None) -> str:
    return "-" if value is None else f"{value:g}"


def _measures_seconds(name: str) -> bool:
    """Whether a histogram observes seconds: its name says so, or it is
    a per-cluster lock wait / hold (docs/OBSERVABILITY.md). The rest
    (``fdb.txn.undo_records``) observe counts."""
    return "seconds" in name or name.startswith(("service.lock.wait.",
                                                 "service.lock.hold."))


def render_metrics(metrics: dict) -> str:
    """A metrics snapshot (the dict :meth:`MetricsRegistry.snapshot`
    returns) as aligned text; a histogram of seconds prints in ms, one
    of counts as plain numbers."""
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
            unit = _seconds if _measures_seconds(name) else _plain
            lines.append(
                f"  {name.ljust(width)}  n={h['count']} "
                f"mean={unit(h['mean'])} p95={unit(h['p95'])} "
                f"max={unit(h['max'])}"
            )
    if not lines:
        return "(no metrics recorded)"
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

