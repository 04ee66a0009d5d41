"""Renderers for observability data: the snapshot, and text for humans.

Everything the instrumentation collects is already plain data
(:meth:`MetricsRegistry.snapshot`): :func:`snapshot` is what the
benches attach to their ``BENCH_<exp>.json`` record, and
:func:`render_stats` / :func:`render_metrics` turn it into the REPL's
``stats`` table.
"""

from __future__ import annotations

from repro.obs.hooks import OBS, Instrumentation

__all__ = ["snapshot", "render_metrics", "render_stats"]


def snapshot(obs: Instrumentation | None = None) -> dict:
    """Flags + metrics of ``obs`` (default: the process-wide
    :data:`repro.obs.hooks.OBS`)."""
    return (obs or OBS).snapshot()


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
    lines.append(render_metrics(stats.get("metrics", {})))
    return "\n".join(lines)
