"""Observability for the functional database runtime.

The paper's update machinery turns one ``DEL``/``INS`` into a cascade
of chain enumerations, negated conjunctions and base mutations; this
package makes that cascade *reportable* — as counters and histograms
(:mod:`repro.obs.metrics`), hierarchical update-propagation traces
(:mod:`repro.obs.tracing`), a structured event log with pluggable
sinks and causal links (:mod:`repro.obs.events`), the metric snapshot and the REPL's
``stats`` text (:mod:`repro.obs.export`), declarative service-level
objectives with burn-rate alerting (:mod:`repro.obs.slo`), and a live
stdlib HTTP exposition endpoint serving Prometheus text format
(:mod:`repro.obs.endpoint`).

Everything hangs off the process-wide :data:`OBS` context
(:mod:`repro.obs.hooks`), which is **disabled by default**: hot paths
guard instrumentation behind a single ``if OBS.enabled:`` attribute
check, so the un-observed runtime is unchanged.

>>> from repro.obs import OBS                        # doctest: +SKIP
>>> OBS.enable(tracing=True)                         # doctest: +SKIP
>>> db.delete("pupil", "euclid", "john")             # doctest: +SKIP
>>> print(OBS.tracer.last_trace.render())            # doctest: +SKIP
"""

from __future__ import annotations

from repro.lazy import export_lazily

__all__ = export_lazily(__name__, {
    ".hooks": ("OBS", "Instrumentation"),
    ".metrics": (
        "Counter", "Gauge", "LogHistogram", "MetricError",
        "MetricsRegistry",
    ),
    ".slo": (
        "Objective", "Verdict", "SLOMonitor", "default_objectives",
        "replication_lag_objective",
    ),
    ".endpoint": (
        "MetricsEndpoint", "ExpositionError", "render_prometheus",
        "parse_prometheus",
    ),
    ".tracing": ("Span", "SpanEvent", "Tracer"),
    ".events": (
        "EventRecord", "EventLog", "Sink", "RingBufferSink", "FileSink",
        "CallbackSink", "read_jsonl", "fence_violations",
    ),
    ".export": ("snapshot", "render_metrics", "render_stats"),
})
