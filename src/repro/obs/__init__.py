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

from repro.obs.events import (
    CallbackSink,
    EventLog,
    EventRecord,
    FileSink,
    RingBufferSink,
    Sink,
    fence_violations,
    read_jsonl,
)
from repro.obs.endpoint import (
    ExpositionError,
    MetricsEndpoint,
    parse_prometheus,
    render_prometheus,
)
from repro.obs.hooks import OBS, Instrumentation
from repro.obs.metrics import (
    Counter,
    Gauge,
    LogHistogram,
    MetricError,
    MetricsRegistry,
)
from repro.obs.slo import (
    Objective,
    SLOMonitor,
    Verdict,
    default_objectives,
    replication_lag_objective,
)
from repro.obs.tracing import Span, SpanEvent, Tracer
from repro.obs.export import (
    render_metrics,
    render_stats,
    snapshot,
)

__all__ = [
    "OBS",
    "Instrumentation",
    "Counter",
    "Gauge",
    "LogHistogram",
    "MetricError",
    "MetricsRegistry",
    "Objective",
    "Verdict",
    "SLOMonitor",
    "default_objectives",
    "replication_lag_objective",
    "MetricsEndpoint",
    "ExpositionError",
    "render_prometheus",
    "parse_prometheus",
    "Span",
    "SpanEvent",
    "Tracer",
    "EventRecord",
    "EventLog",
    "Sink",
    "RingBufferSink",
    "FileSink",
    "CallbackSink",
    "read_jsonl",
    "fence_violations",
    "snapshot",
    "render_metrics",
    "render_stats",
]
