"""The instrumentation context — zero overhead when disabled.

One process-wide :data:`OBS` object owns the metrics registry, the
tracer and the structured event log, plus two flags:

* ``OBS.enabled`` — master switch. Hot call sites guard with a single
  attribute test (``if OBS.enabled:``) before doing *any* observability
  work, so the disabled runtime pays one boolean check per instrumented
  operation and nothing else — no allocation, no dict lookups, no
  context managers. All recording methods are additionally safe no-ops
  when disabled, so cold call sites may skip the guard.
* ``OBS.tracing`` — span-tree construction. Metrics are cheap enough
  for always-on collection; building span objects with per-event
  attribute dicts is not, so traces are a second opt-in.

``OBS.events`` (:class:`repro.obs.events.EventLog`) activates itself
by configuration rather than a flag: attach a sink and every span
boundary and structured event flows out as a typed record with causal
links (``parent_span``, ``cause=update_id``), independent of whether
span *trees* are being built.

Span nesting is context-propagated (:mod:`contextvars`) on one stack
of ``(span_id, cause)`` pairs, kept whenever ``OBS.enabled`` whatever
is attached: spans opened on one thread or asyncio task never become
children of another's, and the update id that caused a cascade is
inherited by every nested span without explicit threading through the
call graph. Span boundaries and events become records at one emit
point; the tracer's trees and the sinks' streams are both folds of
those records.

Typical use::

    from repro.obs import OBS

    OBS.enable(tracing=True)
    db.delete("pupil", "euclid", "john")
    print(OBS.tracer.last_trace.render())
    print(OBS.metrics.counter("fdb.nc.created").value)

or scoped, restoring the previous state afterwards::

    with OBS.collecting(tracing=True):
        apply_update(db, update)

Instrumented call sites across the runtime:
``repro.fdb.updates`` (spans per insert/delete/replace, events per
NC/NVC and base mutation), ``repro.fdb.evaluate`` (chain counters),
``repro.fdb.query``, ``repro.fdb.wal``, ``repro.fdb.transaction``,
``repro.fdb.nc``/``nvc``, and ``repro.core.design_aid``. The metric
catalogue lives in docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager
from contextvars import ContextVar

from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer

__all__ = ["Instrumentation", "OBS"]


class _SpanScope:
    """Context manager for one instrumented region.

    Pushes ``(span_id, cause)`` on the instrumentation's context stack
    — the one account of the open span, whatever is attached — emits
    ``span.start``/``span.end`` records (which the tracer folds into
    trees and the sinks receive), and pops. Created only when
    ``OBS.enabled`` is true (disabled call sites never reach this
    class).
    """

    __slots__ = ("_obs", "_name", "_attrs", "_start", "_cause",
                 "_span_id", "_parent_id", "_ctx_token")

    def __init__(self, obs: "Instrumentation", name: str,
                 cause: str | None, attrs: dict) -> None:
        self._obs = obs
        self._name = name
        self._attrs = attrs
        self._cause = cause

    def __enter__(self) -> "_SpanScope":
        obs = self._obs
        stack = obs._span_ctx.get()
        self._parent_id, parent_cause = stack[-1] if stack else (None, None)
        if self._cause is None:
            self._cause = parent_cause
        self._span_id = next(obs._span_ids)
        self._ctx_token = obs._span_ctx.set(
            stack + ((self._span_id, self._cause),)
        )
        obs._emit("span.start", self._name, self._span_id,
                  self._parent_id, self._cause, None, self._attrs)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed = time.perf_counter() - self._start
        obs = self._obs
        obs._span_ctx.reset(self._ctx_token)
        obs._emit("span.end", self._name, self._span_id,
                  self._parent_id, self._cause, elapsed, self._attrs)
        return False

    @property
    def attrs(self) -> dict:
        """The scope's live attribute dict. Mutations made while the
        scope is open land on the ``span.end`` record — how the service
        stamps ``committed=True`` on a request span only once the write
        actually committed."""
        return self._attrs


class _NullScope:
    """The do-nothing span scope handed out while disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullScope":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    @property
    def attrs(self) -> dict:
        return {}  # fresh throwaway: writes must not leak between sites


_NULL_SCOPE = _NullScope()


class Instrumentation:
    """The process-wide observability context (see module docstring)."""

    def __init__(self) -> None:
        self.enabled = False
        self.tracing = False
        self.metrics = MetricsRegistry()
        self.tracer = Tracer()
        self.events = EventLog()
        self._update_ids = itertools.count(1)
        self._request_ids = itertools.count(1)
        # Process-unique span ids (never reset: a record's parent_span
        # must not name a later span of the same process).
        # ``itertools.count`` is atomic under CPython.
        self._span_ids = itertools.count(1)
        # The open spans as (span_id, cause) pairs, innermost last; a
        # ContextVar holding a tuple, so every thread and asyncio task
        # nests its own spans with no lock.
        self._span_ctx: ContextVar[tuple] = ContextVar(
            "repro_obs_span_ctx", default=()
        )

    # -- switching ----------------------------------------------------------

    def enable(self, *, tracing: bool = False) -> None:
        """Turn collection on; ``tracing=True`` also builds span trees."""
        self.enabled = True
        self.tracing = tracing

    def disable(self) -> None:
        """Turn everything off (collected data is kept until reset)."""
        self.enabled = False
        self.tracing = False

    def reset(self) -> None:
        """Zero metrics and drop traces; flags and event sinks
        unchanged."""
        self.metrics.reset()
        self.tracer.reset()
        self._span_ctx.set(())
        self._update_ids = itertools.count(1)
        self._request_ids = itertools.count(1)

    @contextmanager
    def collecting(self, *, tracing: bool = False, fresh: bool = True):
        """Enable within a scope, restoring the previous flags after.

        ``fresh=True`` (default) resets collected data on entry, so the
        scope observes only its own work — what the benches want for
        per-run metric snapshots.
        """
        previous = (self.enabled, self.tracing)
        if fresh:
            self.reset()
        self.enable(tracing=tracing)
        try:
            yield self
        finally:
            self.enabled, self.tracing = previous

    # -- causal identity ----------------------------------------------------

    def new_update_id(self) -> str:
        """Allocate the next update id (``u1``, ``u2``, ...) — the
        ``cause`` tag every propagation record of that update carries."""
        return f"u{next(self._update_ids)}"

    def new_request_id(self) -> str:
        """Allocate the next service request id (``r1``, ``r2``, ...)
        — the tag a request's whole span tree carries, so admission
        wait, lock acquisition, retry attempts, engine execution and
        WAL commit all join back to one caller-visible operation."""
        return f"r{next(self._request_ids)}"

    def current_cause(self) -> str | None:
        """The update id the innermost active span is attributed to
        (``None`` outside any caused span). Front doors use this to
        decide whether they are a fresh user-level update (allocate a
        new id) or a step inside one (inherit)."""
        return self._span_context()[1]

    def _span_context(self) -> tuple[int | None, str | None]:
        """(span_id, cause) of the innermost open span."""
        stack = self._span_ctx.get()
        return stack[-1] if stack else (None, None)

    def _emit(self, kind: str, name: str, span_id: int | None,
              parent_span: int | None, cause: str | None,
              duration: float | None, attrs: dict) -> None:
        """The one emit point: build the record once and hand it to the
        tracer (while tracing) and to every attached sink. Positional,
        because it runs on every span boundary while enabled."""
        tracing = self.tracing
        if tracing or self.events.active:
            record = self.events.record(kind, name, span_id, parent_span,
                                        cause, duration, attrs)
            if tracing:
                self.tracer.consume(record)
            self.events.publish(record)

    # -- recording ----------------------------------------------------------
    #
    # Hot paths guard with `if OBS.enabled:` before calling these; the
    # internal checks below make un-guarded (cold) call sites safe too.

    def inc(self, name: str, amount: int = 1) -> None:
        if self.enabled:
            self.metrics.counter(name).inc(amount)

    def observe(self, name: str, value: float) -> None:
        if self.enabled:
            self.metrics.histogram(name).observe(value)

    def gauge(self, name: str, value: float) -> None:
        if self.enabled:
            self.metrics.gauge(name).set(value)

    def event(self, name: str, **attrs) -> None:
        """A structured event on the innermost open span."""
        if self.enabled:
            span_id, cause = self._span_context()
            self._emit("event", name, span_id, None, cause, None, attrs)

    def action(self, name: str, *, cause: str | None = None,
               **attrs) -> None:
        """A standalone occurrence (recovery steps, checkpoint
        milestones); it still lands on the open span's tree when one
        happens to be open."""
        if self.enabled:
            span_id, inherited = self._span_context()
            self._emit("action", name, span_id, None, cause or inherited,
                       None, attrs)

    def span(self, name: str, *, cause: str | None = None, **attrs):
        """A timed scope whose ``span.start`` / ``span.end`` records
        reach the tracer (when tracing) and the sinks (when attached).
        ``cause`` attributes the span (and everything nested under it)
        to an update id."""
        if not self.enabled:
            return _NULL_SCOPE
        return _SpanScope(self, name, cause, attrs)

    # -- reading ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Flags + metrics as one JSON-ready dict."""
        return {
            "observability": {
                "enabled": self.enabled,
                "tracing": self.tracing,
            },
            "metrics": self.metrics.snapshot(),
        }


OBS = Instrumentation()
"""The process-wide instrumentation context (disabled by default)."""
