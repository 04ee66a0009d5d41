"""Declarative service-level objectives over sliding request windows.

RED metrics say what the service *is doing*; an SLO says what it
*promised*. This module evaluates declarative :class:`Objective`\\ s —
"p99 ``execute`` latency under 50 ms", "error rate under 1%", "shed
rate under 0.1%" — against a sliding window of request outcomes that
:class:`repro.service.DatabaseService` records on every request.

Alerting follows the multiwindow burn-rate discipline: each objective
is checked over a *slow* window (its full ``window`` seconds) and a
*fast* window (``fast_fraction`` of it). An alert **raises** only when
the objective is violated in *both* — the slow window proves the
breach is sustained (one slow request cannot page anyone), the fast
window proves it is *still happening* (a breach that already stopped
should not page either). It **clears** once the fast window is healthy
again: recovery is visible at the fast horizon long before the slow
window forgets the incident. Raise/clear transitions are narrated as
``slo.alert_raised`` / ``slo.alert_cleared`` action events through
:data:`repro.obs.hooks.OBS`, so a soak's JSONL shows exactly when the
forced outage breached the objective and when the service earned its
health back — the invariant the chaos soak asserts.

Evaluation is pull-based (:meth:`SLOMonitor.evaluate`), with
:meth:`SLOMonitor.maybe_evaluate` as the rate-limited form request
paths call opportunistically; the clock is injectable so tests can
step time instead of sleeping.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass

from repro.obs.hooks import OBS
from repro.obs.metrics import MetricError

__all__ = ["Objective", "Verdict", "SLOMonitor", "default_objectives",
           "replication_lag_objective",
           "LATENCY", "ERROR_RATE", "SHED_RATE", "REPLICATION_LAG"]

LATENCY = "latency"
ERROR_RATE = "error_rate"
SHED_RATE = "shed_rate"
REPLICATION_LAG = "replication_lag"

_KINDS = (LATENCY, ERROR_RATE, SHED_RATE, REPLICATION_LAG)

# Seconds between two evaluations that maybe_evaluate lets through.
EVAL_INTERVAL = 0.25


@dataclass(frozen=True)
class Objective:
    """One declarative objective.

    ``family`` selects the operation family the objective watches
    (``"read"``, ``"execute"``, ``"rmw"``, ``"checkpoint"``) or
    ``"*"`` for all traffic. ``threshold`` is seconds for ``latency``
    objectives and a ratio in [0, 1] for the rate kinds.
    """

    name: str
    kind: str
    threshold: float
    family: str = "*"
    percentile: float = 99.0
    window: float = 60.0
    fast_fraction: float = 1 / 6

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise MetricError(
                f"objective {self.name!r}: unknown kind {self.kind!r} "
                f"(have {', '.join(_KINDS)})"
            )
        if self.threshold < 0:
            raise MetricError(
                f"objective {self.name!r}: threshold must be >= 0"
            )
        if not 0 < self.fast_fraction <= 1:
            raise MetricError(
                f"objective {self.name!r}: fast_fraction must be in "
                f"(0, 1]"
            )
        if self.window <= 0:
            raise MetricError(
                f"objective {self.name!r}: window must be positive"
            )

    @property
    def fast_window(self) -> float:
        return self.window * self.fast_fraction

    def describe(self) -> str:
        if self.kind == LATENCY:
            return (f"p{self.percentile:g} {self.family} latency "
                    f"< {self.threshold * 1000:g}ms")
        if self.kind == REPLICATION_LAG:
            return f"replication lag <= {self.threshold:g} seqs"
        noun = "error rate" if self.kind == ERROR_RATE else "shed rate"
        scope = "" if self.family == "*" else f"{self.family} "
        return f"{scope}{noun} < {self.threshold * 100:g}%"


@dataclass(frozen=True)
class Verdict:
    """One objective's evaluation at a point in time."""

    objective: Objective
    ok: bool
    alerting: bool
    slow_value: float | None
    fast_value: float | None
    slow_requests: int
    fast_requests: int

    def to_dict(self) -> dict:
        return {
            "name": self.objective.name,
            "objective": self.objective.describe(),
            "kind": self.objective.kind,
            "family": self.objective.family,
            "threshold": self.objective.threshold,
            "ok": self.ok,
            "alerting": self.alerting,
            "slow_value": self.slow_value,
            "fast_value": self.fast_value,
            "slow_requests": self.slow_requests,
            "fast_requests": self.fast_requests,
        }


def default_objectives() -> tuple[Objective, ...]:
    """The service defaults: tail latency on the write path, error and
    shed rates over all traffic."""
    return (
        Objective("execute-p99", LATENCY, 0.050, family="execute",
                  percentile=99.0),
        Objective("error-rate", ERROR_RATE, 0.01),
        Objective("shed-rate", SHED_RATE, 0.001),
    )


def replication_lag_objective(threshold_seq: float = 256.0, *,
                              window: float = 30.0) -> Objective:
    """The default lag objective a replicated service adds itself:
    worst-replica applied-seq lag stays at or under ``threshold_seq``.
    Measured from a probe (:meth:`SLOMonitor.set_probe`), not from
    request samples — lag is a *level*, sampled at evaluation time,
    not a per-request outcome."""
    return Objective("replication.lag", REPLICATION_LAG, threshold_seq,
                     window=window)


class _Sample:
    __slots__ = ("ts", "family", "duration", "error", "shed")

    def __init__(self, ts: float, family: str, duration: float,
                 error: bool, shed: bool) -> None:
        self.ts = ts
        self.family = family
        self.duration = duration
        self.error = error
        self.shed = shed


class SLOMonitor:
    """Records request outcomes, evaluates objectives, manages alerts.

    One monitor per service. ``record`` is called on every request
    completion (success or failure); ``evaluate`` walks the objectives
    and fires/clears alerts; ``maybe_evaluate`` rate-limits that to
    :data:`EVAL_INTERVAL` so request paths can call it unconditionally.
    """

    def __init__(self, objectives: tuple[Objective, ...] | None = None,
                 *, clock=time.monotonic) -> None:
        self.objectives = tuple(objectives if objectives is not None
                                else default_objectives())
        self._clock = clock
        self._horizon = max(
            (o.window for o in self.objectives), default=60.0
        )
        self._samples: deque[_Sample] = deque()
        self._alerting: dict[str, bool] = {
            o.name: False for o in self.objectives
        }
        # Level probes (replication lag): objective name -> zero-arg
        # callable returning the current level (or None when it cannot
        # be measured), sampled at evaluation time into per-objective
        # (ts, value) deques evaluated over the same two windows.
        self._probes: dict[str, "object"] = {}
        self._levels: dict[str, deque] = {}
        self._raised = 0
        self._cleared = 0
        self._last_eval = 0.0
        self._lock = threading.Lock()

    # -- composition --------------------------------------------------------

    def add_objective(self, objective: Objective) -> None:
        """Add an objective after construction (how a service folds in
        the replication-lag objective once replication is attached)."""
        with self._lock:
            if any(o.name == objective.name for o in self.objectives):
                raise MetricError(
                    f"objective {objective.name!r} already registered"
                )
            self.objectives = self.objectives + (objective,)
            self._alerting[objective.name] = False
            self._horizon = max(self._horizon, objective.window)

    def set_probe(self, objective_name: str, probe) -> None:
        """Attach a level probe to a ``replication_lag``-kind
        objective. ``probe`` is a zero-arg callable returning the
        current level (``None`` = no evidence this round); it is
        invoked outside the monitor lock on every evaluation."""
        if not any(o.name == objective_name for o in self.objectives):
            raise MetricError(
                f"no objective named {objective_name!r} to probe"
            )
        self._probes[objective_name] = probe
        self._levels.setdefault(objective_name, deque())

    # -- recording ----------------------------------------------------------

    def record(self, family: str, duration: float, *,
               error: bool = False, shed: bool = False) -> None:
        now = self._clock()
        with self._lock:
            self._samples.append(
                _Sample(now, family, duration, error, shed)
            )
            self._prune(now)

    def _prune(self, now: float) -> None:
        # Caller holds self._lock.
        cutoff = now - self._horizon
        while self._samples and self._samples[0].ts < cutoff:
            self._samples.popleft()
        for levels in self._levels.values():
            while levels and levels[0][0] < cutoff:
                levels.popleft()

    # -- evaluation ---------------------------------------------------------

    def maybe_evaluate(self) -> list[Verdict] | None:
        """Evaluate if at least :data:`EVAL_INTERVAL` elapsed since the
        last evaluation; None when skipped (the common case)."""
        now = self._clock()
        with self._lock:
            if now - self._last_eval < EVAL_INTERVAL:
                return None
        return self.evaluate(now)

    def evaluate(self, now: float | None = None) -> list[Verdict]:
        """Evaluate every objective; fire/clear alert transitions as
        ``slo.*`` action events and counters."""
        now = self._clock() if now is None else now
        # Sample level probes outside the lock (a probe may take other
        # locks, e.g. the replication group's link bookkeeping).
        probe_samples = [
            (name, probe()) for name, probe in self._probes.items()
        ]
        # (action, counter, verdict) per alert transition.
        transitions: list[tuple[str, str, Verdict]] = []
        verdicts: list[Verdict] = []
        with self._lock:
            for name, value in probe_samples:
                if value is not None:
                    self._levels[name].append((now, float(value)))
            self._last_eval = now
            self._prune(now)
            samples = tuple(self._samples)
            for objective in self.objectives:
                verdict = self._verdict(objective, samples, now)
                verdicts.append(verdict)
                was = self._alerting[objective.name]
                if verdict.alerting and not was:
                    self._alerting[objective.name] = True
                    self._raised += 1
                    transitions.append(
                        ("slo.alert_raised", "slo.alerts_raised", verdict))
                elif was and not verdict.alerting:
                    self._alerting[objective.name] = False
                    self._cleared += 1
                    transitions.append(
                        ("slo.alert_cleared", "slo.alerts_cleared", verdict))
        # Outside the lock: OBS sinks may be arbitrarily slow.
        for name, counter, verdict in transitions:
            if OBS.enabled:
                OBS.inc(counter)
                OBS.action(
                    name,
                    objective=verdict.objective.name,
                    rule=verdict.objective.describe(),
                    fast_value=verdict.fast_value,
                    slow_value=verdict.slow_value,
                )
        if OBS.enabled:
            OBS.gauge("slo.alerts_active", sum(
                1 for active in self._alerting.values() if active
            ))
        return verdicts

    def _verdict(self, objective: Objective,
                 samples: tuple[_Sample, ...], now: float) -> Verdict:
        if objective.kind == REPLICATION_LAG:
            return self._level_verdict(objective, now)
        slow = [s for s in samples
                if s.ts >= now - objective.window
                and (objective.family == "*"
                     or s.family == objective.family)]
        fast = [s for s in slow if s.ts >= now - objective.fast_window]
        slow_value = self._measure(objective, slow)
        fast_value = self._measure(objective, fast)
        slow_bad = slow_value is not None and slow_value > objective.threshold
        fast_bad = fast_value is not None and fast_value > objective.threshold
        was_alerting = self._alerting[objective.name]
        # Raise on both windows burning; clear when the fast window is
        # healthy again (see module docstring).
        alerting = ((slow_bad and fast_bad) if not was_alerting
                    else fast_bad)
        return Verdict(
            objective=objective,
            ok=not slow_bad and not fast_bad,
            alerting=alerting,
            slow_value=slow_value,
            fast_value=fast_value,
            slow_requests=len(slow),
            fast_requests=len(fast),
        )

    def _level_verdict(self, objective: Objective,
                       now: float) -> Verdict:
        """Verdict for level-probed objectives (replication lag): the
        measured value of a window is the *worst* level seen in it —
        a lag SLO promises the lag never stays above threshold, so max
        (not a percentile) is the honest aggregate. Uses ``>`` against
        the threshold like the rate kinds, so ``threshold=0`` means
        "no lag at all"."""
        levels = self._levels.get(objective.name, ())
        slow = [v for ts, v in levels if ts >= now - objective.window]
        fast = [v for ts, v in levels
                if ts >= now - objective.fast_window]
        slow_value = max(slow) if slow else None
        fast_value = max(fast) if fast else None
        slow_bad = (slow_value is not None
                    and slow_value > objective.threshold)
        fast_bad = (fast_value is not None
                    and fast_value > objective.threshold)
        was_alerting = self._alerting[objective.name]
        alerting = ((slow_bad and fast_bad) if not was_alerting
                    else fast_bad)
        return Verdict(
            objective=objective,
            ok=not slow_bad and not fast_bad,
            alerting=alerting,
            slow_value=slow_value,
            fast_value=fast_value,
            slow_requests=len(slow),
            fast_requests=len(fast),
        )

    @staticmethod
    def _measure(objective: Objective,
                 window: list[_Sample]) -> float | None:
        """The objective's measured value over one window; None when
        the window is empty (no evidence either way)."""
        if not window:
            return None
        if objective.kind == LATENCY:
            ordered = sorted(s.duration for s in window)
            rank = max(0, min(len(ordered) - 1,
                              round(objective.percentile / 100
                                    * (len(ordered) - 1))))
            return ordered[rank]
        if objective.kind == ERROR_RATE:
            return sum(1 for s in window if s.error) / len(window)
        return sum(1 for s in window if s.shed) / len(window)

    # -- reading ------------------------------------------------------------

    @property
    def alerts(self) -> tuple[str, ...]:
        """Names of objectives currently alerting."""
        with self._lock:
            return tuple(name for name, active in self._alerting.items()
                         if active)

    @property
    def raised(self) -> int:
        with self._lock:
            return self._raised

    @property
    def cleared(self) -> int:
        with self._lock:
            return self._cleared

    @property
    def healthy(self) -> bool:
        return not self.alerts

    def snapshot(self) -> dict:
        """Verdicts + alert state as one JSON-ready dict (what the
        ``/slo`` endpoint and ``stats()`` serve). Evaluates without
        firing transitions twice — ``evaluate`` already dedups on the
        alert state."""
        verdicts = self.evaluate()
        return {
            "objectives": [v.to_dict() for v in verdicts],
            "alerts": list(self.alerts),
            "alerts_raised": self.raised,
            "alerts_cleared": self.cleared,
            "healthy": self.healthy,
            "window_samples": len(self._samples),
        }
