"""Declarative service-level objectives over sliding request windows.

RED metrics say what the service *is doing*; an SLO says what it
*promised*. This module evaluates declarative :class:`Objective`\\ s —
"p99 ``execute`` latency under 50 ms", "error rate under 1%", "shed
rate under 0.1%" — over the request outcomes that
:class:`repro.service.DatabaseService` records on every request.

Alerting follows the multiwindow burn-rate discipline
(https://sre.google/workbook/alerting-on-slos/): each objective is
checked over a *slow* window (its full ``window`` seconds) and a
*fast* one (``fast_fraction`` of it). An alert **raises** only when
both are violated — the slow window proves the breach is sustained,
the fast one that it is still happening — and **clears** once the
fast window is healthy again. Transitions are narrated as
``slo.alert_raised`` / ``slo.alert_cleared`` actions through
:data:`repro.obs.hooks.OBS`; the chaos soak asserts one of each.

A latency objective counts, as the workbook states a latency SLI, the
requests slower than its threshold; its value is that slow fraction.
Counting decides the percentile exactly: the nearest-rank p-th
percentile of n durations, the one at 0-based rank
``r = round(p / 100 * (n - 1))`` in sorted order, exceeds the
threshold exactly when at least ``n - r`` of them do (the ``n - r``
largest are the ones from rank ``r`` up). So no duration is kept.

Evaluation is pull-based (:meth:`SLOMonitor.evaluate`), with
:meth:`SLOMonitor.maybe_evaluate` as the rate-limited form request
paths call; the clock is injectable so tests can step time. A record
is a fixed number of counter increments; an evaluation's cost grows
with the window's slices, not its requests.
"""

from __future__ import annotations

import threading
import time
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

# Width in seconds of one slice of the window: slice i holds what is
# stamped in [i * SLICE, (i + 1) * SLICE).
SLICE = 0.25

# Slots of a family's per-slice counts; one slow count per latency
# objective follows them.
_REQUESTS, _ERRORS, _SHED = 0, 1, 2


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
        for broken, rule in (
            (self.kind not in _KINDS,
             f"unknown kind {self.kind!r} (have {', '.join(_KINDS)})"),
            (self.threshold < 0, "threshold must be >= 0"),
            (not 0 < self.fast_fraction <= 1,
             "fast_fraction must be in (0, 1]"),
            (self.window <= 0, "window must be positive"),
            (not 0 <= self.percentile <= 100,
             "percentile must be in [0, 100]"),
        ):
            if broken:
                raise MetricError(f"objective {self.name!r}: {rule}")

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
    """One objective's evaluation at a point in time. A latency value
    is the slow fraction; a lag value is the worst level."""

    objective: Objective
    ok: bool
    alerting: bool
    slow_value: float | None
    fast_value: float | None
    slow_requests: int
    fast_requests: int

    def to_dict(self) -> dict:
        objective = self.objective
        return {
            "name": objective.name, "objective": objective.describe(),
            "kind": objective.kind, "family": objective.family,
            "threshold": objective.threshold,
            "ok": self.ok, "alerting": self.alerting,
            "slow_value": self.slow_value, "fast_value": self.fast_value,
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
    """The lag objective a replicated service adds to its defaults:
    worst-replica applied-seq lag stays at or under ``threshold_seq``.
    Lag is a *level* a probe (:meth:`SLOMonitor.set_probe`) samples at
    evaluation time, not a per-request outcome."""
    return Objective("replication.lag", REPLICATION_LAG, threshold_seq,
                     window=window)


class SLOMonitor:
    """Records request outcomes, evaluates objectives, manages alerts.

    One monitor per service. ``record`` is called on every request
    completion; ``evaluate`` walks the objectives and fires/clears
    alerts; ``maybe_evaluate`` rate-limits that to :data:`EVAL_INTERVAL`.

    Slices are keyed by clock-aligned index ``int(ts // SLICE)`` and
    keep counters only: per family, requests, errors, shed and one
    slow count per latency objective; per probed objective, level
    samples and the worst level. A window of ``w`` seconds at ``now``
    is the slices from the one holding ``now - w`` on: at most one
    slice more than ``w``. Every record and evaluation lets go of the
    slices before the one holding its stamp less the horizon (the
    longest window); ``record`` looks up its slice and prunes only
    when one of those two indices moves. The clock must not run back.
    """

    def __init__(self, objectives: tuple[Objective, ...] | None = None,
                 *, clock=time.monotonic) -> None:
        self.objectives = tuple(objectives if objectives is not None
                                else default_objectives())
        names = [o.name for o in self.objectives]
        for name in names:
            if names.count(name) > 1:
                raise MetricError(f"objective {name!r} registered twice")
        self._clock = clock
        self._horizon = max((o.window for o in self.objectives),
                            default=60.0)
        # Each latency objective's slot in a family's counts, and
        # (slot, family, threshold) for the record path.
        latency = [o for o in self.objectives if o.kind == LATENCY]
        self._slots = {o.name: 3 + i for i, o in enumerate(latency)}
        self._latency = tuple((self._slots[o.name], o.family, o.threshold)
                              for o in latency)
        self._width = 3 + len(latency)
        # index -> (family -> counts, objective name -> (levels, worst)).
        self._slices: dict[int, tuple[dict, dict]] = {}
        # The slice records land in (None: the next record picks one)
        # and the highest index a prune let go of the slices below.
        self._index: int | None = None
        self._open: dict[str, list[int]] = {}
        self._floor = float("-inf")
        self._alerting: dict[str, bool] = {name: False for name in names}
        # Level probes: objective name -> zero-arg callable, sampled
        # at evaluation time into the slices.
        self._probes: dict[str, "object"] = {}
        self._raised = 0
        self._cleared = 0
        self._last_eval = 0.0
        self._lock = threading.Lock()

    def set_probe(self, objective_name: str, probe) -> None:
        """Attach a level probe to a ``replication_lag``-kind
        objective. ``probe`` is a zero-arg callable returning the
        current level (``None`` = no evidence this round); it is
        invoked outside the monitor lock on every evaluation."""
        if not any(o.name == objective_name and o.kind == REPLICATION_LAG
                   for o in self.objectives):
            raise MetricError(f"no {REPLICATION_LAG} objective named "
                              f"{objective_name!r} to probe")
        self._probes[objective_name] = probe

    def record(self, family: str, duration: float, *,
               error: bool = False, shed: bool = False) -> None:
        with self._lock:
            now = self._clock()
            index = int(now // SLICE)
            cut = int((now - self._horizon) // SLICE)
            if index != self._index or cut > self._floor:
                self._prune(cut)
                self._index = index
                self._open = self._slices.setdefault(index, ({}, {}))[0]
            counts = self._open.get(family)
            if counts is None:
                counts = self._open[family] = [0] * self._width
            counts[_REQUESTS] += 1
            if error:
                counts[_ERRORS] += 1
            if shed:
                counts[_SHED] += 1
            for slot, watched, threshold in self._latency:
                if duration > threshold and (watched == "*"
                                             or watched == family):
                    counts[slot] += 1

    def _prune(self, cut: int) -> None:
        # Caller holds self._lock: let go of every slice before ``cut``.
        for index in [index for index in self._slices if index < cut]:
            del self._slices[index]
        self._floor = max(self._floor, cut)

    def maybe_evaluate(self) -> list[Verdict] | None:
        """Evaluate if :data:`EVAL_INTERVAL` elapsed since the last
        evaluation, else return None. The check and its stamp are one
        lock hold, so two callers at one instant evaluate once."""
        now = self._clock()
        if now - self._last_eval < EVAL_INTERVAL:
            return None  # unlocked peek; re-checked below
        with self._lock:
            if now - self._last_eval < EVAL_INTERVAL:
                return None
            self._last_eval = now
        return self.evaluate(now)

    def evaluate(self, now: float | None = None) -> list[Verdict]:
        """Evaluate every objective; fire/clear alert transitions as
        ``slo.*`` action events and counters."""
        now = self._clock() if now is None else now
        # Sample level probes outside the lock (a probe may take other
        # locks, e.g. the replication group's link bookkeeping).
        probe_samples = [(name, probe())
                         for name, probe in self._probes.items()]
        # (action, counter, verdict) per alert transition.
        transitions: list[tuple[str, str, Verdict]] = []
        verdicts: list[Verdict] = []
        with self._lock:
            index = int(now // SLICE)
            for name, value in probe_samples:
                if value is not None:
                    levels = self._slices.setdefault(index, ({}, {}))[1]
                    count, worst = levels.get(name, (0, float(value)))
                    levels[name] = (count + 1, max(worst, float(value)))
            if index < self._floor:
                # A "now" behind a record's prune: the next record lets
                # these levels go, as it would had they come first.
                self._index = None
            self._last_eval = now
            self._prune(int((now - self._horizon) // SLICE))
            for objective in self.objectives:
                verdict = self._verdict(objective, now)
                verdicts.append(verdict)
                if verdict.alerting == self._alerting[objective.name]:
                    continue
                self._alerting[objective.name] = verdict.alerting
                if verdict.alerting:
                    self._raised += 1
                    transitions.append(
                        ("slo.alert_raised", "slo.alerts_raised", verdict))
                else:
                    self._cleared += 1
                    transitions.append(
                        ("slo.alert_cleared", "slo.alerts_cleared", verdict))
        # Outside the lock: OBS sinks may be arbitrarily slow.
        for name, counter, verdict in transitions:
            if OBS.enabled:
                OBS.inc(counter)
                OBS.action(name, objective=verdict.objective.name,
                           rule=verdict.objective.describe(),
                           fast_value=verdict.fast_value,
                           slow_value=verdict.slow_value)
        if OBS.enabled:
            OBS.gauge("slo.alerts_active", sum(self._alerting.values()))
        return verdicts

    def _verdict(self, objective: Objective, now: float) -> Verdict:
        # Caller holds self._lock.
        slow, slow_value, slow_bad = self._measure(
            objective, now - objective.window)
        fast, fast_value, fast_bad = self._measure(
            objective, now - objective.fast_window)
        # Raise on both windows burning; clear when the fast window is
        # healthy again (see module docstring).
        alerting = (fast_bad if self._alerting[objective.name]
                    else slow_bad and fast_bad)
        return Verdict(objective, not slow_bad and not fast_bad, alerting,
                       slow_value, fast_value, slow, fast)

    def _measure(self, objective: Objective,
                 edge: float) -> tuple[int, float | None, bool]:
        """(samples, value, breached) over the slices from the one
        holding ``edge`` on; no samples is no value and no breach. A
        lag objective promises the lag never stays above threshold, so
        its value is the worst level. A latency objective is breached
        when at least ``n - rank`` of its ``n`` requests are slow."""
        start = int(edge // SLICE)
        windowed = [pair for index, pair in self._slices.items()
                    if index >= start]
        if objective.kind == REPLICATION_LAG:
            name = objective.name
            levels = [levels[name] for _, levels in windowed
                      if name in levels]
            if not levels:
                return 0, None, False
            worst = max(worst for _, worst in levels)
            return (sum(count for count, _ in levels), worst,
                    worst > objective.threshold)
        family = objective.family
        rows = [counts for families, _ in windowed
                for name, counts in families.items()
                if family == "*" or name == family]
        total = sum(row[_REQUESTS] for row in rows)
        if not total:
            return 0, None, False
        if objective.kind == LATENCY:
            slot = self._slots[objective.name]
            slow = sum(row[slot] for row in rows)
            rank = round(objective.percentile / 100 * (total - 1))
            return total, slow / total, slow >= total - rank
        slot = _ERRORS if objective.kind == ERROR_RATE else _SHED
        value = sum(row[slot] for row in rows) / total
        return total, value, value > objective.threshold

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
        ``/slo`` endpoint and ``stats()`` serve). Evaluating again
        fires no transition twice."""
        verdicts = self.evaluate()
        with self._lock:
            window = sum(counts[_REQUESTS]
                         for families, _ in self._slices.values()
                         for counts in families.values())
        return {
            "objectives": [v.to_dict() for v in verdicts],
            "alerts": list(self.alerts),
            "alerts_raised": self.raised,
            "alerts_cleared": self.cleared,
            "healthy": self.healthy,
            "window_samples": window,
        }
