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
step time instead of sleeping. Recording is an append whatever the
rate; an evaluation's cost grows with the window's slices, not its
requests, apart from the slices a window edge cuts (see
:class:`SLOMonitor`).
"""

from __future__ import annotations

import threading
import time
from array import array
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from typing import Sequence
from itertools import chain

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

# Width in seconds of one slice of the sample window.
SLICE = 0.25

# A latency selection sorts what is left once this few values remain.
_SORT_BELOW = 2048


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


class _Bucket:
    """One family's samples in one slice of the window, in arrival
    order — which is clock order, since :meth:`SLOMonitor.record`
    reads the clock under the monitor lock. Parallel arrays, no object
    per request; ``close`` tallies the flags and sorts the durations
    once, when the slice stops taking samples."""

    __slots__ = ("ts", "durations", "flags", "ordered", "errors", "shed")

    def __init__(self) -> None:
        self.ts = array("d")
        self.durations = array("d")
        self.flags = bytearray()  # 1 = error, 2 = shed, 3 = both
        self.ordered: array | None = None  # set by close()
        self.errors = self.shed = 0

    def close(self) -> None:
        self.errors, self.shed = _tally(self.flags)
        self.ordered = array("d", sorted(self.durations))

    def tally(self, cutoff: float) -> tuple[int, int, int]:
        """(requests, errors, shed) over the samples at or after
        ``cutoff``."""
        ts = self.ts
        if ts[0] >= cutoff and self.ordered is not None:
            return len(ts), self.errors, self.shed
        first = bisect_left(ts, cutoff)
        return (len(ts) - first, *_tally(self.flags[first:]))

    def sorted_since(self, cutoff: float) -> Sequence[float]:
        """The durations at or after ``cutoff``, sorted."""
        if self.ts[0] >= cutoff and self.ordered is not None:
            return self.ordered
        return sorted(self.durations[bisect_left(self.ts, cutoff):])


def _tally(flags: bytearray) -> tuple[int, int]:
    both = flags.count(3)
    return flags.count(1) + both, flags.count(2) + both


def _pick(buckets: dict[str, _Bucket], family: str):
    if family == "*":
        return buckets.values()
    return (buckets[family],) if family in buckets else ()


def _select(pieces: list[Sequence[float]], rank: int) -> float:
    """The value at 0-based ``rank`` in the union of the sorted
    ``pieces``, without merging them. Each piece keeps a range of
    candidates. The ranges start at the lowest of the pieces' own
    shares of the values from the rank up (at least that many values
    lie at or above it, so the answer does too); then each round cuts
    them at the weighted median of their middles, which rules out a
    quarter or more of what is left, until few enough remain to sort.
    A round costs a few operations per piece, none per value."""
    if len(pieces) == 1:
        return pieces[0][rank]
    total = sum(map(len, pieces))
    need = total - rank
    # A piece's share is ceil(len * need / total) of its largest values.
    floor = min(piece[len(piece) - -(-len(piece) * need // total)]
                for piece in pieces)
    lows = [bisect_left(piece, floor) for piece in pieces]
    highs = [len(piece) for piece in pieces]
    rank -= sum(lows)
    while True:
        size = sum(highs) - sum(lows)
        if size <= _SORT_BELOW:
            return sorted(chain.from_iterable(
                piece[low:high]
                for piece, low, high in zip(pieces, lows, highs)))[rank]
        middles = sorted((piece[(low + high) // 2], high - low)
                         for piece, low, high in zip(pieces, lows, highs)
                         if high > low)
        weight = 0
        for pivot, width in middles:
            weight += width
            if 2 * weight >= size:
                break
        below = [bisect_left(piece, pivot, low, high)
                 for piece, low, high in zip(pieces, lows, highs)]
        under = sum(below) - sum(lows)
        if rank < under:
            highs = below
            continue
        above = [bisect_right(piece, pivot, low, high)
                 for piece, low, high in zip(pieces, lows, highs)]
        through = sum(above) - sum(lows)
        if rank < through:
            return pivot
        rank -= through
        lows = above


class SLOMonitor:
    """Records request outcomes, evaluates objectives, manages alerts.

    One monitor per service. ``record`` is called on every request
    completion (success or failure); ``evaluate`` walks the objectives
    and fires/clears alerts; ``maybe_evaluate`` rate-limits that to
    :data:`EVAL_INTERVAL` so request paths can call it unconditionally.

    The window is a deque of slices at most :data:`SLICE` wide, each a
    :class:`_Bucket` per family. ``record`` is an append; once per
    slice it rolls — closes the open slice and drops the slices wholly
    past the horizon. ``evaluate`` rolls too, then a rate objective
    sums per-slice tallies and a latency objective selects its
    nearest-rank value from the per-slice sorted durations
    (:func:`_select`); only a bucket straddling a window edge is cut
    by timestamp. Verdicts are those of filtering and sorting every
    sample in the window. The clock must not run backwards.
    """

    def __init__(self, objectives: tuple[Objective, ...] | None = None,
                 *, clock=time.monotonic) -> None:
        self.objectives = tuple(objectives if objectives is not None
                                else default_objectives())
        self._clock = clock
        self._horizon = max(
            (o.window for o in self.objectives), default=60.0
        )
        # Closed slices, oldest first, as (newest ts, family -> bucket);
        # the open slice takes samples until the clock reaches
        # _open_until.
        self._slices: deque[tuple[float, dict[str, _Bucket]]] = deque()
        self._open: dict[str, _Bucket] = {}
        self._open_until = float("-inf")
        # Samples stamped before _floor are out of every window for
        # good: the highest cutoff a prune has reached.
        self._floor = float("-inf")
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
            # A longer horizon does not bring back what the old one
            # already let go (see evaluate).
            self._prune(self._newest() - self._horizon,
                        levels=bool(self._open))
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
        with self._lock:
            now = self._clock()
            if now >= self._open_until:
                self._roll(now)
            bucket = self._open.get(family)
            if bucket is None:
                bucket = self._open[family] = _Bucket()
            bucket.ts.append(now)
            bucket.durations.append(duration)
            bucket.flags.append((1 if error else 0) | (2 if shed else 0))

    def _roll(self, now: float) -> None:
        # Caller holds self._lock: close the open slice, drop the
        # closed slices wholly past the horizon, open the next.
        if self._open:
            for bucket in self._open.values():
                bucket.close()
            newest = max(b.ts[-1] for b in self._open.values())
            self._slices.append((newest, self._open))
            self._open = {}
        cutoff = now - self._horizon
        while self._slices and self._slices[0][0] < cutoff:
            self._slices.popleft()
        self._open_until = now + SLICE

    def _prune(self, cutoff: float, *, levels: bool) -> None:
        # Caller holds self._lock: what a prune at ``cutoff`` lets go —
        # every sample stamped before it (by the floor) and, when
        # ``levels``, the levels it finds stamped before it.
        self._floor = max(self._floor, cutoff)
        if levels:
            for stamped in self._levels.values():
                while stamped and stamped[0][0] < cutoff:
                    stamped.popleft()

    def _newest(self) -> float:
        # Caller holds self._lock: the latest sample's stamp.
        if self._open:
            return max(b.ts[-1] for b in self._open.values())
        return self._slices[-1][0] if self._slices else float("-inf")

    def _buckets(self, family: str, cutoff: float):
        """The buckets of ``family`` (every family for ``"*"``) in the
        slices that hold a sample at or after ``cutoff``, newest
        first."""
        yield from _pick(self._open, family)
        for newest, buckets in reversed(self._slices):
            if newest < cutoff:
                return
            yield from _pick(buckets, family)

    # -- evaluation ---------------------------------------------------------

    def maybe_evaluate(self) -> list[Verdict] | None:
        """Evaluate if at least :data:`EVAL_INTERVAL` elapsed since the
        last evaluation; None when skipped (the common case). The
        caller that passes the check claims the evaluation under the
        same lock hold, so two callers at one instant evaluate once."""
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
        probe_samples = [
            (name, probe()) for name, probe in self._probes.items()
        ]
        # (action, counter, verdict) per alert transition.
        transitions: list[tuple[str, str, Verdict]] = []
        verdicts: list[Verdict] = []
        with self._lock:
            # Every record prunes to its stamp less the horizon; the
            # latest one's prune covers the rest. It reaches the levels
            # only if it came after the last evaluation sampled them:
            # then the open slice, which evaluations empty, holds it.
            self._prune(self._newest() - self._horizon,
                        levels=bool(self._open))
            for name, value in probe_samples:
                if value is not None:
                    self._levels[name].append((now, float(value)))
            self._last_eval = now
            self._prune(now - self._horizon, levels=True)
            self._roll(now)
            for objective in self.objectives:
                verdict = self._verdict(objective, now)
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

    def _verdict(self, objective: Objective, now: float) -> Verdict:
        # Caller holds self._lock. A window holds the samples stamped
        # at or after its cutoff that the floor has not let go.
        slow_cut = max(now - objective.window, self._floor)
        fast_cut = max(now - objective.fast_window, slow_cut)
        if objective.kind == REPLICATION_LAG:
            # Levels are pruned as sampled, not by the floor.
            slow, slow_value = self._level(objective.name,
                                           now - objective.window)
            fast, fast_value = self._level(objective.name,
                                           now - objective.fast_window)
        else:
            slow, slow_value = self._measure(objective, slow_cut)
            fast, fast_value = self._measure(objective, fast_cut)
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
            slow_requests=slow,
            fast_requests=fast,
        )

    def _level(self, name: str,
               cutoff: float) -> tuple[int, float | None]:
        """(levels, worst level) since ``cutoff`` for a level-probed
        objective (replication lag): a lag SLO promises the lag never
        stays above threshold, so max (not a percentile) is the honest
        aggregate. Compared with ``>`` like the rate kinds, so
        ``threshold=0`` means "no lag at all"."""
        window = [v for ts, v in self._levels.get(name, ()) if ts >= cutoff]
        return len(window), max(window) if window else None

    def _measure(self, objective: Objective,
                 cutoff: float) -> tuple[int, float | None]:
        """(requests, measured value) of the objective's family since
        ``cutoff``; the value is None when there are none (no evidence
        either way)."""
        buckets = list(self._buckets(objective.family, cutoff))
        if objective.kind == LATENCY:
            pieces = [piece for piece in (b.sorted_since(cutoff)
                                          for b in buckets) if piece]
            total = sum(map(len, pieces))
            if not total:
                return 0, None
            rank = max(0, min(total - 1,
                              round(objective.percentile / 100
                                    * (total - 1))))
            return total, _select(pieces, rank)
        total = errors = shed = 0
        for bucket in buckets:
            n, e, s = bucket.tally(cutoff)
            total += n
            errors += e
            shed += s
        if not total:
            return 0, None
        return total, (errors if objective.kind == ERROR_RATE
                       else shed) / total

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
        with self._lock:
            window = sum(bucket.tally(self._floor)[0]
                         for bucket in self._buckets("*", self._floor))
        return {
            "objectives": [v.to_dict() for v in verdicts],
            "alerts": list(self.alerts),
            "alerts_raised": self.raised,
            "alerts_cleared": self.cleared,
            "healthy": self.healthy,
            "window_samples": window,
        }
