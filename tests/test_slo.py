"""SLO objectives and the burn-rate monitor.

Covers objective validation and description, the multiwindow alert
rule (raise only when both the slow and fast windows are violated,
clear as soon as the fast window recovers), the three measurement
kinds, the ``slo.*`` counters/actions the transitions emit, the
one-evaluation-per-interval claim of ``maybe_evaluate``, and the
sliced counters against sorting every request in the same slices
(:class:`ReferenceMonitor`, the oracle).
"""

from __future__ import annotations

import sys
import threading
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import MetricError
from repro.obs import OBS, Objective, RingBufferSink, SLOMonitor
from repro.obs.slo import (ERROR_RATE, EVAL_INTERVAL, LATENCY,
                           REPLICATION_LAG, SHED_RATE, SLICE, Verdict,
                           default_objectives, replication_lag_objective)


def _scrub():
    OBS.disable()
    OBS.reset()
    OBS.metrics.clear()


@pytest.fixture(autouse=True)
def clean_obs():
    _scrub()
    yield
    _scrub()


class FakeClock:
    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def monitor(objective: Objective) -> tuple[SLOMonitor, FakeClock]:
    clock = FakeClock()
    return SLOMonitor((objective,), clock=clock), clock


class TestObjective:
    def test_rejects_unknown_kind(self):
        with pytest.raises(MetricError):
            Objective("x", "throughput", 1.0)

    def test_rejects_negative_threshold(self):
        with pytest.raises(MetricError):
            Objective("x", LATENCY, -0.5)

    def test_rejects_bad_fast_fraction(self):
        with pytest.raises(MetricError):
            Objective("x", LATENCY, 0.1, fast_fraction=1.5)

    @pytest.mark.parametrize("percentile", [-5.0, 100.5, 150.0])
    def test_rejects_a_percentile_outside_0_to_100(self, percentile):
        with pytest.raises(MetricError):
            Objective("x", LATENCY, 0.1, percentile=percentile)

    def test_describe_is_human_readable(self):
        assert Objective("x", LATENCY, 0.050, family="execute",
                         percentile=99).describe() == \
            "p99 execute latency < 50ms"
        assert "error rate < 1%" in Objective(
            "y", ERROR_RATE, 0.01).describe()

    def test_fast_window_is_a_fraction_of_the_slow(self):
        objective = Objective("x", LATENCY, 0.1, window=60.0,
                              fast_fraction=1 / 6)
        assert objective.fast_window == pytest.approx(10.0)

    def test_defaults_cover_latency_errors_and_shedding(self):
        kinds = {o.kind for o in default_objectives()}
        assert kinds == {LATENCY, ERROR_RATE, SHED_RATE}


class TestBurnRateRule:
    def test_raises_only_when_both_windows_violated(self):
        slo, clock = monitor(Objective(
            "err", ERROR_RATE, 0.10, window=60.0, fast_fraction=1 / 6))
        # Errors old enough to be outside the fast window: slow window
        # is violated, fast is healthy — no alert.
        for _ in range(10):
            slo.record("execute", 0.001, error=True)
        clock.advance(30.0)
        for _ in range(10):
            slo.record("execute", 0.001)
        slo.evaluate()
        assert slo.healthy
        # Fresh errors violate the fast window too — now it fires.
        for _ in range(10):
            slo.record("execute", 0.001, error=True)
        slo.evaluate()
        assert not slo.healthy
        assert slo.raised == 1

    def test_clears_when_fast_window_recovers(self):
        slo, clock = monitor(Objective(
            "err", ERROR_RATE, 0.10, window=60.0, fast_fraction=1 / 6))
        for _ in range(10):
            slo.record("execute", 0.001, error=True)
        slo.evaluate()
        assert not slo.healthy
        # The errors age past the fast window; successes replace them.
        clock.advance(15.0)
        for _ in range(10):
            slo.record("execute", 0.001)
        slo.evaluate()
        assert slo.healthy
        assert slo.cleared == 1

    def test_latency_percentile_measurement(self):
        slo, _ = monitor(Objective(
            "lat", LATENCY, 0.050, family="execute", percentile=99,
            window=60.0))
        for _ in range(98):
            slo.record("execute", 0.001)
        slo.record("execute", 0.500)
        slo.record("execute", 0.500)
        (verdict,) = slo.evaluate()
        assert not verdict.ok
        assert verdict.slow_value == pytest.approx(0.02)

    def test_family_filter_ignores_other_traffic(self):
        slo, _ = monitor(Objective(
            "lat", LATENCY, 0.050, family="execute", window=60.0))
        slo.record("read", 9.0)  # terrible, but not our family
        (verdict,) = slo.evaluate()
        assert verdict.ok

    def test_shed_rate_measurement(self):
        slo, _ = monitor(Objective(
            "shed", SHED_RATE, 0.10, window=60.0))
        for i in range(10):
            slo.record("execute", 0.001, error=(i < 2), shed=(i < 2))
        (verdict,) = slo.evaluate()
        assert verdict.slow_value == pytest.approx(0.2)
        assert not verdict.ok

    def test_empty_window_is_healthy(self):
        slo, clock = monitor(Objective(
            "err", ERROR_RATE, 0.10, window=1.0))
        slo.record("execute", 0.001, error=True)
        clock.advance(10.0)  # everything aged out
        (verdict,) = slo.evaluate()
        assert verdict.ok
        assert verdict.slow_value is None

    def test_samples_prune_to_the_window_horizon(self):
        slo, clock = monitor(Objective(
            "err", ERROR_RATE, 0.10, window=1.0))
        for _ in range(5):
            slo.record("execute", 0.001)
            clock.advance(2.0)
        slo.record("execute", 0.001)
        assert slo.snapshot()["window_samples"] == 1


class TestTransitionNarration:
    def test_raise_and_clear_emit_counters_and_actions(self):
        OBS.enable()
        sink = OBS.events.add_sink(RingBufferSink())
        try:
            slo, clock = monitor(Objective(
                "err", ERROR_RATE, 0.10, window=60.0,
                fast_fraction=1 / 6))
            for _ in range(10):
                slo.record("execute", 0.001, error=True)
            slo.evaluate()
            clock.advance(15.0)
            for _ in range(10):
                slo.record("execute", 0.001)
            slo.evaluate()
        finally:
            OBS.events.remove_sink(sink)
        names = [r.name for r in sink.records if r.kind == "action"]
        assert "slo.alert_raised" in names
        assert "slo.alert_cleared" in names
        assert OBS.metrics.counter("slo.alerts_raised").value == 1
        assert OBS.metrics.counter("slo.alerts_cleared").value == 1
        assert OBS.metrics.gauge("slo.alerts_active").value == 0

    def test_snapshot_shape(self):
        slo, _ = monitor(Objective("err", ERROR_RATE, 0.10))
        snap = slo.snapshot()
        assert snap["healthy"] is True
        assert snap["alerts"] == []
        (verdict,) = snap["objectives"]
        assert verdict["name"] == "err"
        assert "objective" in verdict


class TestReplicationLagObjective:
    def _monitor(self, threshold=10.0, window=60.0):
        from repro.obs.slo import replication_lag_objective

        objective = replication_lag_objective(threshold_seq=threshold,
                                              window=window)
        clock = FakeClock()
        mon = SLOMonitor((objective,), clock=clock)
        return mon, clock, objective

    def test_describe(self):
        from repro.obs.slo import replication_lag_objective

        objective = replication_lag_objective(threshold_seq=256)
        assert objective.describe() == "replication lag <= 256 seqs"

    def test_probe_requires_a_known_objective(self):
        mon, _, _ = self._monitor()
        with pytest.raises(MetricError):
            mon.set_probe("nope", lambda: 0.0)

    def test_probe_requires_a_lag_objective(self):
        mon = SLOMonitor((Objective("err", ERROR_RATE, 0.1),),
                         clock=FakeClock())
        with pytest.raises(MetricError):
            mon.set_probe("err", lambda: 0.0)

    def test_add_objective_rejects_duplicates(self):
        """Two objectives of one name would share one alert flag."""
        objective = replication_lag_objective()
        with pytest.raises(MetricError):
            SLOMonitor((objective, objective), clock=FakeClock())
        with pytest.raises(MetricError):
            SLOMonitor(default_objectives() + default_objectives()[:1],
                       clock=FakeClock())

    def test_level_above_threshold_alerts_and_recovers(self):
        mon, clock, _ = self._monitor(threshold=10.0, window=60.0)
        level = {"value": 0.0}
        mon.set_probe("replication.lag", lambda: level["value"])
        assert all(v.ok for v in mon.evaluate())
        level["value"] = 500.0
        clock.advance(1.0)
        verdicts = mon.evaluate()
        assert not verdicts[0].ok
        assert "replication.lag" in mon.alerts
        # Recovery: the breach sample must age out of the fast window
        # (window/6 = 10s) before the alert clears.
        level["value"] = 0.0
        clock.advance(5.0)
        mon.evaluate()
        assert "replication.lag" in mon.alerts  # still inside fast
        clock.advance(10.0)
        mon.evaluate()
        assert "replication.lag" not in mon.alerts

    def test_none_probe_value_is_no_sample(self):
        mon, clock, _ = self._monitor(threshold=1.0)
        mon.set_probe("replication.lag", lambda: None)
        for _ in range(3):
            clock.advance(1.0)
            verdict = mon.evaluate()[0]
        assert verdict.ok and verdict.slow_requests == 0

    def test_levels_prune_to_the_horizon(self):
        mon, clock, _ = self._monitor(threshold=10.0, window=10.0)
        mon.set_probe("replication.lag", lambda: 99.0)
        mon.evaluate()
        clock.advance(100.0)  # far past the horizon: sample pruned
        mon.set_probe("replication.lag", lambda: 0.0)
        verdict = mon.evaluate()[0]
        assert verdict.ok

    def test_added_objective_joins_snapshot(self):
        mon = SLOMonitor(default_objectives()
                         + (replication_lag_objective(threshold_seq=8),),
                         clock=FakeClock())
        mon.set_probe("replication.lag", lambda: 2.0)
        snap = mon.snapshot()
        names = [v["name"] for v in snap["objectives"]]
        assert "replication.lag" in names


class TestMaybeEvaluate:
    def test_two_callers_at_one_instant_evaluate_once(self):
        """The interval check and its stamp are one lock hold: while
        the first caller's evaluation is parked in a level probe, a
        second caller at the same clock value is turned away."""
        objective = Objective("lag", REPLICATION_LAG, 10.0)
        slo, clock = monitor(objective)
        clock.advance(EVAL_INTERVAL)
        entered, release = threading.Event(), threading.Event()
        calls = []

        def probe():
            calls.append(1)
            entered.set()
            release.wait(5.0)
            return 0.0

        slo.set_probe("lag", probe)
        first: list = []
        worker = threading.Thread(
            target=lambda: first.append(slo.maybe_evaluate()))
        worker.start()
        try:
            assert entered.wait(5.0)
            second = slo.maybe_evaluate()
        finally:
            release.set()
            worker.join(5.0)
        assert second is None
        assert len(calls) == 1
        assert first and first[0] is not None


def test_concurrent_records_all_land_in_the_window():
    """Eight threads recording and asking for evaluations at once, the
    interpreter switching every few microseconds: every sample is in
    the window once, in whichever slice the rolls put it."""
    slo = SLOMonitor((Objective("err", ERROR_RATE, 0.5),))

    def worker():
        for i in range(500):
            slo.record("execute", 0.001, error=i % 10 == 0)
            slo.maybe_evaluate()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=worker) for _ in range(8)]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in workers)
    snapshot = slo.snapshot()
    assert snapshot["window_samples"] == 4000
    (verdict,) = snapshot["objectives"]
    assert verdict["slow_requests"] == 4000
    assert verdict["slow_value"] == pytest.approx(0.1)


# -- the oracle ---------------------------------------------------------------


class _Sample:
    __slots__ = ("ts", "family", "duration", "error", "shed")

    def __init__(self, ts: float, family: str, duration: float,
                 error: bool, shed: bool) -> None:
        self.ts = ts
        self.family = family
        self.duration = duration
        self.error = error
        self.shed = shed


def _within(ts: float, edge: float) -> bool:
    """Whether a stamp is in the window reaching back to ``edge``: the
    slices from the one holding ``edge`` onward."""
    return int(ts // SLICE) >= int(edge // SLICE)


class ReferenceMonitor:
    """The sample-list monitor the sliced counters replaced: every
    request a ``_Sample`` in one deque, pruned to the horizon on every
    ``record``, every evaluation a filter of the whole deque per
    objective and a sort for a latency percentile's verdict. Windows
    and prunes keep what :func:`_within` admits. Kept as the oracle
    for :class:`SLOMonitor`'s verdicts (no OBS narration)."""

    def __init__(self, objectives, *, clock) -> None:
        self.objectives = tuple(objectives)
        self._clock = clock
        self._horizon = max(
            (o.window for o in self.objectives), default=60.0
        )
        self._samples: deque[_Sample] = deque()
        self._alerting = {o.name: False for o in self.objectives}
        self._probes: dict = {}
        self._levels: dict[str, deque] = {}
        self.raised = 0
        self.cleared = 0
        self._last_eval = 0.0

    def set_probe(self, objective_name: str, probe) -> None:
        self._probes[objective_name] = probe
        self._levels.setdefault(objective_name, deque())

    def record(self, family, duration, *, error=False, shed=False):
        now = self._clock()
        self._samples.append(_Sample(now, family, duration, error, shed))
        self._prune(now)

    def _prune(self, now: float) -> None:
        cutoff = now - self._horizon
        self._samples = deque(s for s in self._samples
                              if _within(s.ts, cutoff))
        for name, levels in self._levels.items():
            self._levels[name] = deque(level for level in levels
                                       if _within(level[0], cutoff))

    def maybe_evaluate(self):
        now = self._clock()
        if now - self._last_eval < EVAL_INTERVAL:
            return None
        return self.evaluate(now)

    def evaluate(self, now=None):
        now = self._clock() if now is None else now
        probe_samples = [
            (name, probe()) for name, probe in self._probes.items()
        ]
        verdicts = []
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
                self.raised += 1
            elif was and not verdict.alerting:
                self._alerting[objective.name] = False
                self.cleared += 1
        return verdicts

    def _verdict(self, objective, samples, now):
        if objective.kind == REPLICATION_LAG:
            return self._level_verdict(objective, now)
        slow = [s for s in samples
                if _within(s.ts, now - objective.window)
                and (objective.family == "*"
                     or s.family == objective.family)]
        fast = [s for s in slow
                if _within(s.ts, now - objective.fast_window)]
        return self._judge(objective, self._measure(objective, slow),
                           self._measure(objective, fast),
                           len(slow), len(fast))

    def _level_verdict(self, objective, now):
        levels = self._levels.get(objective.name, ())
        slow = [v for ts, v in levels
                if _within(ts, now - objective.window)]
        fast = [v for ts, v in levels
                if _within(ts, now - objective.fast_window)]
        return self._judge(
            objective,
            (max(slow), max(slow) > objective.threshold) if slow
            else (None, False),
            (max(fast), max(fast) > objective.threshold) if fast
            else (None, False),
            len(slow), len(fast))

    def _judge(self, objective, slow_measure, fast_measure, slow, fast):
        (slow_value, slow_bad), (fast_value, fast_bad) = (slow_measure,
                                                          fast_measure)
        was_alerting = self._alerting[objective.name]
        alerting = ((slow_bad and fast_bad) if not was_alerting
                    else fast_bad)
        return Verdict(objective=objective, ok=not slow_bad and not fast_bad,
                       alerting=alerting, slow_value=slow_value,
                       fast_value=fast_value, slow_requests=slow,
                       fast_requests=fast)

    @staticmethod
    def _measure(objective, window):
        """(value, breached) over ``window``; a latency value is the
        slow fraction, its verdict the nearest-rank percentile's."""
        if not window:
            return None, False
        if objective.kind == LATENCY:
            ordered = sorted(s.duration for s in window)
            rank = max(0, min(len(ordered) - 1,
                              round(objective.percentile / 100
                                    * (len(ordered) - 1))))
            slow = sum(1 for s in window
                       if s.duration > objective.threshold)
            return (slow / len(window),
                    ordered[rank] > objective.threshold)
        if objective.kind == ERROR_RATE:
            value = sum(1 for s in window if s.error) / len(window)
        else:
            value = sum(1 for s in window if s.shed) / len(window)
        return value, value > objective.threshold

    @property
    def alerts(self):
        return tuple(name for name, active in self._alerting.items()
                     if active)

    def snapshot(self) -> dict:
        verdicts = self.evaluate()
        return {
            "objectives": [v.to_dict() for v in verdicts],
            "alerts": list(self.alerts),
            "alerts_raised": self.raised,
            "alerts_cleared": self.cleared,
            "healthy": not self.alerts,
            "window_samples": len(self._samples),
        }


FAMILIES = ("read", "execute", "rmw")

# Windows from half a slice (slo.SLICE, 0.25 s) to a few dozen, and
# fast fractions that put the fast edge inside one slice or on the
# slow edge.
objectives_ = st.builds(
    lambda kind, family, threshold, percentile, window, fraction:
    Objective("?", kind, threshold, family=family, percentile=percentile,
              window=window, fast_fraction=fraction),
    kind=st.sampled_from((LATENCY, ERROR_RATE, SHED_RATE,
                          REPLICATION_LAG)),
    family=st.sampled_from(("*",) + FAMILIES),
    threshold=st.sampled_from((0.0, 0.004, 0.02, 0.1, 0.5, 3.0)),
    percentile=st.sampled_from((0.0, 1.0, 50.0, 90.0, 99.0, 99.9,
                                100.0)),
    window=st.sampled_from((0.125, 0.25, 0.6, 1.0, 2.5, 7.0)),
    fraction=st.sampled_from((1 / 6, 0.25, 0.5, 0.9, 1.0)),
)

steps = st.one_of(
    st.tuples(st.just("record"), st.sampled_from(FAMILIES),
              st.sampled_from((0.001, 0.003, 0.004, 0.02, 0.02, 0.5,
                               2.0)),
              st.booleans(), st.booleans()),
    st.tuples(st.just("burst"), st.sampled_from(FAMILIES),
              st.integers(1, 40), st.integers(0, 3)),
    st.tuples(st.just("tick"), st.sampled_from(
        (0.0, 0.001, 0.05, 0.08, 0.25, 0.3, 1.0, 2.5, 9.0))),
    st.tuples(st.just("tick"), st.floats(0.0, 3.0)),
    st.tuples(st.just("level"), st.sampled_from((None, 0.0, 5.0, 300.0))),
    # An evaluation may run at a "now" read before the latest record
    # (maybe_evaluate reads the clock outside the lock).
    st.tuples(st.just("evaluate"), st.sampled_from((0.0, 0.0, 0.1, 0.3))),
    st.tuples(st.just("maybe")),
    st.tuples(st.just("snapshot")),
)


def _named(objective: Objective, index: int) -> Objective:
    return Objective(f"o{index}", objective.kind, objective.threshold,
                     family=objective.family,
                     percentile=objective.percentile,
                     window=objective.window,
                     fast_fraction=objective.fast_fraction)


@settings(max_examples=300, deadline=None)
@given(objectives=st.lists(objectives_, min_size=1, max_size=4),
       script=st.lists(steps, max_size=120))
def test_sliced_window_equals_reference(objectives, script):
    """Random streams of requests, clock steps (across slice, fast and
    slow window edges), level readings, evaluations and snapshots: the
    sliced monitor returns the reference's verdicts, snapshots
    (``window_samples`` included) and raise/clear counts at every
    step."""
    clock = FakeClock()
    objectives = [_named(o, i) for i, o in enumerate(objectives)]
    sliced = SLOMonitor(tuple(objectives), clock=clock)
    reference = ReferenceMonitor(tuple(objectives), clock=clock)
    level = {"value": None}
    for pair in (sliced, reference):
        for objective in objectives:
            if objective.kind == REPLICATION_LAG:
                pair.set_probe(objective.name, lambda: level["value"])
    for step in script:
        verb = step[0]
        if verb == "record":
            _, family, duration, error, shed = step
            for pair in (sliced, reference):
                pair.record(family, duration, error=error, shed=shed)
        elif verb == "burst":
            _, family, count, errors = step
            for i in range(count):
                duration = 0.001 * (1 + (i * 7919) % 97)
                for pair in (sliced, reference):
                    pair.record(family, duration, error=i < errors,
                                shed=i < errors // 2)
        elif verb == "tick":
            clock.advance(step[1])
        elif verb == "level":
            level["value"] = step[1]
        elif verb == "snapshot":
            assert sliced.snapshot() == reference.snapshot()
        elif verb == "evaluate":
            now = clock.now - step[1]
            assert sliced.evaluate(now) == reference.evaluate(now)
        else:
            assert sliced.maybe_evaluate() == reference.maybe_evaluate()
        assert sliced.alerts == reference.alerts
        assert (sliced.raised, sliced.cleared) == (reference.raised,
                                                   reference.cleared)
    assert sliced.snapshot() == reference.snapshot()


def _both(objectives):
    clock = FakeClock()
    return (SLOMonitor(objectives, clock=clock),
            ReferenceMonitor(objectives, clock=clock), clock)


def test_an_evaluation_behind_the_latest_record_keeps_its_floor():
    """An evaluation whose "now" was read before a later record sees
    the window that record's prune left: the slice holding its edge
    is gone, though the evaluation's own window starts in it and the
    record fell in the same slice as the one before it."""
    objective = Objective("err", ERROR_RATE, 0.5, window=0.9)
    sliced, reference, clock = _both((objective,))
    # Slices 4000, 4001, 4004 and 4004; the last two records prune
    # below 4000 and 4001.
    for stamp, error in ((1000.0, True), (1000.3, False),
                         (1001.05, False), (1001.2, False)):
        clock.now = stamp
        for pair in (sliced, reference):
            pair.record("execute", 0.001, error=error)
    now = 1001.05  # edge 1000.15, in slice 4000
    assert int((now - objective.window) // SLICE) == 4000
    assert sliced.evaluate(now) == reference.evaluate(now)
    (verdict,) = sliced.evaluate(now)
    assert (verdict.slow_requests, verdict.slow_value) == (3, 0.0)


def test_a_level_is_pruned_only_by_what_comes_after_it():
    """A level sampled by an evaluation whose "now" lags the latest
    record by more than the horizon lands in a slice below that
    record's prune. The prune, which ran before the level existed,
    does not let it go; the next record does, though it falls in the
    same slice as the last one, and though a level sampled before the
    lagging ones stays."""
    lag = Objective("lag", REPLICATION_LAG, 0.0, window=0.125)
    sliced, reference, clock = _both((lag,))
    for pair in (sliced, reference):
        pair.set_probe("lag", lambda: 0.0)
        pair.record("read", 0.001)
    assert sliced.evaluate() == reference.evaluate()  # slice 4000
    now = clock.now - 0.3  # slice 3998; the record pruned below 3999

    def sampled() -> int:
        (verdict,) = sliced.evaluate(now)
        assert [verdict] == reference.evaluate(now)
        return verdict.slow_requests

    assert (sampled(), sampled()) == (2, 3)
    for pair in (sliced, reference):
        pair.record("read", 0.001)  # same slice as the first record
    assert sampled() == 2  # the two lagging levels went
