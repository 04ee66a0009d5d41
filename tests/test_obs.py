"""The observability subsystem: metrics, tracing, hooks.

Covers the instrument math, span-tree construction, the zero-overhead
disabled path (state equivalence with instrumentation on vs off), and
the ``stats()`` / export surfaces.
"""

from __future__ import annotations

import json

import pytest

from repro.fdb.persistence import dumps
from repro.fdb.updates import Update, apply_update
from repro.fdb.values import NullValue, format_value
from repro.fdb.wal import LoggedDatabase
from repro.obs import (
    OBS,
    Counter,
    Gauge,
    Instrumentation,
    LogHistogram,
    MetricError,
    MetricsRegistry,
    RingBufferSink,
    render_metrics,
    render_stats,
    to_json,
    tracing,
)
from repro.workloads.university import pupil_database, section_42_updates


def _scrub():
    OBS.disable()
    OBS.reset()
    OBS.metrics.clear()  # reset() keeps registrations; drop them too


@pytest.fixture(autouse=True)
def clean_obs():
    """Every test leaves the process-wide context disabled and empty."""
    _scrub()
    yield
    _scrub()


# -- metric primitives --------------------------------------------------------


class TestCounter:
    def test_counts(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert counter.snapshot() == 5

    def test_rejects_negative(self):
        with pytest.raises(MetricError):
            Counter("c").inc(-1)

    def test_reset(self):
        counter = Counter("c")
        counter.inc(3)
        counter.reset()
        assert counter.value == 0


class TestGauge:
    def test_moves_both_ways(self):
        gauge = Gauge("g")
        gauge.set(10)
        gauge.inc(2)
        gauge.dec(5)
        assert gauge.value == 7


class TestHistogram:
    def test_exact_aggregates(self):
        h = LogHistogram("h")
        for value in (3.0, 1.0, 2.0):
            h.observe(value)
        assert h.count == 3
        assert h.total == 6.0
        assert h.mean == 2.0
        assert h.min == 1.0
        assert h.max == 3.0

    def test_nearest_rank_percentiles(self):
        h = LogHistogram("h")
        for value in range(1, 101):
            h.observe(float(value))
        # Nearest rank over the buckets, within one bucket's width and
        # clamped to the exact envelope.
        assert 1.0 <= h.percentile(0) <= h.base
        assert 50.0 / h.base <= h.percentile(50) <= 50.0 * h.base
        assert h.percentile(100) == 100.0

    def test_empty_percentile_is_zero(self):
        assert LogHistogram("h").percentile(95) == 0.0

    def test_percentile_range_checked(self):
        with pytest.raises(MetricError):
            LogHistogram("h").percentile(101)

    def test_snapshot_shape(self):
        h = LogHistogram("h")
        h.observe(2.0)
        snap = h.snapshot()
        assert snap == {
            "count": 1, "total": 2.0, "mean": 2.0, "min": 2.0,
            "max": 2.0, "p50": 2.0, "p95": 2.0, "p99": 2.0,
        }


class TestMetricsRegistry:
    def test_lazy_creation_and_identity(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert len(registry) == 1
        assert "a" in registry

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(MetricError):
            registry.gauge("x")
        with pytest.raises(MetricError):
            registry.histogram("x")

    def test_reset_keeps_registrations(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(5)
        registry.reset()
        assert "a" in registry
        assert registry.counter("a").value == 0

    def test_snapshot_grouped_and_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc(2)
        registry.gauge("g").set(1.5)
        registry.histogram("h").observe(0.25)
        snap = registry.snapshot()
        assert list(snap["counters"]) == ["a", "b"]
        assert snap["counters"]["a"] == 2
        assert snap["gauges"] == {"g": 1.5}
        assert snap["histograms"]["h"]["count"] == 1

    def test_reset_and_snapshot_survive_a_registration_meanwhile(self):
        """A name registered while reset() or snapshot() walks the
        registry (a lease renewer, a replica thread) must not break the
        walk with "dictionary changed size during iteration"."""
        registry = MetricsRegistry()

        class Registering(Counter):
            def reset(self):
                super().reset()
                registry.counter(f"{self.name}.reset")

            def snapshot(self):
                registry.counter(f"{self.name}.snapshot")
                return super().snapshot()

        registry._get("a", Registering)
        registry.reset()
        registry.snapshot()
        assert "a.reset" in registry and "a.snapshot" in registry


# -- tracing --------------------------------------------------------------------


def _traced() -> Instrumentation:
    obs = Instrumentation()
    obs.enable(tracing=True)
    return obs


class TestTracer:
    def test_nesting_and_events(self):
        obs = _traced()
        with obs.span("update.delete", function="pupil"):
            obs.event("chains.matched", count=1)
            with obs.span("evaluate"):
                obs.event("chain.evaluated", verdict="true")
        root = obs.tracer.last_trace
        (child,) = root.children
        assert child.parent_id == root.span_id
        assert root.event_names() == ["chains.matched", "chain.evaluated"]
        assert [span.name for span in root.walk()] == [
            "update.delete", "evaluate",
        ]
        assert root.find("evaluate") == [child]

    def test_event_without_active_span_dropped(self):
        obs = _traced()
        obs.event("orphan")  # must not raise
        assert obs.tracer.traces == ()

    def test_bounded_retention(self, monkeypatch):
        monkeypatch.setattr(tracing, "MAX_TRACES", 2)
        obs = _traced()
        for index in range(4):
            with obs.span(f"s{index}"):
                pass
        assert [span.name for span in obs.tracer.traces] == ["s2", "s3"]

    def test_render_tree(self):
        obs = _traced()
        with obs.span("update.insert", function="pupil"):
            obs.event("nvc.created", facts=2)
        text = obs.tracer.last_trace.render()
        lines = text.splitlines()
        assert lines[0].startswith("update.insert function=pupil [")
        assert lines[1].strip() == "+ nvc.created facts=2"

    def test_attrs_use_format_value(self):
        obs = _traced()
        with obs.span("update.insert", y=NullValue(3)):
            pass
        root = obs.tracer.last_trace
        assert "y=n3" in root.render()

    def test_attrs_set_inside_the_scope_reach_the_tree(self):
        obs = _traced()
        with obs.span("service.request") as scope:
            scope.attrs["committed"] = True
        assert obs.tracer.last_trace.attrs == {"committed": True}


# -- hooks / the instrumentation context -------------------------------------------


class TestInstrumentation:
    def test_disabled_recording_is_noop(self):
        obs = Instrumentation()
        obs.inc("c")
        obs.observe("h", 1.0)
        obs.gauge("g", 2.0)
        obs.event("e")
        assert len(obs.metrics) == 0

    def test_disabled_span_is_shared_null_scope(self):
        obs = Instrumentation()
        scope = obs.span("update.insert")
        assert scope is obs.span("update.delete")
        with scope as entered:
            assert entered.attrs == {}

    def test_enabled_span_reaches_sinks_without_tracing(self):
        obs = Instrumentation()
        obs.enable()
        ring = obs.events.add_sink(RingBufferSink())
        with obs.span("update.insert", function="pupil"):
            pass
        start, end = ring.records
        assert (start.kind, end.kind) == ("span.start", "span.end")
        assert end.name == "update.insert" and end.duration >= 0
        assert end.attrs == {"function": "pupil"}
        assert obs.tracer.traces == ()  # no tracing without the flag

    def test_tracing_builds_span_tree_with_events(self):
        obs = Instrumentation()
        obs.enable(tracing=True)
        with obs.span("update.delete", function="pupil"):
            obs.event("nc.created", index="g1")
        trace = obs.tracer.last_trace
        assert trace is not None
        assert trace.event_names() == ["nc.created"]

    def test_collecting_restores_flags_and_resets(self):
        obs = Instrumentation()
        obs.enable()
        obs.inc("before")
        with obs.collecting(tracing=True):
            assert obs.enabled and obs.tracing
            # fresh=True zeroed the pre-existing counter on entry.
            assert obs.metrics.counter("before").value == 0
            obs.inc("inside")
        assert obs.enabled and not obs.tracing
        assert obs.metrics.counter("inside").value == 1

    def test_snapshot_shape(self):
        obs = Instrumentation()
        obs.enable()
        obs.inc("c")
        snap = obs.snapshot()
        assert snap["observability"] == {"enabled": True,
                                         "tracing": False}
        assert snap["metrics"]["counters"] == {"c": 1}
        assert set(snap) == {"observability", "metrics"}


# -- the instrumented runtime ---------------------------------------------------------


def run_section_42(db):
    for update in section_42_updates():
        apply_update(db, update)
    return db


class TestRuntimeEquivalence:
    def test_disabled_and_enabled_runs_reach_identical_state(self):
        plain = run_section_42(pupil_database())
        OBS.enable(tracing=True)
        instrumented = run_section_42(pupil_database())
        OBS.disable()
        assert dumps(plain) == dumps(instrumented)

    def test_disabled_run_records_nothing(self):
        run_section_42(pupil_database())
        assert len(OBS.metrics) == 0
        assert OBS.tracer.traces == ()


class TestRuntimeCounters:
    def test_derived_delete_trace_shows_ncs_and_chains(self):
        db = pupil_database()
        OBS.enable(tracing=True)
        db.delete("pupil", "euclid", "john")
        trace = OBS.tracer.last_trace
        assert trace is not None
        assert trace.name == "update.delete"
        names = trace.event_names()
        assert "chain.evaluated" in names
        assert "nc.created" in names
        counters = OBS.metrics.snapshot()["counters"]
        assert counters["fdb.nc.created"] == 1
        assert counters["fdb.chains.enumerated"] >= 1

    def test_stats_counts_updates_chains_and_wal(self, tmp_path):
        db = pupil_database()
        logged = LoggedDatabase(db, tmp_path / "updates.log")
        OBS.enable()
        for update in section_42_updates():
            logged.execute(update)
        stats = db.stats()
        counters = stats["metrics"]["counters"]
        assert counters["fdb.updates.insert"] > 0
        assert counters["fdb.updates.delete"] > 0
        assert counters["fdb.chains.enumerated"] > 0
        assert counters["fdb.wal.appends"] == 5
        assert stats["instance"]["stored_facts"] > 0
        assert stats["observability"]["enabled"] is True

    def test_query_spans_carry_the_expression(self):
        from repro.fdb.query import fn

        db = pupil_database()
        OBS.enable(tracing=True)
        expression = fn("teach") * fn("class_list")
        expression.pairs(db)
        counters = OBS.metrics.snapshot()["counters"]
        assert counters["fdb.query.pairs"] == 1
        trace = OBS.tracer.last_trace
        assert trace.name == "query.pairs"
        assert trace.attrs == {"expr": str(expression)}


# -- rendering / export -----------------------------------------------------------


class TestRendering:
    def test_format_value_nulls_and_tuples(self):
        assert format_value(NullValue(1)) == "n1"
        assert format_value(("john", NullValue(2))) == "(john, n2)"
        assert format_value("plain") == "plain"

    def test_update_str_renders_nulls_in_tuples(self):
        update = Update.ins("score", ("john", NullValue(1)), 91)
        assert str(update) == "INS(score, <(john, n1), 91>)"
        assert "NullValue" not in str(update)

    def test_render_metrics_empty(self):
        assert render_metrics({}) == "(no metrics recorded)"

    def test_render_metrics_prints_a_count_histogram_as_numbers(self):
        # fdb.txn.undo_records counts records; only histograms of
        # seconds print in ms.
        db = pupil_database()
        OBS.enable()
        with db.transaction():
            db.insert("teach", "gauss", "algebra")
        OBS.observe("fdb.wal.append_seconds", 0.002)
        lines = render_stats(db.stats()).splitlines()
        (undo,) = [line for line in lines if "fdb.txn.undo_records" in line]
        records = OBS.metrics.snapshot()["histograms"][
            "fdb.txn.undo_records"]["max"]
        assert records >= 1 and f"max={records:g}" in undo
        assert "ms" not in undo
        (wal,) = [line for line in lines if "fdb.wal.append_seconds" in line]
        assert "max=2.000ms" in wal

    def test_render_stats_full_payload(self):
        db = pupil_database()
        OBS.enable()
        db.insert("teach", "gauss", "algebra")
        text = render_stats(db.stats())
        assert "observability: enabled" in text
        assert "fdb.updates.insert" in text

    def test_to_json_round_trips(self):
        OBS.enable()
        OBS.inc("c")
        data = json.loads(to_json(OBS.snapshot()))
        assert data["metrics"]["counters"]["c"] == 1


class TestReplicationRendering:
    """The WAL + replication sections of stats, and the gauges behind
    them."""

    def test_render_stats_wal_and_replication_sections(self):
        from repro.obs import render_stats as _render_stats

        stats = {
            "instance": {"stored_facts": 4, "ambiguous_facts": 0,
                         "ncs": 1, "next_null_index": 3},
            "observability": {"enabled": True},
            "metrics": {},
            "wal": {"last_seq": 7, "term": 2, "entries": 6,
                    "aborted": 1, "tail_torn": True,
                    "checksum_failures": 0},
            "acked": 5,
            "replication": {
                "role": "primary", "node": "n1", "term": 2,
                "mode": "quorum", "servable": False,
                "replicas": {"r0": {"acked_seq": 6, "lag_seq": 1,
                                    "lag_seconds": 0.5, "errors": 2,
                                    "last_error": "partitioned"}},
            },
        }
        text = _render_stats(stats)
        assert "wal: applied seq 7 (term 2)" in text
        assert "TAIL TORN" in text
        assert "replication: primary n1, term 2, mode quorum" in text
        assert "5 acked commits" in text
        assert "STALENESS UNSERVABLE" in text
        assert "r0: acked seq 6, lag 1 seqs" in text
        assert "(last: partitioned)" in text

    def test_render_replication_without_replicas(self):
        from repro.obs import render_replication

        text = render_replication({
            "role": "primary", "node": "primary", "term": 1,
            "mode": "async", "servable": True, "replicas": {},
        })
        assert "(no replicas linked)" in text

    def test_render_metrics_shows_replication_gauges(self):
        OBS.enable()
        OBS.gauge("fdb.wal.last_seq", 9)
        OBS.gauge("fdb.wal.tail_torn", 0)
        OBS.gauge("replication.term", 3)
        OBS.gauge("replication.lag.seq.r0", 2)
        OBS.gauge("replication.lag.seconds.r0", 0.25)
        OBS.inc("replication.records_shipped", 9)
        OBS.inc("replication.records_applied", 7)
        OBS.inc("replication.ack_timeouts", 1)
        rows = dict(line.split() for line in
                    render_metrics(OBS.metrics.snapshot()).splitlines()
                    if line.startswith("  "))
        assert rows == {
            "fdb.wal.last_seq": "9", "fdb.wal.tail_torn": "0",
            "replication.term": "3", "replication.lag.seq.r0": "2",
            "replication.lag.seconds.r0": "0.25",
            "replication.records_shipped": "9",
            "replication.records_applied": "7",
            "replication.ack_timeouts": "1",
        }
