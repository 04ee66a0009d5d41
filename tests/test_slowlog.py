"""Slow-path attribution: thresholds, lazy diagnosis, integration.

Covers the family-threshold dispatch, the lazy ``detail`` contract
(built only for slow spans; its failure captured, not raised), the
bounded buffer, and the wired call sites: slow updates and queries
carry an ``explain``-style per-hop cost breakdown and an update-id
cause, surfaced through ``FunctionalDatabase.stats()``.
"""

from __future__ import annotations

import pytest

from repro.fdb.explain import cost_breakdown, derived_breakdown, hop_costs
from repro.fdb.query import fn
from repro.fdb.updates import apply_update
from repro.obs import OBS, RingBufferSink, SlowLog
from repro.workloads.university import pupil_database, section_42_updates


def _scrub():
    OBS.disable()
    OBS.reset()
    OBS.metrics.clear()
    OBS.events.clear_sinks()
    OBS.slowlog.disable()


@pytest.fixture(autouse=True)
def clean_obs():
    _scrub()
    yield
    _scrub()


# -- the SlowLog primitive ----------------------------------------------------


class TestSlowLog:
    def test_inactive_by_default(self):
        log = SlowLog()
        assert not log.active
        assert log.record("query.pairs", "k", 99.0) is None

    def test_family_dispatch(self):
        log = SlowLog(query_seconds=1.0, update_seconds=2.0)
        assert log.threshold_for("query.image") == 1.0
        assert log.threshold_for("update.delete") == 2.0
        assert log.threshold_for("wal.append") is None

    def test_under_threshold_not_recorded(self):
        log = SlowLog(query_seconds=1.0)
        assert log.record("query.pairs", "k", 0.5) is None
        assert len(log) == 0

    def test_detail_built_only_when_slow(self):
        calls = []

        def detail():
            calls.append(1)
            return {"chains": ["v = a o b"]}

        log = SlowLog(query_seconds=1.0)
        log.record("query.pairs", "fast", 0.1, detail=detail)
        assert calls == []
        entry = log.record("query.pairs", "slow", 2.0, detail=detail)
        assert calls == [1]
        assert entry.detail == {"chains": ["v = a o b"]}

    def test_detail_failure_is_captured(self):
        def broken():
            raise ValueError("no schema")

        log = SlowLog(update_seconds=0.0)
        entry = log.record("update.insert", "k", 1.0, detail=broken)
        assert entry.detail == {"error": "ValueError: no schema"}

    def test_capacity_keeps_newest(self):
        log = SlowLog(query_seconds=0.0, capacity=2)
        for index in range(4):
            log.record("query.pairs", f"k{index}", 1.0)
        assert [r.key for r in log.records] == ["k2", "k3"]

    def test_configure_sentinel_leaves_other_family(self):
        log = SlowLog(query_seconds=1.0)
        log.configure(update_seconds=2.0)
        assert log.query_seconds == 1.0
        log.configure(query_seconds=None)
        assert log.query_seconds is None
        assert log.update_seconds == 2.0

    def test_snapshot_and_render(self):
        log = SlowLog(update_seconds=0.0)
        log.record("update.delete", "pupil", 0.5, cause="u3",
                   detail={"hops": [{"hop": 1, "function": "pupil",
                                     "role": "base", "rows": 4,
                                     "est_cost": 4}]})
        snap = log.snapshot()
        assert snap["update_threshold_seconds"] == 0.0
        (record,) = snap["records"]
        assert record["cause"] == "u3"
        rendered = log.records[0].render()
        assert "update.delete" in rendered and "hop 1" in rendered


# -- cost breakdowns ----------------------------------------------------------


class TestCostBreakdown:
    def test_hop_costs_of_derived_function(self):
        db = pupil_database()
        (derivation,) = db.derived("pupil").derivations
        hops = hop_costs(db, derivation)
        assert [h["hop"] for h in hops] == list(range(1, len(hops) + 1))
        # est_cost is cumulative: never decreases hop to hop.
        costs = [h["est_cost"] for h in hops]
        assert all(b >= a for a, b in zip(costs, costs[1:]))

    def test_breakdown_shapes(self):
        db = pupil_database()
        payload = derived_breakdown(db, "pupil")
        assert payload["chains"]
        assert payload["est_chains"] >= 1
        for hop in payload["hops"]:
            assert {"hop", "function", "role", "rows", "fanout",
                    "est_cost", "derivation"} <= set(hop)

    def test_base_function_breakdown(self):
        db = pupil_database()
        payload = derived_breakdown(db, "teach")
        (hop,) = payload["hops"]
        assert hop["role"] == "base"

    def test_query_breakdown(self):
        db = pupil_database()
        query = ~fn("pupil")
        payload = cost_breakdown(db, query.derivations(db))
        assert payload["hops"]


# -- wired call sites ---------------------------------------------------------


class TestIntegration:
    def test_slow_update_captured_with_cause_and_detail(self):
        OBS.enable()
        OBS.slowlog.configure(update_seconds=0.0)
        db = pupil_database()
        apply_update(db, section_42_updates()[0])
        records = OBS.slowlog.records
        assert records
        top = records[0]
        assert top.op.startswith("update.")
        assert top.cause == "u1"
        assert top.detail and top.detail.get("hops")

    def test_slow_query_captured(self):
        OBS.enable()
        OBS.slowlog.configure(query_seconds=0.0)
        db = pupil_database()
        fn("pupil").pairs(db)
        assert any(r.op.startswith("query.")
                   for r in OBS.slowlog.records)

    def test_fast_path_records_nothing(self):
        OBS.enable()
        OBS.slowlog.configure(update_seconds=3600.0,
                              query_seconds=3600.0)
        db = pupil_database()
        apply_update(db, section_42_updates()[0])
        fn("pupil").pairs(db)
        assert len(OBS.slowlog.records) == 0

    def test_stats_surfaces_slowlog(self):
        OBS.enable()
        OBS.slowlog.configure(update_seconds=0.0)
        db = pupil_database()
        apply_update(db, section_42_updates()[0])
        snap = db.stats()
        assert snap["slowlog"]["records"]
        assert snap["slowlog"]["update_threshold_seconds"] == 0.0


class TestAttribution:
    """A REP is a DEL plus an INS: the nested updates belong to the
    replace's update id whatever is attached, because there is one
    span stack and it is kept whenever collection is on."""

    @pytest.mark.parametrize("attached", ["metrics", "tracing", "ring"])
    def test_replace_cascade_shares_one_cause(self, attached):
        if attached == "ring":
            OBS.events.add_sink(RingBufferSink())
        OBS.slowlog.configure(update_seconds=0.0)
        db = pupil_database()
        with OBS.collecting(tracing=attached == "tracing"):
            db.replace("teach", ("euclid", "math"), ("euclid", "physics"))
            after = OBS.new_update_id()
        causes = {record.op: record.cause for record in OBS.slowlog.records}
        assert causes == {"update.replace": "u1", "update.delete": "u1",
                          "update.insert": "u1"}
        assert after == "u2"
