"""Distributed replication observability: the replica's spans nested
under the shipping span, frames that carry only the protocol, the
commit-pipeline instruments, snapshot catch-up, the failover audit
timeline, and the lag SLO.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.fdb import persistence
from repro.fdb.logic import Truth
from repro.fdb.wal import UpdateLog
from repro.obs import OBS, RingBufferSink, Tracer, fence_violations
from repro.obs.slo import replication_lag_objective
from repro.replication import Replica, ReplicationGroup
from repro.service import DatabaseService
from repro.workloads.university import pupil_database
from tests.test_obs_events import parse_dot


def _scrub():
    OBS.disable()
    OBS.reset()
    OBS.metrics.clear()
    OBS.events.clear_sinks()


@pytest.fixture(autouse=True)
def clean_obs():
    _scrub()
    yield
    _scrub()


@pytest.fixture
def ring():
    sink = RingBufferSink(capacity=8192)
    OBS.events.add_sink(sink)
    OBS.enable()
    return sink


@pytest.fixture
def replicated(tmp_path, closing):
    """Builder for a replicated primary service with in-process
    replicas; the service and the group are closed when the test
    ends."""

    def build(mode="sync(2)", replicas=2, name="primary", **kwargs):
        workdir = tmp_path / name
        workdir.mkdir()
        db = pupil_database()
        persistence.save(db, workdir / "snapshot.json", wal_applied=0)
        group = closing(ReplicationGroup(mode, ack_timeout=2.0,
                                         retry_interval=0.005))
        service = closing(DatabaseService(
            db, log=workdir / "wal.log", replication=group, node=name,
            **kwargs))
        for i in range(replicas):
            group.add_replica(f"r{i}",
                              Replica(f"r{i}", tmp_path / f"r{i}"))
        return service, group, workdir

    return build


def _spans(records, name):
    return [r for r in records if r.kind == "span.end" and r.name == name]


def _actions(records, name):
    return [r for r in records if r.kind == "action" and r.name == name]


class TestCrossNodeTrace:
    def test_one_commit_is_one_trace_across_nodes(self, ring, replicated):
        service, group, _ = replicated()
        service.insert("teach", "gauss", "cs")
        records = list(ring.records)

        requests = _spans(records, "service.request")
        ships = _spans(records, "replication.ship")
        receives = _spans(records, "replication.receive")
        appends = _spans(records, "replica.wal_append")
        applies = _spans(records, "replica.apply")
        acks = _spans(records, "replication.ack")
        assert len(requests) == 1
        assert len(ships) == 2 and len(receives) == 2
        assert len(appends) == 2 and len(applies) == 2
        assert len(acks) == 2

        request_ids = {r.span_id for r in requests}
        ship_ids = {r.span_id for r in ships}
        receive_ids = {r.span_id for r in receives}
        assert all(s.parent_span in request_ids for s in ships)
        assert all(r.parent_span in ship_ids for r in receives)
        assert all(s.parent_span in receive_ids
                   for s in appends + applies + acks)
        # Both replicas appear, each with its own pipeline.
        assert {str(r.attrs["replica"]) for r in receives} == {"r0", "r1"}

    def test_span_tree_dot_draws_the_pipeline(self, ring, replicated):
        service, group, _ = replicated()
        service.insert("teach", "gauss", "cs")
        tracer = Tracer()
        for record in ring.records:
            tracer.consume(record)
        (root,) = [span for span in tracer.traces
                   if span.name == "service.request"]
        nodes, edges = parse_dot(root.to_dot(name="pipeline"))
        labels: dict[str, list[str]] = {}
        for node, (_, label) in nodes.items():
            labels.setdefault(label.split("\n")[0], []).append(node)
        assert len(labels["replication.receive"]) == 2
        assert len(labels["replica.apply"]) == 2
        # Each receive hangs off a ship node: the edges cross nodes.
        for receive in labels["replication.receive"]:
            assert any(src in labels["replication.ship"] and dst == receive
                       for src, dst, _ in edges)

    def test_frame_without_trace_context_still_applies(self, ring,
                                                       replicated):
        # A commit shipped while telemetry is off must still be applied,
        # and so must the next one shipped with telemetry back on.
        service, group, _ = replicated()
        OBS.disable()
        service.insert("teach", "gauss", "cs")
        OBS.enable()
        service.insert("teach", "noether", "algebra")
        assert group.replica("r0").applied_seq == 2

    def test_pipeline_stats_cover_all_stages(self, ring, replicated):
        service, group, _ = replicated()
        service.insert("teach", "gauss", "cs")
        histograms = OBS.metrics.snapshot()["histograms"]
        for replica in ("r0", "r1"):
            for stage in ("replication.ship.rtt_seconds.",
                          "replication.pipeline.wal_append_seconds.",
                          "replication.pipeline.apply_seconds.",
                          "replication.commit.ack_seconds."):
                assert histograms.get(stage + replica, {}).get(
                    "count", 0) >= 1, f"{stage}{replica} unobserved"

    def test_disabled_telemetry_ships_bare_frames(self, replicated):
        captured = []
        service, group, _ = replicated(mode="sync(1)", replicas=1)
        link = group.shipper.link("r0")
        original = link.transport.request

        def spy(message):
            captured.append(message)
            return original(message)

        link.transport.request = spy
        service.insert("teach", "gauss", "cs")
        appends = [m for m in captured if m["type"] == "append"]
        assert appends and all("trace" not in m for m in appends)

    def test_frames_carry_only_the_protocol(self, ring, replicated):
        # A frame never leaves the process: with telemetry on or off an
        # append carries the records, the term and the high-water mark
        # — plus the lease stamp once a lease is on — and nothing else.
        service, group, _ = replicated(mode="sync(1)", replicas=1)
        link = group.shipper.link("r0")
        original = link.transport.request
        captured = []

        def spy(message):
            captured.append(message)
            return original(message)

        link.transport.request = spy

        def append_keys(fact):
            captured.clear()
            service.insert("teach", *fact)
            return {frozenset(m) for m in captured
                    if m["type"] == "append"}

        protocol = frozenset({"type", "term", "records", "through_seq"})
        assert append_keys(("gauss", "cs")) == {protocol}
        OBS.disable()
        assert append_keys(("noether", "algebra")) == {protocol}
        OBS.enable()
        replica = group.replica("r0")
        assert replica.applied_seq == 2
        assert replica.db.truth_of("teach", "noether",
                                   "algebra") is Truth.TRUE
        group.enable_lease()
        assert append_keys(("hilbert", "logic")) == {protocol | {"lease"}}
        assert replica.applied_seq == 3


class TestFailoverTraceContinuity:
    def _failover(self, replicated):
        service, group, workdir = replicated(mode="sync(1)")
        service.insert("teach", "gauss", "cs")  # old-term commit
        for link in group.shipper.links():
            link.transport.partitioned = True
        group.ack_timeout = 0.1
        with pytest.raises(Exception):
            service.insert("teach", "lost", "tail")
        for link in group.shipper.links():
            link.transport.partitioned = False
        promotion = group.promote()
        service.close(timeout=5.0)
        chosen = group.replica(promotion.chosen)
        group.remove_replica(promotion.chosen)
        new_service = DatabaseService(
            chosen.db, log=UpdateLog(chosen.wal_path),
            replication=group, node=promotion.chosen,
        )
        new_service.insert("teach", "hilbert", "logic")  # new term
        new_service.close(timeout=5.0)
        return promotion

    def test_two_disjoint_term_pipelines(self, ring, replicated):
        promotion = self._failover(replicated)
        records = list(ring.records)
        ships = _spans(records, "replication.ship")
        terms = {int(str(s.attrs["term"])) for s in ships}
        assert {promotion.old_term, promotion.new_term} <= terms
        receives = _spans(records, "replication.receive")
        by_term = {}
        for r in receives:
            by_term.setdefault(int(str(r.attrs["term"])), set()).add(
                r.span_id)
        # The two term pipelines share no spans: disjoint subtrees.
        assert by_term[promotion.old_term].isdisjoint(
            by_term[promotion.new_term])
        old_parents = {r.parent_span for r in receives
                       if int(str(r.attrs["term"])) == promotion.old_term}
        new_parents = {r.parent_span for r in receives
                       if int(str(r.attrs["term"])) == promotion.new_term}
        assert old_parents.isdisjoint(new_parents)

    def test_timeline_orders_fence_before_new_term_commits(
            self, ring, replicated):
        promotion = self._failover(replicated)
        records = list(ring.records)
        assert fence_violations(records) == []
        (fence,) = _actions(records, "replication.fence")
        assert fence.int_attr("old_term") == promotion.old_term
        assert fence.int_attr("fence_seq") == promotion.applied_seq
        commits = _actions(records, "replication.commit_acked")
        new_commits = [c for c in commits
                       if c.int_attr("term") == promotion.new_term]
        assert new_commits
        assert all(c.seq > fence.seq for c in new_commits)
        assert all(c.seq < fence.seq for c in commits
                   if c.int_attr("term") == promotion.old_term
                   and c.int_attr("seq") <= promotion.applied_seq)
        # The fence record carries the surviving links' ack state (the
        # chosen replica has already left the follower set).
        acks = json.loads(fence.attrs["acks"])
        assert set(acks) == {"r0", "r1"} - {promotion.chosen}
        survivor = acks[next(iter(acks))]
        assert set(survivor) == {"acked_seq", "acked_term",
                                 "needs_snapshot"}

    def test_render_timeline_flags_nothing_on_a_clean_failover(
            self, ring, replicated):
        # The timeline has no text form: the action records are what
        # is read, and the audit over them flags nothing.
        self._failover(replicated)
        records = list(ring.records)
        assert fence_violations(records) == []
        assert _actions(records, "replication.fence") \
            and _actions(records, "replication.promote")


class TestSnapshotCatchUp:
    def test_catch_up_installs_the_dumped_text(self, ring, replicated):
        service, group, _ = replicated(replicas=1)
        counters = OBS.metrics.snapshot()["counters"]
        assert counters.get("replication.snapshot.catch_ups", 0) >= 1
        replica = group.replica("r0")
        assert replica.db is not None
        # The frame carried the dump as-is: the span's size is the
        # size of what the replica wrote to its own disk.
        (ship,) = _spans(ring.records, "replication.ship_snapshot")
        assert int(str(ship.attrs["bytes"])) == \
            len(replica.snapshot_path.read_text(encoding="utf-8"))

    def test_install_nests_under_its_ship_span(self, ring, replicated):
        replicated(replicas=2)
        records = list(ring.records)
        ships = {r.span_id: r for r in
                 _spans(records, "replication.ship_snapshot")}
        installs = _spans(records, "replica.snapshot_install")
        assert len(ships) == len(installs) == 2
        for install in installs:
            ship = ships[install.parent_span]
            assert ship.attrs["replica"] == install.attrs["replica"]
            assert ship.attrs["wal_applied"] == \
                install.attrs["wal_applied"]

    def test_bad_snapshot_is_refused_and_changes_nothing(self,
                                                         replicated):
        service, group, _ = replicated(mode="sync(1)", replicas=1)
        service.insert("teach", "gauss", "cs")
        replica = group.replica("r0")
        on_disk = replica.snapshot_path.read_bytes()
        for text in ("not a snapshot", "{}"):
            reply = replica.handle({"type": "snapshot", "term": group.term,
                                    "snapshot": text, "wal_applied": 9})
            assert not reply["ok"]
            assert reply["error"].startswith("bad-snapshot")
            assert reply["applied_seq"] == replica.applied_seq == 1
            assert replica.snapshot_path.read_bytes() == on_disk


class TestLagSLO:
    def test_reading_the_lag_records_no_sample(self, ring, replicated):
        """``/health``, ``stats()`` and every lag-SLO evaluation read the
        lag; none of them adds a histogram sample, or the distribution
        would count how often someone looked. The gauges keep the
        level."""
        service, group, _ = replicated(mode="sync(1)", replicas=1)
        service.insert("teach", "gauss", "cs")

        def counts():
            return {name: data["count"] for name, data in
                    OBS.metrics.snapshot()["histograms"].items()}

        before = counts()
        for read in (service.health, service.stats, service.slo.evaluate):
            for _ in range(50):
                read()
            assert counts() == before, read
        gauges = OBS.metrics.snapshot()["gauges"]
        assert gauges["replication.lag.seq.r0"] == 0
        assert gauges["replication.lag.seconds.r0"] == 0.0

    def test_objective_registered_by_default(self, ring, replicated):
        service, group, _ = replicated()
        names = [o.name for o in service.slo.objectives]
        assert "replication.lag" in names

    def test_lag_breach_turns_health_503(self, ring, replicated):
        service, group, _ = replicated(
            mode="async",
            objectives=[replication_lag_objective(threshold_seq=0.5)],
        )
        service.insert("teach", "gauss", "cs")
        verdicts = service.slo.evaluate()
        assert all(v.ok for v in verdicts)
        # Partition the replicas and commit past them: worst lag > 0.5.
        for link in group.shipper.links():
            link.transport.partitioned = True
        service.insert("teach", "noether", "algebra")
        service.insert("teach", "hilbert", "logic")
        group.lag()
        service.slo.evaluate()
        assert "replication.lag" in service.slo.alerts
        service.serve_metrics()
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    service.endpoint.url + "/health", timeout=5)
            assert excinfo.value.code == 503
            body = json.loads(excinfo.value.read().decode("utf-8"))
            assert "replication.lag" in body["slo_alerts"]
        finally:
            for link in group.shipper.links():
                link.transport.partitioned = False
            service.close(timeout=5.0)

    def test_recovery_clears_the_alert(self, ring, replicated):
        import time

        # A short window so the breach sample ages out of the fast
        # window quickly once the replicas catch back up.
        service, group, _ = replicated(
            mode="async",
            objectives=[replication_lag_objective(threshold_seq=0.5,
                                                  window=0.6)],
        )
        for link in group.shipper.links():
            link.transport.partitioned = True
        service.insert("teach", "gauss", "cs")
        service.slo.evaluate()
        assert "replication.lag" in service.slo.alerts
        for link in group.shipper.links():
            link.transport.partitioned = False
        group.sync_all(timeout=5.0)
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline:
            service.slo.evaluate()
            if "replication.lag" not in service.slo.alerts:
                break
            time.sleep(0.05)
        assert "replication.lag" not in service.slo.alerts
