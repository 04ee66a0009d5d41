"""Distributed replication observability: cross-node trace
propagation through the shipping frames, the commit-pipeline
instruments, snapshot-frame compression, wire compatibility of
trace-carrying frames, the failover audit timeline, and the lag SLO.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.fdb import persistence
from repro.fdb.logic import Truth
from repro.fdb.updates import Update
from repro.fdb.wal import LoggedDatabase, UpdateLog
from repro.obs import (
    OBS,
    RingBufferSink,
    Tracer,
    replication_timeline,
)
from repro.obs.slo import replication_lag_objective
from repro.replication import (InProcessTransport, Replica,
                               ReplicationGroup)
from repro.replication.transport import (
    SNAPSHOT_ENCODING,
    decode_snapshot,
    encode_snapshot,
)
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
        # A primary with tracing off ships frames without the trace
        # key; the replica must apply them and open unparented spans.
        service, group, _ = replicated()
        OBS.disable()
        service.insert("teach", "gauss", "cs")
        OBS.enable()
        service.insert("teach", "noether", "algebra")
        assert group.replica("r0").applied_seq == 2

    def test_pipeline_stats_cover_all_stages(self, ring, replicated):
        service, group, _ = replicated()
        service.insert("teach", "gauss", "cs")
        stats = group.pipeline_stats()
        for replica in ("r0", "r1"):
            stages = stats.get(replica, {})
            for stage in ("ship_rtt", "wal_append", "apply",
                          "commit_ack"):
                assert stages.get(stage, {}).get("count", 0) >= 1, \
                    f"{replica}/{stage} unobserved"

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
        timeline = replication_timeline(list(ring.records))
        assert timeline.fence_violations() == []
        fences = timeline.of_kind("fence")
        assert len(fences) == 1
        fence = fences[0]
        assert fence.term == promotion.old_term
        assert fence.fence_seq == promotion.applied_seq
        new_commits = timeline.commits(term=promotion.new_term)
        assert new_commits
        assert all(c.order > fence.order for c in new_commits)
        old_commits = timeline.commits(term=promotion.old_term)
        assert all(c.order < fence.order for c in old_commits
                   if c.commit_seq is not None
                   and c.commit_seq <= fence.fence_seq)
        # The fence entry carries the surviving links' ack state (the
        # chosen replica has already left the follower set).
        acks = json.loads(fence.attrs["acks"])
        assert set(acks) == {"r0", "r1"} - {promotion.chosen}
        survivor = acks[next(iter(acks))]
        assert set(survivor) == {"acked_seq", "acked_term",
                                 "needs_snapshot"}

    def test_render_timeline_flags_nothing_on_a_clean_failover(
            self, ring, replicated):
        # The timeline is no longer rendered as text; what the rendering
        # flagged (a fence-order violation) and the entries it listed are
        # read from the timeline itself.
        self._failover(replicated)
        timeline = replication_timeline(list(ring.records))
        assert timeline.fence_violations() == []
        assert timeline.of_kind("fence") and timeline.of_kind("promote")


class TestSnapshotCompression:
    def test_round_trip(self):
        text = json.dumps({"k": ["v"] * 200})
        payload, encoding, raw, wire = encode_snapshot(text)
        assert encoding == SNAPSHOT_ENCODING
        assert raw == len(text.encode("utf-8"))
        assert wire < raw  # repetitive JSON must actually compress
        assert decode_snapshot(payload, encoding) == text

    def test_uncompressed_frames_stay_readable(self):
        assert decode_snapshot("plain dump", None) == "plain dump"
        assert decode_snapshot("plain dump", "") == "plain dump"

    def test_unknown_encoding_is_refused(self):
        with pytest.raises(ValueError):
            decode_snapshot("payload", "lz9")

    def test_corrupt_payload_is_refused(self):
        with pytest.raises(ValueError):
            decode_snapshot("!!not-base64!!", SNAPSHOT_ENCODING)

    def test_catch_up_counts_bytes_both_sides(self, ring, replicated):
        service, group, _ = replicated(replicas=1)
        counters = OBS.metrics.snapshot()["counters"]
        raw = counters.get("replication.snapshot.bytes_raw", 0)
        wire = counters.get("replication.snapshot.bytes_wire", 0)
        assert raw > 0 and 0 < wire < raw
        assert counters.get("replication.snapshot.catch_ups", 0) >= 1
        assert group.replica("r0").db is not None


class TestFrameCompatibility:
    def test_frames_round_trip_unknown_keys(self, tmp_path, ring, closing):
        # An append frame carrying the trace context plus a key no
        # replica knows about must be applied, not refused — frames are
        # schemaless, so older peers skip what they don't understand.
        workdir = tmp_path / "primary"
        workdir.mkdir()
        db = pupil_database()
        persistence.save(db, workdir / "snapshot.json", wal_applied=0)

        logged = closing(LoggedDatabase(db, workdir / "wal.log"))
        replica = closing(Replica("r0", tmp_path / "r0"))
        delivered = []

        def handler(message):
            message = {**message, "x-future-extension": {"nested": [1, 2]}}
            delivered.append(message)
            return replica.handle(message)

        group = ReplicationGroup("sync(1)", ack_timeout=2.0,
                                 retry_interval=0.005)
        group.attach_primary(logged)
        group.add_replica("r0", InProcessTransport(handler))
        # With telemetry on, the shipped frame carries "trace".
        seq = logged.execute(Update.ins("teach", "gauss", "cs"))
        group.on_commit(seq)
        assert any(m.get("type") == "append" and "trace" in m
                   for m in delivered)
        assert replica.applied_seq == seq
        assert replica.db.truth_of("teach", "gauss", "cs") is Truth.TRUE

    def test_frame_missing_trace_context(self, tmp_path, closing):
        # Telemetry off end to end: no trace key anywhere, replica
        # applies regardless (backward compatibility).
        workdir = tmp_path / "primary"
        workdir.mkdir()
        db = pupil_database()
        persistence.save(db, workdir / "snapshot.json", wal_applied=0)

        logged = closing(LoggedDatabase(db, workdir / "wal.log"))
        replica = closing(Replica("r0", tmp_path / "r0"))
        delivered = []

        def handler(message):
            delivered.append(message)
            return replica.handle(message)

        group = ReplicationGroup("sync(1)", ack_timeout=2.0,
                                 retry_interval=0.005)
        group.attach_primary(logged)
        group.add_replica("r0", InProcessTransport(handler))
        seq = logged.execute(Update.ins("teach", "gauss", "cs"))
        group.on_commit(seq)
        assert delivered and not any("trace" in m for m in delivered)
        assert replica.applied_seq == seq


class TestLagSLO:
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
