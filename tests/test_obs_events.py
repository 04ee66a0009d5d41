"""The structured event log: records, sinks, span-tree round trips.

Covers the typed-record surface (serialization, ordering, causal
fields), the three sink implementations, the emission gates (enabled ×
sinks-attached × tracing), and the acceptance loop: a Section 4.2
update traced to JSONL, read back, folded into a span tree by a plain
``Tracer`` and drawn as DOT.
"""

from __future__ import annotations

import json
import re

import pytest

from repro.core.dot import _DAG_STYLES
from repro.fdb import updates
from repro.fdb.updates import Update, apply_update
from repro.obs import (
    OBS,
    CallbackSink,
    EventLog,
    EventRecord,
    FileSink,
    RingBufferSink,
    Tracer,
    fence_violations,
    read_jsonl,
)
from repro.workloads.university import pupil_database, section_42_updates


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


# -- records ------------------------------------------------------------------


class TestEventRecord:
    def test_to_dict_omits_unset_fields(self):
        record = EventRecord(seq=1, ts=2.0, kind="event", name="x")
        assert record.to_dict() == {
            "seq": 1, "ts": 2.0, "kind": "event", "name": "x",
        }

    def test_round_trips_through_json(self):
        record = EventRecord(
            seq=7, ts=1.5, kind="span.end", name="update.delete",
            span_id=3, parent_span=1, cause="u2", duration=0.25,
            attrs={"function": "pupil"},
        )
        back = EventRecord.from_dict(json.loads(record.to_json()))
        assert back == record

    def test_attrs_are_stringified(self):
        record = EventRecord(seq=1, ts=0.0, kind="event", name="x",
                             attrs={"n": 3})
        assert record.to_dict()["attrs"] == {"n": "3"}


# -- sinks --------------------------------------------------------------------


class TestSinks:
    def test_ring_buffer_keeps_newest(self):
        sink = RingBufferSink(capacity=2)
        for seq in range(1, 5):
            sink.emit(EventRecord(seq=seq, ts=0.0, kind="event",
                                  name=f"e{seq}"))
        assert [r.seq for r in sink.records] == [3, 4]
        assert len(sink) == 2
        sink.clear()
        assert len(sink) == 0

    def test_file_sink_appends_jsonl(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = FileSink(path)
        sink.emit(EventRecord(seq=1, ts=0.0, kind="event", name="a"))
        sink.emit(EventRecord(seq=2, ts=0.0, kind="event", name="b"))
        sink.close()
        records = read_jsonl(path)
        assert [r.name for r in records] == ["a", "b"]

    def test_callback_sink(self):
        seen: list[EventRecord] = []
        sink = CallbackSink(seen.append)
        sink.emit(EventRecord(seq=1, ts=0.0, kind="action", name="x"))
        assert seen[0].kind == "action"


class TestEventLog:
    def test_inactive_without_sinks(self):
        log = EventLog()
        assert not log.active

    def test_add_remove_sink_toggles_active(self):
        log = EventLog()
        sink = log.add_sink(RingBufferSink())
        assert log.active
        log.remove_sink(sink)
        assert not log.active

    def test_fans_out_to_all_sinks(self):
        log = EventLog()
        a, b = RingBufferSink(), RingBufferSink()
        log.add_sink(a)
        log.add_sink(b)
        log.publish(log.record("event", "x"))
        assert len(a) == len(b) == 1

    def test_seq_is_monotone(self):
        log = EventLog()
        sink = log.add_sink(RingBufferSink())
        log.publish(log.record("event", "a"))
        log.publish(log.record("event", "b"))
        seqs = [r.seq for r in sink.records]
        assert seqs == sorted(seqs) and len(set(seqs)) == 2


# -- emission gates -----------------------------------------------------------


class TestEmissionGates:
    def test_no_records_while_disabled(self):
        sink = OBS.events.add_sink(RingBufferSink())
        db = pupil_database()
        apply_update(db, section_42_updates()[0])
        assert len(sink) == 0

    def test_records_flow_without_tracing(self):
        """Events are decoupled from span-tree construction."""
        sink = OBS.events.add_sink(RingBufferSink())
        with OBS.collecting():  # tracing stays off
            db = pupil_database()
            apply_update(db, section_42_updates()[0])
        assert OBS.tracer.last_trace is None
        kinds = {r.kind for r in sink.records}
        assert "span.start" in kinds and "span.end" in kinds

    def test_span_ids_nest_and_share_a_cause(self):
        sink = OBS.events.add_sink(RingBufferSink())
        with OBS.collecting():
            db = pupil_database()
            apply_update(db, section_42_updates()[0])
        ends = [r for r in sink.records if r.kind == "span.end"]
        roots = [r for r in ends if r.parent_span is None]
        children = [r for r in ends if r.parent_span is not None]
        assert roots and all(r.cause == "u1" for r in ends)
        span_ids = {r.span_id for r in ends}
        for child in children:
            assert child.parent_span in span_ids

    def test_action_records_stand_alone(self):
        sink = OBS.events.add_sink(RingBufferSink())
        OBS.enable()
        OBS.action("recovery.start", policy="strict")
        (record,) = sink.records
        assert record.kind == "action"
        assert record.span_id is None
        assert record.attrs == {"policy": "strict"}


class TestAttribution:
    """A REP is a DEL plus an INS: the nested updates belong to the
    replace's update id whatever is attached, because there is one
    span stack and it is kept whenever collection is on."""

    @pytest.mark.parametrize("attached", ["metrics", "tracing", "ring"])
    def test_replace_cascade_shares_one_cause(self, attached, monkeypatch):
        seen = []

        def spy(step):
            def spied(db, name, x, y):
                seen.append((step.__name__, OBS.current_cause()))
                step(db, name, x, y)
            return spied

        for step in ("base_delete", "base_insert"):
            monkeypatch.setattr(updates, step, spy(getattr(updates, step)))
        if attached == "ring":
            ring = OBS.events.add_sink(RingBufferSink())
        db = pupil_database()
        with OBS.collecting(tracing=attached == "tracing"):
            db.replace("teach", ("euclid", "math"), ("euclid", "physics"))
            after = OBS.new_update_id()
        assert seen == [("base_delete", "u1"), ("base_insert", "u1")]
        assert after == "u2"
        if attached == "tracing":
            spans = list(OBS.tracer.last_trace.walk())
        elif attached == "ring":
            spans = [r for r in ring.records if r.kind == "span.end"]
        else:
            return  # nothing attached: the stack alone carries the cause
        assert {(span.name, span.cause) for span in spans
                if span.name.startswith("update.")} == {
            ("update.replace", "u1"), ("update.delete", "u1"),
            ("update.insert", "u1")}


# -- the span tree drawn as DOT ------------------------------------------------


def _trace(tmp_path, *updates):
    path = tmp_path / "trace.jsonl"
    sink = FileSink(path)
    db = pupil_database()
    with OBS.collecting(tracing=True):
        OBS.events.add_sink(sink)
        try:
            for update in updates:
                apply_update(db, update)
        finally:
            OBS.events.remove_sink(sink)
    return read_jsonl(path)


def _trace_u1(tmp_path):
    return _trace(tmp_path, section_42_updates()[0])


def _fold(records) -> tuple:
    """The finished roots a plain tracer folds ``records`` into."""
    tracer = Tracer()
    for record in records:
        tracer.consume(record)
    return tracer.traces


_NODE = re.compile(r'  "([^"]+)" \[label="((?:[^"\\]|\\.)*)"(?:, (.*))?\];')
_EDGE = re.compile(r'  "([^"]+)" -> "([^"]+)"(?: \[label="([^"]*)"\])?;')
_KINDS = {style: kind for kind, style in _DAG_STYLES.items()}


def parse_dot(dot: str) -> tuple[dict, list]:
    """``({node id: (kind, label)}, [(src, dst, label)])`` of a DOT
    text drawn by :func:`repro.core.dot.dag_to_dot`."""
    nodes, edges = {}, []
    for line in dot.splitlines():
        if match := _NODE.fullmatch(line):
            label = re.sub(r"\\(.)", lambda m: "\n" if m[1] == "n"
                           else m[1], match[2])
            nodes[match[1]] = (_KINDS.get(match[3]), label)
        elif match := _EDGE.fullmatch(line):
            edges.append((match[1], match[2], match[3] or ""))
    return nodes, edges


# What the record-stream DAG fold drew for Section 4.2's u1 read back
# from JSONL, before the span tree became the one fold: node (kind,
# label) pairs without the "[... ms]" line, and edges as label pairs.
U1_NODES = [
    ("cause", "u1"),
    ("event", "chain.evaluated\n"
              "chain=<teach, euclid, math> . <class_list, math, john>"),
    ("event", "chains.matched\ncount=1 function=pupil"),
    ("event", "nc.created\nchain=<teach, euclid, math> . "
              "<class_list, math, john> index=g1"),
    ("span", "update.delete\nfunction=pupil x=euclid y=john"),
]
U1_EDGES = [
    ("u1", "update.delete\nfunction=pupil x=euclid y=john"),
    ("update.delete\nfunction=pupil x=euclid y=john",
     "chain.evaluated\n"
     "chain=<teach, euclid, math> . <class_list, math, john>"),
    ("update.delete\nfunction=pupil x=euclid y=john",
     "chains.matched\ncount=1 function=pupil"),
    ("update.delete\nfunction=pupil x=euclid y=john",
     "nc.created\nchain=<teach, euclid, math> . "
     "<class_list, math, john> index=g1"),
]


class TestPropagationDag:
    """The span tree the records fold into, drawn by ``Span.to_dot``."""

    def test_section_42_round_trip(self, tmp_path):
        """The acceptance loop: events -> JSONL -> span tree -> DOT."""
        records = _trace_u1(tmp_path)
        live = OBS.tracer.last_trace
        (root,) = _fold(records)
        dot = root.to_dot(name="u1")
        assert dot.startswith('digraph "u1"')
        nodes, edges = parse_dot(dot)
        assert len(nodes) == 5 and len(edges) == 4
        # The cause node is a source and points at the root span.
        (cause,) = [n for n, (kind, _) in nodes.items() if kind == "cause"]
        assert nodes[cause][1] == "u1"
        assert (cause, f"s{root.span_id}", "causes") in edges
        assert cause not in {dst for _, dst, _ in edges}
        # The live tree draws the same nodes and edges.
        assert parse_dot(live.to_dot(name="u1"))[1] == edges

    def test_u1_draws_what_the_record_fold_drew(self, tmp_path):
        (root,) = _fold(_trace_u1(tmp_path))
        nodes, edges = parse_dot(root.to_dot())
        labels = {node: label.split("\n[")[0]
                  for node, (_, label) in nodes.items()}
        assert sorted((kind, labels[node])
                      for node, (kind, _) in nodes.items()) == U1_NODES
        assert sorted((labels[src], labels[dst])
                      for src, dst, _ in edges) == U1_EDGES

    def test_same_trace_same_dag(self, tmp_path):
        records = _trace_u1(tmp_path)
        (once,) = _fold(records)
        (twice,) = _fold(records)
        assert once.to_dot() == twice.to_dot()

    def test_truncated_stream_folds_only_finished_trees(self, tmp_path):
        """A torn tail loses a root's ``span.end``: the fold keeps the
        roots that finished, whole, and draws nothing of the torn one
        — not even its children that did finish."""
        records = _trace(tmp_path, section_42_updates()[0],
                         Update.rep("teach", ("gauss", "cs"),
                                    ("gauss", "math")))
        whole = _fold(records)
        assert [root.name for root in whole] == \
            ["update.delete", "update.replace"]
        child_end = next(i for i, r in enumerate(records)
                         if r.kind == "span.end"
                         and r.parent_span == whole[1].span_id)
        torn = _fold(records[:child_end + 1])
        assert [root.to_dot() for root in torn] == [whole[0].to_dot()]

    def test_live_trace_matches_the_ring(self):
        """The tracer's tree is a fold of the very records the sinks
        receive."""
        ring = OBS.events.add_sink(RingBufferSink())
        with OBS.collecting(tracing=True):
            apply_update(pupil_database(), section_42_updates()[0])
        assert_trees_match_records(OBS.tracer.traces, ring.records)


def assert_trees_match_records(roots, records) -> None:
    """Each tracer root agrees with the raw ``records``: a span's
    name and parent are its ``span.start`` record's, its children are
    the spans whose start names it as ``parent_span``, its events are
    the ``event`` / ``action`` records of its id in record order, and
    its cause, duration and attrs are its ``span.end`` record's."""
    starts = {r.span_id: r for r in records if r.kind == "span.start"}
    ends = {r.span_id: r for r in records if r.kind == "span.end"}
    children: dict[int | None, list[int]] = {}
    marks: dict[int | None, list[tuple]] = {}
    for record in records:
        if record.kind == "span.start":
            children.setdefault(record.parent_span,
                                []).append(record.span_id)
        elif record.kind != "span.end":
            marks.setdefault(record.span_id, []).append(
                (record.kind, record.name, record.attrs))
    assert roots
    for root in roots:
        for span in root.walk():
            start, end = starts[span.span_id], ends[span.span_id]
            assert (span.name, span.parent_id) == \
                (start.name, start.parent_span)
            assert sorted(child.span_id for child in span.children) \
                == sorted(children.get(span.span_id, []))
            assert [(e.kind, e.name, e.attrs) for e in span.events] \
                == marks.get(span.span_id, [])
            assert (span.cause, span.duration, span.attrs) == \
                (end.cause, end.duration, end.attrs)


# -- the failover audit over action records ----------------------------------


def _action(order, name, **attrs):
    return EventRecord(seq=order, ts=float(order), kind="action",
                       name=name, attrs=attrs)


class TestReplicationTimeline:
    """:func:`fence_violations`, the rule the soak's fence audit runs
    over the ``replication.*`` action records it keeps."""

    def test_folds_only_the_lifecycle_vocabulary(self):
        # Only commit_acked / fence *action* records count: a span or an
        # event of the same name, or another action, is not audited.
        fence = _action(2, "replication.fence", old_term=1, new_term=2,
                        fence_seq=1, chosen="r0")
        noise = [
            _action(1, "replication.primary_attached", term=1,
                    node="primary"),
            _action(3, "recovery.start"),
            EventRecord(seq=4, ts=4.0, kind="span.end",
                        name="replication.commit_acked", span_id=9,
                        attrs={"seq": 7, "term": 1}),
            EventRecord(seq=5, ts=5.0, kind="event",
                        name="replication.commit_acked", span_id=9,
                        attrs={"seq": 7, "term": 1}),
        ]
        assert fence_violations([fence, *noise]) == []
        assert fence_violations([
            fence, _action(6, "replication.commit_acked", seq=7, term=1),
        ])

    def test_attrs_survive_jsonl_stringification(self, tmp_path):
        # A FileSink round trip stringifies attr values; the audit must
        # still read seq/term/fence_seq as integers.
        sink = FileSink(tmp_path / "events.jsonl")
        OBS.events.add_sink(sink)
        OBS.enable()
        OBS.action("replication.commit_acked", seq=7, term=2, acks=1)
        OBS.action("replication.fence", old_term=2, new_term=3,
                   fence_seq=6, chosen="r0")
        OBS.disable()
        OBS.events.remove_sink(sink)
        sink.close()
        records = read_jsonl(tmp_path / "events.jsonl")
        assert all(isinstance(value, str)
                   for record in records for value in record.attrs.values())
        assert fence_violations(records) == [
            "commit seq=7 term=2 acked above its fence at seq 6"]

    def test_fence_violations_detects_reordering(self):
        assert fence_violations([
            _action(1, "replication.commit_acked", seq=1, term=1),
            _action(2, "replication.fence", old_term=1, new_term=2,
                    fence_seq=1, chosen="r0"),
            _action(3, "replication.commit_acked", seq=2, term=2),
        ]) == []
        # An acked old-term commit at/below the fence appearing after
        # the fence record is a reordering the audit must flag.
        assert fence_violations([
            _action(1, "replication.fence", old_term=1, new_term=2,
                    fence_seq=5, chosen="r0"),
            _action(2, "replication.commit_acked", seq=3, term=1),
        ]) == ["commit seq=3 term=1 recorded after its fence"]
        # Order is the records' seq, not the order they are handed in.
        assert fence_violations([
            _action(3, "replication.commit_acked", seq=2, term=2),
            _action(2, "replication.fence", old_term=1, new_term=2,
                    fence_seq=1, chosen="r0"),
            _action(1, "replication.commit_acked", seq=1, term=1),
        ]) == []

    def test_commit_acked_above_the_fence_is_flagged(self):
        """An old-term commit acked past the fence seq was lost by the
        failover, whichever side of the fence record it was logged."""
        fence = _action(2, "replication.fence", old_term=1, new_term=2,
                        fence_seq=5, chosen="r0")
        for order in (1, 3):
            commit = _action(order, "replication.commit_acked", seq=6,
                             term=1)
            assert any("above its fence" in problem
                       for problem in fence_violations([commit, fence]))

    def test_new_term_commit_before_fence_is_flagged(self):
        assert fence_violations([
            _action(1, "replication.commit_acked", seq=9, term=2),
            _action(2, "replication.fence", old_term=1, new_term=2,
                    fence_seq=5, chosen="r0"),
        ]) == ["term 2 commit recorded before the fence of term 1"]

    def test_to_jsonl_round_trips(self):
        # The soak's timeline artifact is one EventRecord.to_json() per
        # line; read back, it gives the audit the same verdict.
        records = [
            _action(1, "replication.promote", chosen="r0",
                    applied_seq=4, old_term=1, new_term=2),
            _action(2, "replication.fence", old_term=1, new_term=2,
                    fence_seq=4, chosen="r0"),
            _action(3, "replication.commit_acked", seq=5, term=1),
            _action(4, "replication.rejoin", replica="old",
                    old_term=1, fence_seq=4, records_dropped=1,
                    rebootstrapped=False),
        ]
        lines = "".join(record.to_json() + "\n" for record in records)
        decoded = [EventRecord.from_dict(json.loads(line))
                   for line in lines.splitlines()]
        assert [(d.seq, d.name) for d in decoded] == \
            [(r.seq, r.name) for r in records]
        assert decoded[3].int_attr("fence_seq") == 4
        assert fence_violations(decoded) == fence_violations(records) \
            != []

    def test_a_commit_run_keeps_one_entry_per_commit(self):
        run = [_action(i, "replication.commit_acked", seq=i, term=1)
               for i in range(1, 8)]
        assert fence_violations(run) == []
        fence = _action(8, "replication.fence", old_term=1, new_term=2,
                        fence_seq=7, chosen="r0")
        assert fence_violations([*run, fence]) == []
        # Every commit is audited on its own: two past a lower fence are
        # two violations.
        low = _action(8, "replication.fence", old_term=1, new_term=2,
                      fence_seq=5, chosen="r0")
        assert len(fence_violations([*run, low])) == 2
