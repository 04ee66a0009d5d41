"""Concurrency smoke tests for the instrumentation context.

The registries promise exact aggregates under concurrent writers and
per-thread span nesting (one contextvar stack), and the tracer's trees
stay a fold of the record stream however the threads interleave.
These tests hammer the primitives from many threads and assert the
totals are exact — lost updates, not crashes, are the realistic
failure mode of unlocked ``+=`` sections.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.obs import OBS, MetricsRegistry, RingBufferSink, tracing
from tests.test_obs_events import assert_trees_match_records

THREADS = 8
ITERS = 300


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


def _run_threads(work) -> None:
    threads = [
        threading.Thread(target=work, args=(index,))
        for index in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()


class TestMetricsUnderThreads:
    def test_counter_total_is_exact(self):
        registry = MetricsRegistry()

        def work(_index):
            for _ in range(ITERS):
                registry.counter("hits").inc()

        _run_threads(work)
        assert registry.counter("hits").value == THREADS * ITERS

    def test_histogram_count_is_exact(self):
        registry = MetricsRegistry()

        def work(index):
            for i in range(ITERS):
                registry.histogram("h").observe(float(index * i))

        _run_threads(work)
        assert registry.histogram("h").count == THREADS * ITERS

    def test_registry_creation_race_yields_one_instrument(self):
        registry = MetricsRegistry()
        instruments = []

        def work(_index):
            instruments.append(registry.counter("shared"))

        _run_threads(work)
        assert all(c is instruments[0] for c in instruments)


class TestTracerUnderThreads:
    def test_span_stacks_are_per_thread(self):
        """A span opened on one thread never becomes the parent of
        another thread's span."""
        OBS.enable(tracing=True)

        def work(index):
            for _ in range(ITERS // 10):
                with OBS.span(f"outer-{index}"):
                    with OBS.span(f"inner-{index}"):
                        pass

        _run_threads(work)
        roots = OBS.tracer.traces
        assert 0 < len(roots) <= tracing.MAX_TRACES
        for outer in roots:
            (inner,) = outer.children
            assert inner.name == outer.name.replace("outer", "inner")
            assert inner.parent_id == outer.span_id

    def test_span_ids_are_unique(self):
        sink = OBS.events.add_sink(RingBufferSink(capacity=100_000))
        OBS.enable(tracing=True)

        def work(_index):
            for _ in range(ITERS // 10):
                with OBS.span("s"):
                    pass

        _run_threads(work)
        ids = [r.span_id for r in sink.records if r.kind == "span.end"]
        assert len(ids) == THREADS * (ITERS // 10) == len(set(ids))
        assert {root.span_id for root in OBS.tracer.traces} <= set(ids)

    def test_every_tree_is_a_fold_of_the_records(self, monkeypatch):
        """Random nested span/event programs on eight threads: each
        root the tracer keeps has the edges, events and causes the
        ring's records fold to."""
        monkeypatch.setattr(tracing, "MAX_TRACES", 10_000)
        ring = OBS.events.add_sink(RingBufferSink(capacity=100_000))
        OBS.enable(tracing=True)
        rounds = 20

        def program(rng, index, depth):
            for step in range(rng.randint(1, 3)):
                if depth < 4 and rng.random() < 0.5:
                    cause = f"x{index}" if rng.random() < 0.2 else None
                    with OBS.span(f"t{index}.d{depth}", cause=cause,
                                  step=step):
                        program(rng, index, depth + 1)
                else:
                    OBS.event(f"t{index}.e{depth}", step=step)

        def work(index):
            rng = random.Random(index)
            for n in range(rounds):
                with OBS.span(f"t{index}.root", cause=f"u{index}.{n}"):
                    program(rng, index, 1)

        # Switch threads often, so records of different threads
        # interleave at the emit point and inside the tracer.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _run_threads(work)
        finally:
            sys.setswitchinterval(interval)
        roots = OBS.tracer.traces
        assert len(roots) == THREADS * rounds
        assert_trees_match_records(roots, ring.records)
        for root in roots:
            override = "x" + root.name.split(".")[0][1:]
            for span in root.walk():
                for child in span.children:
                    assert child.cause in (span.cause, override)


class TestPipelineUnderThreads:
    def test_instrumented_spans_with_events(self):
        """The full span pipeline (ids, context stack, event emission)
        survives concurrent use: every span.start has a span.end and
        ids never collide."""
        sink = OBS.events.add_sink(RingBufferSink(capacity=100_000))
        OBS.enable()

        def work(index):
            for i in range(ITERS // 10):
                with OBS.span(f"update.t{index}", cause=f"u{index}"):
                    OBS.inc("work.done")

        _run_threads(work)
        total = THREADS * (ITERS // 10)
        assert OBS.metrics.counter("work.done").value == total
        starts = [r for r in sink.records if r.kind == "span.start"]
        ends = [r for r in sink.records if r.kind == "span.end"]
        assert len(starts) == len(ends) == total
        ids = [r.span_id for r in ends]
        assert len(ids) == len(set(ids))
        # Causes stay with their thread's spans.
        for record in ends:
            assert record.cause == record.name.replace("update.t", "u")
