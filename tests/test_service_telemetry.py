"""Service-level telemetry: request lifecycle spans, RED metrics,
contention profiling, breaker gauge accounting and the service-owned
metrics endpoint.

The request tracing contract: every ``DatabaseService`` entry point
opens a ``service.request`` span carrying a request id and operation
family, with admission wait, lock acquisition, retry attempts, engine
execution and WAL commit nested under it, and stamps
``committed=True`` on the span only once the write actually committed
— the invariant the chaos soak cross-checks against
``committed_ops()``.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.errors import LockTimeout, ServiceReadOnly
from repro.faults import FAULTS, TransientError
from repro.obs import OBS, RingBufferSink
from repro.service import (
    CLOSED,
    EXCLUSIVE,
    HALF_OPEN,
    OPEN,
    WRITE_RESOURCE,
    CircuitBreaker,
    DatabaseService,
    RetryPolicy,
)
from repro.service.breaker import STATE_CODE
from repro.fdb.updates import Update
from repro.workloads.university import pupil_database


def _scrub():
    OBS.disable()
    OBS.reset()
    OBS.metrics.clear()


@pytest.fixture(autouse=True)
def clean_state():
    _scrub()
    FAULTS.disarm_all()
    yield
    FAULTS.disarm_all()
    _scrub()


def observed_service(closing, tmp_path,
                     **kwargs) -> tuple[DatabaseService, RingBufferSink]:
    OBS.enable()
    sink = OBS.events.add_sink(RingBufferSink(capacity=4096))
    service = closing(DatabaseService(pupil_database(),
                                      log=tmp_path / "wal.jsonl", **kwargs))
    return service, sink


def spans(sink: RingBufferSink, name: str, kind: str = "span.end"):
    return [r for r in sink.records if r.kind == kind and r.name == name]


class TestRequestLifecycleSpans:
    def test_execute_produces_a_complete_span_tree(self, closing, tmp_path):
        service, sink = observed_service(closing, tmp_path)
        try:
            service.execute(Update.ins("teach", "gauss", "cs"))
        finally:
            OBS.events.remove_sink(sink)
        (request,) = spans(sink, "service.request")
        assert request.attrs["family"] == "execute"
        assert request.attrs["request"].startswith("r")
        assert request.attrs["committed"] is True
        # Every stage ran under the request span's subtree.
        for stage in ("service.admission", "service.attempt",
                      "service.locks", "service.engine", "wal.commit"):
            assert spans(sink, stage), f"missing {stage} span"
        (attempt,) = spans(sink, "service.attempt")
        assert attempt.attrs["attempt"] == 1
        # The request span is the root of its tree.
        (start,) = spans(sink, "service.request", "span.start")
        assert start.parent_span is None

    @pytest.mark.parametrize("observed", [True, False],
                             ids=["obs-on", "obs-off"])
    def test_lock_timeouts_retry_under_the_policy(self, closing, tmp_path,
                                                  observed):
        """A write whose token is held elsewhere times out and retries
        the policy's attempts, OBS on or off: the same retry and
        timeout counts, and with OBS on one ``service.attempt`` span
        per try, numbered from 1, and one ``service.retry`` event per
        retry."""
        service, sink = observed_service(
            closing, tmp_path, lock_timeout=0.02,
            retry=RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0))
        if not observed:
            OBS.disable()
        service.locks.acquire(WRITE_RESOURCE, EXCLUSIVE, owner=-1)
        try:
            with pytest.raises(LockTimeout):
                service.execute(Update.ins("teach", "gauss", "cs"))
        finally:
            service.locks.release(WRITE_RESOURCE, EXCLUSIVE, owner=-1)
            OBS.events.remove_sink(sink)
        stats = service.stats()
        assert (stats["retries"], stats["lock_timeouts"]) == (2, 2)
        attempts = [r.attrs["attempt"] for r in spans(sink, "service.attempt")]
        retries = [r.attrs["attempt"] for r in sink.records
                   if r.kind == "event" and r.name == "service.retry"]
        if observed:
            assert attempts == [1, 2, 3]
            assert retries == [0, 1]
        else:
            assert attempts == retries == []
        service.execute(Update.ins("teach", "gauss", "cs"))
        assert service.committed_ops() == (Update.ins("teach", "gauss", "cs"),)

    def test_read_request_is_not_marked_committed(self, closing, tmp_path):
        service, sink = observed_service(closing, tmp_path)
        try:
            service.truth_of("teach", "euclid", "math")
        finally:
            OBS.events.remove_sink(sink)
        (request,) = spans(sink, "service.request")
        assert request.attrs["family"] == "read"
        assert request.attrs["committed"] is False

    def test_failed_execute_is_not_marked_committed(self, closing, tmp_path):
        service, sink = observed_service(closing, tmp_path)
        FAULTS.arm("wal.append.before", TransientError(times=10 ** 6))
        try:
            with pytest.raises(Exception):
                service.execute(Update.ins("teach", "gauss", "cs"))
        finally:
            OBS.events.remove_sink(sink)
        (request,) = spans(sink, "service.request")
        assert request.attrs["committed"] is False
        assert service.committed_ops() == ()

    def test_request_ids_are_unique_per_request(self, closing, tmp_path):
        service, sink = observed_service(closing, tmp_path)
        try:
            service.execute(Update.ins("teach", "gauss", "cs"))
            service.truth_of("teach", "gauss", "cs")
        finally:
            OBS.events.remove_sink(sink)
        ids = [r.attrs["request"]
               for r in spans(sink, "service.request", "span.start")]
        assert len(ids) == 2
        assert len(set(ids)) == 2


class TestRedMetrics:
    def test_per_family_rate_error_duration(self, closing, tmp_path):
        service, sink = observed_service(closing, tmp_path)
        try:
            service.execute(Update.ins("teach", "gauss", "cs"))
            service.truth_of("teach", "gauss", "cs")
            FAULTS.arm("wal.append.before", TransientError(times=10 ** 6))
            with pytest.raises(Exception):
                service.execute(Update.ins("teach", "noether", "algebra"))
        finally:
            OBS.events.remove_sink(sink)
        metrics = OBS.metrics
        assert metrics.counter("service.red.execute.requests").value == 2
        assert metrics.counter("service.red.execute.errors").value == 1
        assert metrics.counter("service.red.read.requests").value == 1
        duration = metrics.histogram(
            "service.red.execute.duration_seconds")
        assert duration.count == 2

    def test_slo_monitor_sees_every_request(self, closing, tmp_path):
        service, sink = observed_service(closing, tmp_path)
        try:
            for i in range(5):
                service.execute(Update.ins("teach", f"t{i}", f"c{i}"))
        finally:
            OBS.events.remove_sink(sink)
        assert service.slo.snapshot()["window_samples"] == 5
        stats = service.stats()
        assert stats["slo_healthy"] is True
        assert stats["slo_alerts"] == []


class TestContentionProfiling:
    def test_per_cluster_wait_and_hold_histograms(self, closing, tmp_path):
        service, sink = observed_service(closing, tmp_path)
        try:
            service.execute(Update.ins("teach", "gauss", "cs"))
        finally:
            OBS.events.remove_sink(sink)
        names = {ins.name for ins in OBS.metrics}
        waits = [n for n in names
                 if n.startswith("service.lock.wait.exclusive.")]
        holds = [n for n in names
                 if n.startswith("service.lock.hold.exclusive.")]
        assert waits and holds
        # The write token is always locked exclusively on the write path.
        assert any(n.endswith("__write__") for n in waits)
        assert any(n.endswith("__write__") for n in holds)
        hold = OBS.metrics.histogram(
            next(n for n in holds if n.endswith("__write__")))
        assert hold.count >= 1


class TestBreakerProbeAccounting:
    def test_probe_slot_released_on_success(self):
        clock_now = [0.0]
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=1.0,
                                 clock=lambda: clock_now[0])
        breaker.record_failure()
        assert breaker.state == OPEN
        clock_now[0] = 2.0
        breaker.allow()  # HALF_OPEN, probe slot taken
        assert breaker.state == HALF_OPEN
        breaker.record_success()
        assert breaker.state == CLOSED
        # The slot came back: an immediate next operation is admitted.
        breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED

    def test_probe_slot_released_on_failure(self):
        clock_now = [0.0]
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=1.0,
                                 clock=lambda: clock_now[0])
        breaker.record_failure()
        clock_now[0] = 2.0
        breaker.allow()
        assert breaker.state == HALF_OPEN
        breaker.record_failure()
        assert breaker.state == OPEN  # re-opened, probes zeroed
        clock_now[0] = 4.0
        breaker.allow()  # a fresh probe slot exists after the re-trip
        assert breaker.state == HALF_OPEN

    def test_release_probe_returns_slot_without_a_verdict(self):
        clock_now = [0.0]
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=1.0,
                                 clock=lambda: clock_now[0])
        breaker.record_failure()
        clock_now[0] = 2.0
        breaker.allow()
        # Quota exhausted: a second candidate is rejected...
        with pytest.raises(ServiceReadOnly):
            breaker.allow()
        # ...until the first ends without a storage verdict.
        breaker.release_probe()
        breaker.allow()
        assert breaker.state == HALF_OPEN

    def test_state_gauge_and_events_agree_with_committed_ops(
            self, closing, tmp_path):
        service, sink = observed_service(
            closing, tmp_path,
            breaker=CircuitBreaker(failure_threshold=2,
                                   reset_timeout=0.05),
        )
        try:
            service.execute(Update.ins("teach", "gauss", "cs"))
            FAULTS.arm("wal.append.before", TransientError(times=10 ** 6))
            for _ in range(2):
                with pytest.raises(Exception):
                    service.execute(
                        Update.ins("teach", "noether", "algebra"))
            assert service.breaker.state == OPEN
            assert OBS.metrics.gauge("service.breaker.state").value == \
                STATE_CODE[OPEN]
            # Failing fast is an error, not a commit.
            with pytest.raises(ServiceReadOnly):
                service.execute(Update.ins("teach", "noether", "algebra"))
            FAULTS.disarm_all()
            time.sleep(0.1)
            service.execute(Update.ins("teach", "noether", "algebra"))
            assert service.breaker.state == CLOSED
            assert OBS.metrics.gauge("service.breaker.state").value == \
                STATE_CODE[CLOSED]
        finally:
            OBS.events.remove_sink(sink)
        # Exactly the two successful writes committed, and exactly two
        # request spans carry committed=True.
        assert len(service.committed_ops()) == 2
        committed_spans = [
            r for r in sink.records
            if r.kind == "span.end" and r.name == "service.request"
            and r.attrs.get("committed") is True
        ]
        assert len(committed_spans) == 2
        actions = [r.name for r in sink.records if r.kind == "action"]
        assert "breaker.open" in actions
        assert "breaker.half_open" in actions
        assert "breaker.closed" in actions


class TestServiceEndpoint:
    def test_serve_metrics_exposes_service_health(self, tmp_path):
        from repro.obs.endpoint import parse_prometheus

        OBS.enable()
        service = DatabaseService(pupil_database(),
                                  log=tmp_path / "wal.jsonl")
        try:
            service.execute(Update.ins("teach", "gauss", "cs"))
            endpoint = service.serve_metrics()
            assert service.serve_metrics() is endpoint  # idempotent
            body = urllib.request.urlopen(
                endpoint.url + "/metrics", timeout=5
            ).read().decode("utf-8")
            families = parse_prometheus(body)
            assert "service_red_execute_requests_total" in families
            with urllib.request.urlopen(
                endpoint.url + "/health", timeout=5
            ) as resp:
                verdict = json.loads(resp.read().decode("utf-8"))
            assert verdict["healthy"] is True
            assert verdict["breaker"] == CLOSED
            assert verdict["committed"] == 1
        finally:
            service.close()
        assert service.endpoint is None or not service.endpoint.running

    def test_health_is_503_while_breaker_open(self, tmp_path):
        OBS.enable()
        service = DatabaseService(
            pupil_database(),
            log=tmp_path / "wal.jsonl",
            breaker=CircuitBreaker(failure_threshold=1,
                                   reset_timeout=60.0),
        )
        try:
            FAULTS.arm("wal.append.before", TransientError(times=10 ** 6))
            with pytest.raises(Exception):
                service.execute(Update.ins("teach", "gauss", "cs"))
            assert service.breaker.state == OPEN
            endpoint = service.serve_metrics()
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(endpoint.url + "/health",
                                       timeout=5)
            assert excinfo.value.code == 503
            verdict = json.loads(excinfo.value.read().decode("utf-8"))
            assert verdict["healthy"] is False
            assert verdict["breaker"] == OPEN
        finally:
            FAULTS.disarm_all()
            service.close()
