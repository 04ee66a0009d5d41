"""The log-bucketed histogram and the live metrics endpoint.

Covers LogHistogram's bucket math and percentile envelope;
Prometheus rendering and the validating parser (round trip plus the
malformed cases the parser must reject); and the HTTP endpoint's
three routes, including the 503 health verdict.
"""

from __future__ import annotations

import contextlib
import json
import math
import urllib.error
import urllib.request

import pytest

from repro.obs import (
    LogHistogram,
    MetricsEndpoint,
    MetricsRegistry,
    Objective,
    SLOMonitor,
    parse_prometheus,
    render_prometheus,
)
from repro.obs.slo import ERROR_RATE


class TestLogHistogram:
    def test_exact_aggregates(self):
        hist = LogHistogram("h")
        for value in (0.001, 0.010, 0.100):
            hist.observe(value)
        assert hist.count == 3
        assert hist.total == pytest.approx(0.111)
        assert hist.min == pytest.approx(0.001)
        assert hist.max == pytest.approx(0.100)

    def test_percentile_relative_error_bounded_by_base(self):
        hist = LogHistogram("h")
        for i in range(1, 1001):
            hist.observe(i / 1000.0)  # 1ms .. 1s uniform
        p50 = hist.percentile(50)
        assert 0.5 / hist.base <= p50 <= 0.5 * hist.base
        p99 = hist.percentile(99)
        assert 0.99 / hist.base <= p99 <= 0.99 * hist.base

    def test_percentiles_clamped_to_observed_envelope(self):
        hist = LogHistogram("h")
        hist.observe(0.005)
        assert hist.percentile(0) == pytest.approx(0.005)
        assert hist.percentile(100) == pytest.approx(0.005)

    def test_tail_does_not_freeze_on_warmup(self):
        # The regression the log histogram exists to fix: a warm-up
        # burst of fast samples must not pin p99 forever.
        hist = LogHistogram("h")
        for _ in range(2000):
            hist.observe(0.001)
        for _ in range(2000):
            hist.observe(0.500)
        assert hist.percentile(99) == pytest.approx(0.500, rel=0.15)

    def test_buckets_are_cumulative(self):
        hist = LogHistogram("h")
        for value in (0.001, 0.010, 0.010, 0.100):
            hist.observe(value)
        buckets = hist.buckets()
        counts = [count for _, count in buckets]
        assert counts == sorted(counts)
        assert counts[-1] == hist.count
        bounds = [bound for bound, _ in buckets]
        assert bounds == sorted(bounds)


def populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("fdb.updates.insert").inc(7)
    registry.gauge("service.active").set(3)
    query = registry.histogram("fdb.query.seconds")
    for i in range(50):
        query.observe(i / 1000.0)
    red = registry.histogram("service.red.execute.duration_seconds")
    for i in range(1, 101):
        red.observe(i / 1000.0)
    return registry


class TestPrometheusRoundTrip:
    def test_render_parses_cleanly(self):
        body = render_prometheus(populated_registry())
        families = parse_prometheus(body)
        assert families["fdb_updates_insert_total"]["type"] == "counter"
        assert families["fdb_updates_insert_total"]["samples"][
            "fdb_updates_insert_total"] == 7
        assert families["service_active"]["type"] == "gauge"
        # One histogram kind: every distribution is a real histogram
        # with cumulative le buckets, and no summary family is left.
        assert "summary" not in body
        query = families["fdb_query_seconds"]
        assert query["type"] == "histogram"
        buckets = [value for key, value in query["samples"].items()
                   if key.startswith("fdb_query_seconds_bucket{")]
        assert len(buckets) > 2 and buckets == sorted(buckets)
        assert query["samples"]["fdb_query_seconds_bucket{le=+Inf}"] == 50
        hist = families["service_red_execute_duration_seconds"]
        assert hist["type"] == "histogram"
        assert hist["samples"][
            "service_red_execute_duration_seconds_count"] == 100

    def test_histogram_inf_bucket_equals_count(self):
        body = render_prometheus(populated_registry())
        families = parse_prometheus(body)
        samples = families["service_red_execute_duration_seconds"]["samples"]
        inf = samples['service_red_execute_duration_seconds_bucket{le=+Inf}']
        assert inf == samples["service_red_execute_duration_seconds_count"]

    def test_empty_registry_renders_empty_but_valid(self):
        assert parse_prometheus(render_prometheus(MetricsRegistry())) == {}

    def test_dotted_names_sanitized(self):
        registry = MetricsRegistry()
        registry.counter("a.b-c/d").inc()
        body = render_prometheus(registry)
        assert "a_b_c_d_total 1" in body
        parse_prometheus(body)


class TestParserRejectsMalformed:
    def test_missing_trailing_newline(self):
        with pytest.raises(Exception, match="newline"):
            parse_prometheus("x_total 1")

    def test_sample_without_type_declaration(self):
        with pytest.raises(Exception, match="TYPE"):
            parse_prometheus("x_total 1\n")

    def test_malformed_sample_line(self):
        with pytest.raises(Exception, match="malformed"):
            parse_prometheus("# TYPE x counter\nx one two three four\n")

    def test_non_cumulative_buckets(self):
        body = (
            "# TYPE h histogram\n"
            'h_bucket{le="0.1"} 5\n'
            'h_bucket{le="1"} 3\n'
            'h_bucket{le="+Inf"} 3\n'
            "h_sum 1\n"
            "h_count 3\n"
        )
        with pytest.raises(Exception, match="cumulative"):
            parse_prometheus(body)

    def test_missing_inf_bucket(self):
        body = (
            "# TYPE h histogram\n"
            'h_bucket{le="0.1"} 5\n'
            "h_sum 1\n"
            "h_count 5\n"
        )
        with pytest.raises(Exception, match=r"\+Inf"):
            parse_prometheus(body)

    def test_inf_bucket_disagrees_with_count(self):
        body = (
            "# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 5\n'
            "h_sum 1\n"
            "h_count 9\n"
        )
        with pytest.raises(Exception, match="_count"):
            parse_prometheus(body)


@contextlib.contextmanager
def serving(endpoint: MetricsEndpoint):
    """``endpoint``, started for the block and stopped after it."""
    try:
        yield endpoint.start()
    finally:
        endpoint.stop()


def _get(url: str) -> tuple[int, str]:
    try:
        with urllib.request.urlopen(url, timeout=5) as resp:
            return resp.status, resp.read().decode("utf-8")
    except urllib.error.HTTPError as err:
        return err.code, err.read().decode("utf-8")


class TestMetricsEndpoint:
    def test_serves_metrics_health_and_slo(self):
        registry = populated_registry()
        slo = SLOMonitor((Objective("err", ERROR_RATE, 0.5),))
        health = lambda: {"healthy": True, "breaker": "closed"}  # noqa: E731
        with serving(MetricsEndpoint(registry, slo=slo, health=health)) as ep:
            status, body = _get(ep.url + "/metrics")
            assert status == 200
            assert parse_prometheus(body)

            status, body = _get(ep.url + "/health")
            assert status == 200
            verdict = json.loads(body)
            assert verdict["healthy"] is True
            assert verdict["slo_alerts"] == []

            status, body = _get(ep.url + "/slo")
            assert status == 200
            assert json.loads(body)["healthy"] is True

            status, _ = _get(ep.url + "/nope")
            assert status == 404
        assert not ep.running

    def test_health_is_503_when_unhealthy(self):
        registry = MetricsRegistry()
        with serving(MetricsEndpoint(
            registry, health=lambda: {"healthy": False, "breaker": "open"}
        )) as ep:
            status, body = _get(ep.url + "/health")
            assert status == 503
            assert json.loads(body)["healthy"] is False

    def test_slo_alert_makes_health_unhealthy(self):
        slo = SLOMonitor(
            (Objective("err", ERROR_RATE, 0.01, window=60.0,
                       fast_fraction=1.0),)
        )
        for _ in range(10):
            slo.record("execute", 0.001, error=True)
        slo.evaluate()
        assert not slo.healthy
        with serving(MetricsEndpoint(MetricsRegistry(), slo=slo)) as ep:
            status, body = _get(ep.url + "/health")
            assert status == 503
            assert json.loads(body)["slo_alerts"] == ["err"]

    def test_start_and_stop_are_idempotent(self):
        ep = MetricsEndpoint(MetricsRegistry())
        ep.start()
        port = ep.port
        assert ep.start().port == port
        ep.stop()
        ep.stop()
        assert not ep.running

    def test_slo_route_404_without_monitor(self):
        with serving(MetricsEndpoint(MetricsRegistry())) as ep:
            status, _ = _get(ep.url + "/slo")
            assert status == 404
