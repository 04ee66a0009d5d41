"""The unified bench runner: discovery, execution, reports, comparison.

Drives :mod:`repro.bench` against synthetic bench modules (written to
``tmp_path``) so the tests stay fast and hermetic, plus the regression
comparison's decision table and the scale helpers the real benches
share.
"""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.bench import (
    FakeBenchmark,
    Report,
    ReportStore,
    compare_payloads,
    discover_benches,
    propagation_roundtrip,
    render_payload_text,
    run_bench,
    scale_factor,
    scaled,
    scaled_sizes,
)
from repro.bench.scale import ENV_VAR
from repro.obs import OBS


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


# -- scale helpers ------------------------------------------------------------


class TestScale:
    def test_default_is_identity(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert scale_factor() == 1.0
        assert scaled(120) == 120

    def test_env_scales_with_floor(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "0.25")
        assert scaled(120) == 30
        assert scaled(2, minimum=10) == 10

    def test_bad_values_fall_back(self, monkeypatch):
        for bad in ("zero", "-1", "0"):
            monkeypatch.setenv(ENV_VAR, bad)
            assert scale_factor() == 1.0

    def test_scaled_sizes_dedups_preserving_order(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "0.01")
        sizes = scaled_sizes((16, 32, 64), minimum=8)
        assert sizes == (8,)


# -- reports ------------------------------------------------------------------


class TestReport:
    def test_text_is_a_render_of_the_json(self, tmp_path):
        store = ReportStore(tmp_path)
        report = Report("e99_demo")
        report.line("E99 -- demo")
        report.table(("a", "b"), [(1, 2), (30, 4)])
        report.attach({"metrics": {"counters": {"x": 1}}})
        text_path = store.flush(report)
        payload = json.loads(
            (tmp_path / "e99_demo.json").read_text()
        )
        assert payload["metrics"]["counters"]["x"] == 1
        assert text_path.read_text() == render_payload_text(payload)
        # The rendered lines are mirrored into the JSON itself.
        assert payload["report"][0] == "E99 -- demo"

    def test_flushes_accumulate_per_experiment(self, tmp_path):
        store = ReportStore(tmp_path)
        first = Report("e1_x")
        first.line("one")
        store.flush(first)
        second = Report("e1_x")
        second.line("two")
        store.flush(second)
        payload = store.payload("e1_x")
        assert [b["text"] for b in payload["blocks"]] == ["one", "two"]


# -- the runner ---------------------------------------------------------------


GOOD_BENCH = textwrap.dedent('''
    """A minimal bench module in the house style."""
    from dataclasses import dataclass

    from repro.obs import OBS


    @dataclass
    class Probe:
        n: int


    def work(n):
        total = 0
        for i in range(n):
            total += Probe(i).n
        return total


    def test_bench_work(benchmark):
        result = benchmark(work, 100)
        assert result == 4950


    def test_report(report):
        OBS.inc("demo.widgets", 25)
        report.line("demo -- results")
        report.table(("metric", "value"), [("widgets", 25)])
''')


FAILING_BENCH = textwrap.dedent('''
    def test_bench_broken(benchmark):
        assert False, "deliberate"


    def test_needs_db(benchmark, db_fixture):
        pass
''')


def _write_bench(tmp_path, name, source):
    path = tmp_path / name
    path.write_text(source, encoding="utf-8")
    return path


class TestRunner:
    def test_fake_benchmark_protocol(self):
        fake = FakeBenchmark(rounds=2)
        calls = []
        result = fake(lambda: calls.append(1) or 42)
        assert result == 42
        assert len(calls) == 3  # one warm-up + two timed
        assert fake.stats["rounds"] == 2
        assert fake.stats["min_seconds"] >= 0

    def test_discover_orders_numerically(self, tmp_path):
        for name in ("bench_e10_b.py", "bench_e2_a.py", "bench_e1_c.py"):
            _write_bench(tmp_path, name, "")
        found = discover_benches(tmp_path)
        assert list(found) == ["e1", "e2", "e10"]

    def test_runs_module_and_collects(self, tmp_path):
        path = _write_bench(tmp_path, "bench_e99_demo.py", GOOD_BENCH)
        store = ReportStore(tmp_path / "results")
        result = run_bench(path, store=store, rounds=2)
        assert not result.failures
        assert result.tests_run == 2
        assert result.timings["test_bench_work"]["rounds"] == 2
        assert result.counters() == {"demo.widgets": 25}
        payload = store.payload("e99_demo")
        assert payload["report"][0] == "demo -- results"

    def test_dataclass_in_bench_module_works(self, tmp_path):
        """Module registration in sys.modules: @dataclass resolves
        cls.__module__ at class creation (the e9 regression)."""
        path = _write_bench(tmp_path, "bench_e98_dc.py", GOOD_BENCH)
        result = run_bench(path, store=ReportStore(tmp_path / "r"))
        assert not result.failures

    def test_failures_are_recorded_not_raised(self, tmp_path):
        path = _write_bench(tmp_path, "bench_e97_bad.py", FAILING_BENCH)
        result = run_bench(path, store=ReportStore(tmp_path / "r"))
        assert result.failures
        errors = {f["test"]: f["error"] for f in result.failures}
        assert "deliberate" in errors["test_bench_broken"]
        assert "unsupported fixtures" in errors["test_needs_db"]

    def test_import_error_is_one_failure(self, tmp_path):
        path = _write_bench(tmp_path, "bench_e96_boom.py",
                            "raise RuntimeError('no')\n")
        result = run_bench(path, store=ReportStore(tmp_path / "r"))
        assert [f["test"] for f in result.failures] == ["<import>"]

    def test_counters_do_not_leak_between_modules(self, tmp_path):
        noisy = _write_bench(tmp_path, "bench_e95_noisy.py", GOOD_BENCH)
        quiet = _write_bench(
            tmp_path, "bench_e94_quiet.py",
            "def test_report(report):\n"
            "    from repro.obs import OBS\n"
            "    OBS.inc('quiet.only')\n"
            "    report.line('q')\n",
        )
        store = ReportStore(tmp_path / "r")
        run_bench(noisy, store=store)
        result = run_bench(quiet, store=store)
        assert result.counters() == {"quiet.only": 1}


class TestPropagationRoundtrip:
    def test_produces_dag_artifacts(self, tmp_path):
        summary = propagation_roundtrip(tmp_path)
        assert summary["causes"] == ["u1"]
        assert summary["spans"] >= 1
        dot = (tmp_path / "propagation_trace.dot").read_text()
        assert dot.startswith("digraph")
        jsonl = (tmp_path / "propagation_trace.jsonl").read_text()
        assert jsonl.strip()


# -- the comparison -----------------------------------------------------------


def _payload(scale=1.0, counters=None, timings=None):
    return {
        "scale": scale,
        "counters": counters or {},
        "timings": timings or {},
    }


class TestComparePayloads:
    def test_no_baseline(self):
        verdict = compare_payloads(_payload(), None)
        assert verdict["status"] == "no-baseline"

    def test_scale_mismatch_refuses(self):
        verdict = compare_payloads(
            _payload(scale=1.0), _payload(scale=0.25)
        )
        assert verdict["status"] == "scale-mismatch"

    def test_counter_regression_fails(self):
        verdict = compare_payloads(
            _payload(counters={"chains": 200}),
            _payload(counters={"chains": 100}),
        )
        assert verdict["status"] == "regression"
        (reg,) = verdict["counter_regressions"]
        assert reg["counter"] == "chains"
        assert reg["growth"] == 1.0

    def test_small_counters_are_exempt(self):
        verdict = compare_payloads(
            _payload(counters={"rare": 4}),
            _payload(counters={"rare": 1}),
            min_count=20,
        )
        assert verdict["status"] == "ok"

    def test_within_threshold_is_ok(self):
        verdict = compare_payloads(
            _payload(counters={"chains": 110}),
            _payload(counters={"chains": 100}),
            threshold=0.25,
        )
        assert verdict["status"] == "ok"

    def test_timings_informational_by_default(self):
        current = _payload(timings={"t": {"min_seconds": 2.0}})
        previous = _payload(timings={"t": {"min_seconds": 1.0}})
        verdict = compare_payloads(current, previous)
        assert verdict["status"] == "ok"
        assert verdict["timing_regressions"]
        enforced = compare_payloads(current, previous,
                                    enforce_timings=True)
        assert enforced["status"] == "regression"

    def test_new_counter_without_baseline_is_ignored(self):
        verdict = compare_payloads(
            _payload(counters={"fresh": 1000}), _payload()
        )
        assert verdict["status"] == "ok"


class TestVolatileCounters:
    def test_latency_shaped_families_are_excluded(self):
        from repro.bench.compare import VOLATILE_COUNTER_PREFIXES

        for prefix in VOLATILE_COUNTER_PREFIXES:
            name = prefix + "r0"
            verdict = compare_payloads(
                _payload(counters={name: 100_000, "chains": 100}),
                _payload(counters={name: 100, "chains": 100}),
            )
            assert verdict["status"] == "ok", name

    def test_deterministic_replication_counters_still_enforced(self):
        verdict = compare_payloads(
            _payload(counters={"replication.records_shipped": 500}),
            _payload(counters={"replication.records_shipped": 100}),
        )
        assert verdict["status"] == "regression"

    def test_snapshot_catch_ups_not_volatile(self):
        # Only the byte volumes are timing-shaped; the catch-up count
        # is a deterministic work counter and stays enforced.
        verdict = compare_payloads(
            _payload(counters={"replication.snapshot.catch_ups": 90}),
            _payload(counters={"replication.snapshot.catch_ups": 30}),
        )
        assert verdict["status"] == "regression"
