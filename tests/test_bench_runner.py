"""The bench runner: discovery, execution, the one record, comparison.

Drives :mod:`repro.bench` against synthetic bench modules (written to
``tmp_path``, or to a temporary repo the CLI's ``main`` runs in) so the
tests stay fast and hermetic, plus the regression comparison's decision
table and the scale helpers the real benches share.
"""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.bench import (
    FakeBenchmark,
    compare_payloads,
    discover_benches,
    render_payload_text,
    run_bench,
    scale,
    scaled,
    scaled_sizes,
)
from repro.bench.__main__ import SMOKE_SCALE, main
from repro.bench.compare import counters
from repro.bench.runner import ROUNDS
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


@pytest.fixture(autouse=True)
def keep_scale(monkeypatch):
    """``main`` sets the process-wide scale; put it back afterwards."""
    monkeypatch.setattr(scale, "factor", scale.factor)


def _repo(tmp_path, monkeypatch, **benches):
    """A temporary repo holding ``benchmarks/bench_<name>.py`` for each
    keyword, with the CLI's working directory there."""
    (tmp_path / "benchmarks").mkdir()
    for name, source in benches.items():
        (tmp_path / "benchmarks" / f"bench_{name}.py").write_text(
            source, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _record(root, exp_id):
    return json.loads((root / f"BENCH_{exp_id}.json").read_text())


# -- scale helpers ------------------------------------------------------------


SCALED_BENCH = textwrap.dedent('''
    from repro.bench.scale import scaled

    ROWS = scaled(120)  # sized at import, as the heavy benches are


    def test_report(report):
        report.line("scaled")
        report.attach({"rows": ROWS, "floor": scaled(2, minimum=10)})
''')


class TestScale:
    def test_default_is_identity(self, tmp_path, monkeypatch):
        root = _repo(tmp_path, monkeypatch, e99_sized=SCALED_BENCH)
        assert main(["e99", "--export"]) == 0
        record = _record(root, "e99_sized")
        assert (record["scale"], record["rows"]) == (1.0, 120)

    def test_smoke_scales_with_floor(self, tmp_path, monkeypatch):
        root = _repo(tmp_path, monkeypatch, e99_sized=SCALED_BENCH)
        assert main(["--smoke", "e99", "--export"]) == 0
        record = _record(root, "e99_sized")
        assert record["scale"] == SMOKE_SCALE
        assert (record["rows"], record["floor"]) == (30, 10)

    def test_scaled_sizes_dedups_preserving_order(self, monkeypatch):
        monkeypatch.setattr(scale, "factor", 0.01)
        sizes = scaled_sizes((16, 32, 64), minimum=8)
        assert sizes == (8,)
        assert scaled(120) == 1


# -- the one record -----------------------------------------------------------


TWO_TEST_BENCH = textwrap.dedent('''
    from repro.obs import OBS


    def test_first(benchmark, report):
        OBS.inc("demo.widgets", 25)
        benchmark(sum, range(10))
        report.line("E99 -- demo")
        report.table(("a", "b"), [(1, 2), (30, 4)])


    def test_second(report):
        report.line("second")
        report.attach({"series": [1, 2, 3]})
''')


class TestReport:
    def test_one_record_holds_every_test(self, tmp_path, monkeypatch):
        root = _repo(tmp_path, monkeypatch, e99_demo=TWO_TEST_BENCH)
        assert main(["e99", "--export"]) == 0
        record = _record(root, "e99_demo")
        assert [b.get("text", b["kind"]) for b in record["blocks"]] == [
            "E99 -- demo", "table", "second"]
        assert record["series"] == [1, 2, 3]
        assert record["timings"]["test_first"]["rounds"] == ROUNDS
        # The counters once, in the metrics snapshot; no stored verdict.
        assert record["metrics"]["counters"] == {"demo.widgets": 25}
        assert "counters" not in record
        assert "comparison" not in record

    def test_text_is_a_render_of_the_json(self, tmp_path, monkeypatch):
        root = _repo(tmp_path, monkeypatch, e99_demo=TWO_TEST_BENCH)
        assert main(["e99", "--export"]) == 0
        results = root / "benchmarks" / "results"
        text = (results / "e99_demo.txt").read_text()
        assert text == render_payload_text(_record(root, "e99_demo"))
        assert text.startswith("E99 -- demo\na   b\n")
        assert [path.name for path in results.iterdir()] == [
            "e99_demo.txt"]

    def test_a_record_at_another_scale_is_left_alone(
            self, tmp_path, monkeypatch, capsys):
        root = _repo(tmp_path, monkeypatch, e99_demo=TWO_TEST_BENCH)
        assert main(["--smoke", "e99", "--export"]) == 0
        smoke = (root / "BENCH_e99_demo.json").read_bytes()
        text = (root / "benchmarks/results/e99_demo.txt").read_bytes()
        capsys.readouterr()
        assert main(["e99", "--export"]) == 0
        assert "comparison: scale-mismatch" in capsys.readouterr().out
        assert (root / "BENCH_e99_demo.json").read_bytes() == smoke
        assert (root / "benchmarks/results/e99_demo.txt").read_bytes() \
            == text
        # The smoke run still has its baseline.
        assert main(["--smoke", "e99"]) == 0
        assert "comparison: ok" in capsys.readouterr().out

    def test_a_plain_run_leaves_the_record_alone(self, tmp_path,
                                                  monkeypatch, capsys):
        root = _repo(tmp_path, monkeypatch, e99_demo=TWO_TEST_BENCH)
        assert main(["e99"]) == 0
        assert not (root / "BENCH_e99_demo.json").exists()
        assert not (root / "benchmarks/results").exists()
        assert main(["e99", "--export"]) == 0
        record = (root / "BENCH_e99_demo.json").read_bytes()
        text = (root / "benchmarks/results/e99_demo.txt").read_bytes()
        capsys.readouterr()
        assert main(["e99"]) == 0
        assert "comparison: ok\n" in capsys.readouterr().out
        assert (root / "BENCH_e99_demo.json").read_bytes() == record
        assert (root / "benchmarks/results/e99_demo.txt").read_bytes() \
            == text

    def test_a_regression_fails_every_run_until_exported(
            self, tmp_path, monkeypatch, capsys):
        root = _repo(tmp_path, monkeypatch, e99_demo=TWO_TEST_BENCH)
        assert main(["e99", "--export"]) == 0
        # A baseline the code now exceeds: 25 widgets against 10.
        path = root / "BENCH_e99_demo.json"
        record = json.loads(path.read_text())
        record["metrics"]["counters"]["demo.widgets"] = 10
        path.write_text(json.dumps(record), encoding="utf-8")
        edited = path.read_bytes()
        for _ in range(2):
            assert main(["e99"]) == 1
            assert "counter demo.widgets: 10 -> 25" in \
                capsys.readouterr().err
            assert path.read_bytes() == edited


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
        fake = FakeBenchmark()
        calls = []
        result = fake(lambda: calls.append(1) or 42)
        assert result == 42
        assert len(calls) == 1 + ROUNDS  # one warm-up + the timed rounds
        assert fake.stats["rounds"] == ROUNDS
        assert fake.stats["min_seconds"] >= 0

    def test_discover_orders_numerically(self, tmp_path):
        for name in ("bench_e10_b.py", "bench_e2_a.py", "bench_e1_c.py"):
            _write_bench(tmp_path, name, "")
        found = discover_benches(tmp_path)
        assert list(found) == ["e1", "e2", "e10"]

    def test_runs_module_and_collects(self, tmp_path):
        path = _write_bench(tmp_path, "bench_e99_demo.py", GOOD_BENCH)
        record = run_bench(path)
        assert not record["failures"]
        assert record["tests_run"] == 2
        assert record["timings"]["test_bench_work"]["rounds"] == ROUNDS
        assert counters(record) == {"demo.widgets": 25}
        assert record["blocks"][0]["text"] == "demo -- results"

    def test_dataclass_in_bench_module_works(self, tmp_path):
        """Module registration in sys.modules: @dataclass resolves
        cls.__module__ at class creation (the e9 regression)."""
        path = _write_bench(tmp_path, "bench_e98_dc.py", GOOD_BENCH)
        assert not run_bench(path)["failures"]

    def test_failures_are_recorded_not_raised(self, tmp_path):
        path = _write_bench(tmp_path, "bench_e97_bad.py", FAILING_BENCH)
        failures = run_bench(path)["failures"]
        errors = {f["test"]: f["error"] for f in failures}
        assert "deliberate" in errors["test_bench_broken"]
        assert "unsupported parameters" in errors["test_needs_db"]

    def test_import_error_is_one_failure(self, tmp_path):
        path = _write_bench(tmp_path, "bench_e96_boom.py",
                            "raise RuntimeError('no')\n")
        failures = run_bench(path)["failures"]
        assert [f["test"] for f in failures] == ["<import>"]

    def test_counters_do_not_leak_between_modules(self, tmp_path):
        noisy = _write_bench(tmp_path, "bench_e95_noisy.py", GOOD_BENCH)
        quiet = _write_bench(
            tmp_path, "bench_e94_quiet.py",
            "def test_report(report):\n"
            "    from repro.obs import OBS\n"
            "    OBS.inc('quiet.only')\n"
            "    report.line('q')\n",
        )
        run_bench(noisy)
        assert counters(run_bench(quiet)) == {"quiet.only": 1}


# -- the comparison -----------------------------------------------------------


def _payload(scale=1.0, counters=None, timings=None):
    return {
        "scale": scale,
        "metrics": {"counters": counters or {}},
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
        )
        assert verdict["status"] == "ok"

    def test_within_threshold_is_ok(self):
        verdict = compare_payloads(
            _payload(counters={"chains": 110}),
            _payload(counters={"chains": 100}),
        )
        assert verdict["status"] == "ok"

    def test_timings_informational_by_default(self):
        current = _payload(timings={"t": {"min_seconds": 2.0}})
        previous = _payload(timings={"t": {"min_seconds": 1.0}})
        verdict = compare_payloads(current, previous)
        assert verdict["status"] == "ok"
        assert verdict["timing_regressions"]

    def test_new_counter_without_baseline_is_ignored(self):
        verdict = compare_payloads(
            _payload(counters={"fresh": 1000}), _payload()
        )
        assert verdict["status"] == "ok"

    def test_vanished_counter_fails(self):
        baseline = _payload(counters={"fdb.chains.enumerated": 500,
                                      "rare": 19})
        for run in (_payload(), _payload(
                counters={"fdb.chains.enumerated": 0, "rare": 0})):
            verdict = compare_payloads(run, baseline)
            assert verdict["status"] == "regression"
            (reg,) = verdict["counter_regressions"]
            assert (reg["counter"], reg["current"]) == (
                "fdb.chains.enumerated", 0)


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
