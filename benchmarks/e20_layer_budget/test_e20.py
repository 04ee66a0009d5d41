"""Self-tests of the E20 benchmark (outside the tier-1 testpaths):

    PYTHONPATH=src python -m pytest benchmarks/e20_layer_budget -q
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import machine  # noqa: E402
import metrics  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer  # noqa: E402

RUN = [sys.executable, str(HERE / "run.py")]
SMALL = workloads.WORKLOADS["derived_read_mem"]


# -- op streams ---------------------------------------------------------------


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_same_stream_other_seed_other_stream(name):
    workload = workloads.WORKLOADS[name]
    one = workloads.stream_digest(workloads.plan(workload, 7, 0.5))
    again = workloads.stream_digest(workloads.plan(workload, 7, 0.5))
    other = workloads.stream_digest(workloads.plan(workload, 8, 0.5))
    assert one == again
    assert one != other


def test_mix_is_exact_per_block():
    (episode,) = workloads.plan(SMALL, 3, 1.0)
    kinds = [op.kind for op in episode.streams[0][:400]]
    assert kinds.count("truth_of") == 372
    assert kinds.count("extension") == 8


# -- span arithmetic ----------------------------------------------------------


def _span(sid, parent, name, start, end, busy=None, request=1, thread=1):
    return Span(sid, parent, name, request, thread, start, end,
                end - start if busy is None else busy, None)


def test_self_time_nested_and_adjacent():
    spans = [
        _span(1, 0, tracing.ROOT, 0.0, 10.0),
        _span(2, 1, "service.execute", 1.0, 9.0),
        _span(3, 2, "wal.append", 2.0, 5.0),  # adjacent siblings
        _span(4, 2, "txn.begin", 5.0, 6.0),
        _span(5, 3, "storage.append_line", 3.0, 4.5),  # nested
    ]
    own = tracing.self_times(spans)
    assert own == {1: 2.0, 2: 4.0, 3: 1.5, 4: 1.0, 5: 1.5}
    totals = tracing.layer_totals(spans)
    assert sum(totals.values()) == pytest.approx(10.0)
    assert totals["fdb.wal"] == 1.5 and totals["fdb.storage"] == 1.5


def test_self_time_two_threads_do_not_mix():
    spans = [
        _span(1, 0, tracing.ROOT, 0.0, 4.0, thread=1),
        _span(2, 1, "service.read", 1.0, 3.0, thread=1),
        _span(3, 0, tracing.ROOT, 0.5, 4.5, request=3, thread=2),
        _span(4, 3, "service.read", 1.0, 4.0, request=3, thread=2),
    ]
    own = tracing.self_times(spans)
    assert own == {1: 2.0, 2: 2.0, 3: 1.0, 4: 3.0}


def test_generator_span_bills_only_time_inside_the_generator():
    tracer = Tracer()

    def produce():
        for i in range(3):
            time.sleep(0.01)
            yield i

    traced = tracer._wrap_generator("evaluate.iter_chains", produce)
    tracer.enabled = True
    for _ in traced():
        time.sleep(0.03)  # a slow consumer
    (span,) = tracer.spans
    assert span.tag == 3  # chains yielded
    assert 0.03 <= span.busy < 0.06
    assert span.end - span.start > 0.09

    tracer.spans.clear()
    next(iter(traced()))  # abandoned after the first item
    (span,) = tracer.spans
    assert span.tag == 1


def test_live_wrappers_nest_per_thread():
    tracer = Tracer()
    inner = tracer._wrap_call("wal.append", lambda: time.sleep(0.01), None)
    outer = tracer._wrap_call("service.execute", lambda: inner(), None)
    tracer.enabled = True

    def client():
        with tracer.root("base_write"):
            outer()

    threads = [threading.Thread(target=client) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(5)
    assert not any(t.is_alive() for t in threads)
    by_id = {s.sid: s for s in tracer.spans}
    for s in tracer.spans:
        if s.name == "wal.append":
            parent = by_id[s.parent]
            assert parent.name == "service.execute"
            assert parent.thread == s.thread
            assert by_id[parent.parent].sid == s.request
    own = tracing.self_times(tracer.spans)
    assert all(value >= 0 for value in own.values())


# -- the percentile rule ------------------------------------------------------


def test_percentile_needs_ten_samples_beyond_it():
    assert metrics.percentile(list(range(199)), 0.95) is None
    assert metrics.percentile(list(range(200)), 0.95) == 190
    assert metrics.percentile(list(range(19)), 0.50) is None
    assert metrics.percentile(list(range(20)), 0.50) == 10


# -- the machine-speed probe ---------------------------------------------------


def test_slowdown_mixes_the_two_probes_by_io_share():
    quiet = machine.Reading(machine.CPU_NOMINAL_S, machine.FSYNC_NOMINAL_S)
    busy = machine.Reading(3 * machine.CPU_NOMINAL_S,
                           2 * machine.FSYNC_NOMINAL_S)
    assert machine.slowdown(quiet, quiet, 0.6) == pytest.approx(1.0)
    assert machine.slowdown(busy, busy, 0.0) == pytest.approx(3.0)
    assert machine.slowdown(busy, busy, 1.0) == pytest.approx(2.0)
    assert machine.slowdown(quiet, busy, 0.5) == pytest.approx(1.75)
    no_log = machine.Reading(2 * machine.CPU_NOMINAL_S, None)
    assert machine.slowdown(no_log, no_log, 0.6) == pytest.approx(2.0)


def test_a_round_reports_quiet_machine_time(monkeypatch):
    """On a machine the probe reads as 2x slow, every timing halves."""
    import harness

    twice = machine.Reading(2 * machine.CPU_NOMINAL_S, None)
    monkeypatch.setattr(machine.Meter, "read", lambda self: twice)
    episodes = workloads.plan(SMALL, 3, 0.2)
    oracles = [workloads.Oracle(SMALL, e) for e in episodes]
    result = harness.run_round(SMALL, episodes, oracles,
                               HERE / ".work" / f"selftest-{os.getpid()}")
    assert result.quiet_wall_s == pytest.approx(result.wall_s / 2)
    assert set(result.slowdowns) == {2.0}
    assert result.ops_per_s == pytest.approx(
        result.attempted / result.wall_s * 2)
    assert sum(map(len, result.latencies.values())) == result.attempted


# -- the oracle ---------------------------------------------------------------


def _oracle():
    (episode,) = workloads.plan(SMALL, 5, 0.2)
    return episode, workloads.Oracle(SMALL, episode)


def test_oracle_accepts_a_faithful_replay():
    episode, oracle = _oracle()
    db = workloads.initial_db(SMALL, episode.seed)
    results = [workloads.perform(db, op) for op in episode.streams[0]]
    oracle.check_reads(0, results)
    oracle.check_state(db, "replay")


def test_oracle_catches_a_corrupted_read():
    episode, oracle = _oracle()
    results = list(oracle.expected[0])
    index = next(i for i, op in enumerate(episode.streams[0])
                 if op.kind == "truth_of")
    results[index] = results[index].not_() if results[index].value != \
        "ambiguous" else type(results[index]).TRUE
    with pytest.raises(workloads.OracleError, match=f"op {index}"):
        oracle.check_reads(0, results)


def test_oracle_catches_a_dropped_write():
    episode, oracle = _oracle()
    db = workloads.initial_db(SMALL, episode.seed)
    writes = [i for i, op in enumerate(episode.streams[0]) if op.is_write]
    for i, op in enumerate(episode.streams[0]):
        if i != writes[0]:
            workloads.perform(db, op)
    with pytest.raises(workloads.OracleError, match="diverged"):
        oracle.check_state(db, "live state")


# -- robust tracing -----------------------------------------------------------


def test_wrappers_are_removed_and_originals_restored():
    before = {(e.module, e.attr): tracing._resolve(e.module, e.attr)[2]
              for e in tracing.LAYER_ENTRYPOINTS}
    tracer = Tracer()
    tracer.install()
    try:
        assert not tracer.missing
        import repro.fdb.storage as storage
        assert storage.append_line is not before[
            ("repro.fdb.storage", "append_line")]
        assert os.fsync is not before[("os", "fsync")]
    finally:
        tracer.uninstall()
    for entry in tracing.LAYER_ENTRYPOINTS:
        current = tracing._resolve(entry.module, entry.attr)[2]
        assert current is before[(entry.module, entry.attr)], entry
        for module_name in entry.also:
            module = sys.modules[module_name]
            name = entry.attr.rsplit(".", 1)[-1]
            assert getattr(module, name) is current, (module_name, name)


def test_a_removed_target_reads_null_not_a_crash(monkeypatch, capsys):
    gone = tracing.Entry("fdb.storage", "storage.append_line",
                         "repro.fdb.storage", "append_line_was_refactored")
    table = tuple(gone if e.span == "storage.append_line" else e
                  for e in tracing.LAYER_ENTRYPOINTS)
    monkeypatch.setattr(tracing, "LAYER_ENTRYPOINTS", table)
    import harness

    workload = workloads.WORKLOADS["durable_small_1c"]
    episodes = workloads.plan(workload, 1, 0.1)
    oracles = [workloads.Oracle(workload, e) for e in episodes]
    tracer = Tracer()
    tracer.install()
    try:
        result = harness.run_round(
            workload, episodes, oracles,
            HERE / ".work" / f"selftest-{os.getpid()}", tracer=tracer)
    finally:
        tracer.uninstall()
    assert "append_line_was_refactored" in capsys.readouterr().err
    layer, _ = tracing.fold(tracer, result, result.quiet_wall_s)
    assert layer["fdb.storage.append_us"] is None
    assert layer["fdb.wal.append_self_us"] is None  # needs the child span
    assert layer["fdb.storage.fsync_us"] > 0
    assert layer["service.write_self_us"] > 0


def test_an_untraced_run_never_imports_the_entrypoint_table():
    script = (
        "import runpy, sys\n"
        f"sys.argv = [{str(HERE / 'run.py')!r}, '--workload', "
        "'derived_read_mem', '--seconds', '0.1', '--trace', '0']\n"
        "try:\n"
        "    runpy.run_path(sys.argv[0], run_name='__main__')\n"
        "except SystemExit as done:\n"
        "    assert not done.code, done.code\n"
        "assert 'tracing' not in sys.modules\n"
    )
    done = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


# -- comparing runs -----------------------------------------------------------


def _entry(value, rounds):
    return {"value": value, "rounds": rounds}


def test_verdicts():
    p50 = next(m for m in metrics.END_TO_END
               if m.name == "base_write_p50_ms")
    rate = next(m for m in metrics.END_TO_END if m.name == "ops_per_s")
    steady = _entry(1.00, [0.99, 1.00, 1.01])
    assert metrics.verdict(p50, steady, _entry(1.05, [1.04, 1.05, 1.06])) \
        == "ok"
    assert metrics.verdict(p50, steady, _entry(1.40, [1.39, 1.40, 1.41])) \
        == "regressed"
    assert metrics.verdict(p50, steady, _entry(0.70, [0.69, 0.70, 0.71])) \
        == "improved"
    noisy = _entry(1.40, [0.95, 1.40, 1.90])
    assert metrics.verdict(p50, steady, noisy) == "unresolved"
    assert metrics.verdict(rate, _entry(100, [99, 100, 101]),
                           _entry(70, [69, 70, 71])) == "regressed"
    floor = next(m for m in metrics.END_TO_END if m.name == "recover_s")
    assert metrics.verdict(floor, _entry(0.040, [0.040]),
                           _entry(0.055, [0.055])) == "ok"  # < 0.02 s floor


# -- BENCHMARK.json and --quick -----------------------------------------------


def test_benchmark_json_matches_the_declarations():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(declared) == {"command", "paths", "run_seconds",
                             "workloads", "end_to_end", "per_layer"}
    assert declared["paths"] == ["benchmarks/e20_layer_budget"]
    assert [(w["name"], w["why"]) for w in declared["workloads"]] == \
        [(w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert all(len(w["why"]) <= 200 for w in declared["workloads"])
    by_name = {m.name: m for m in metrics.END_TO_END}
    assert [m["name"] for m in declared["end_to_end"]] == \
        list(metrics.UNIVERSAL)
    for m in declared["end_to_end"]:
        assert (m["unit"], m["better"], m["bound"]) == (
            by_name[m["name"]].unit, by_name[m["name"]].better,
            by_name[m["name"]].bound)
        assert m["bound"] <= 0.25
    assert declared["per_layer"] == metrics.contract_per_layer()
    assert len(declared["per_layer"]) <= 128


def test_quick_prints_every_declared_metric_and_nothing_else(tmp_path):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"]
             for m in declared["end_to_end"] + declared["per_layer"]}
    out = tmp_path / "summary.json"
    started = time.monotonic()
    done = subprocess.run(RUN + ["--quick", "--trace", "--out", str(out)],
                          capture_output=True, text=True, timeout=120)
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert elapsed < 20, f"--quick took {elapsed:.1f} s"
    printed = set(re.findall(r"^   ([a-z0-9_.]+) +\S+", done.stdout,
                             flags=re.M))
    assert printed == names
    text = out.read_text()
    assert text.rstrip().endswith('"claim": null\n}')
    summary = json.loads(text)
    assert summary["correct"] is True
    assert list(summary["workloads"]) == list(workloads.WORKLOADS)
