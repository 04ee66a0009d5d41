"""Discovery and execution of the E1–E19 benches without pytest.

The bench modules under ``benchmarks/`` are pytest files using exactly
two fixtures — ``benchmark`` (pytest-benchmark's callable protocol)
and ``report`` (the structured report) — so a full pytest session is
unnecessary machinery for running them: :func:`run_bench` imports a
bench module from its file path, walks its ``test_*`` functions in
definition order, and injects :class:`FakeBenchmark` /
:class:`repro.bench.report.Report` instances for those two parameter
names. Assertions inside the benches still run; a failing bench is a
failing run.

Each module executes inside ``OBS.collecting()`` so a metrics
snapshot can be attached to its payload, and each ``benchmark(...)``
call is timed (one warm-up call, then ``rounds`` timed calls — the
bench functions are written for pytest-benchmark, which also calls
them repeatedly, so re-invocation is safe by construction).

:func:`propagation_roundtrip` is the acceptance loop for the
structured event log: it traces one Section-4.2 update with a JSONL
file sink, reads the records back, folds them into a span tree and
draws it as DOT — emitted → persisted → reconstructed → drawn.
"""

from __future__ import annotations

import importlib.util
import inspect
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from repro.bench.report import Report, ReportStore
from repro.obs import OBS, FileSink, Tracer, read_jsonl

__all__ = ["FakeBenchmark", "BenchResult", "discover_benches",
           "run_bench", "propagation_roundtrip"]


class FakeBenchmark:
    """The subset of pytest-benchmark's fixture the benches use:
    ``result = benchmark(fn, *args, **kwargs)``.

    Calls ``fn`` once for its result (and as warm-up), then ``rounds``
    more times under the clock. ``stats`` carries min/mean seconds.
    """

    def __init__(self, rounds: int = 3) -> None:
        self.rounds = rounds
        self.stats: dict | None = None

    def __call__(self, fn, *args, **kwargs):
        result = fn(*args, **kwargs)
        timings: list[float] = []
        for _ in range(self.rounds):
            started = time.perf_counter()
            fn(*args, **kwargs)
            timings.append(time.perf_counter() - started)
        self.stats = {
            "rounds": self.rounds,
            "min_seconds": min(timings),
            "mean_seconds": sum(timings) / len(timings),
        }
        return result


@dataclass
class BenchResult:
    """Everything one bench module's run produced."""

    exp_id: str
    timings: dict[str, dict] = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    failures: list[dict] = field(default_factory=list)
    tests_run: int = 0

    def counters(self) -> dict[str, int]:
        """The deterministic work counters the regression comparison
        keys on — the bench's own attached snapshot when it made one
        (e.g. E10's instrumented replay), else the run-wide capture."""
        return {name: value
                for name, value in self.metrics.get("counters", {}).items()
                if value}


def discover_benches(benchmarks_dir: str | Path) -> dict[str, Path]:
    """Map short experiment keys (``e4``) to bench module paths,
    sorted by experiment number."""
    found: dict[str, Path] = {}
    for path in Path(benchmarks_dir).glob("bench_e*.py"):
        key = path.stem.removeprefix("bench_").split("_")[0]
        found[key] = path
    return dict(sorted(found.items(),
                       key=lambda item: int(item[0].lstrip("e"))))


def _load_module(path: Path):
    name = f"repro_bench_{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    # dataclass (and anything else resolving cls.__module__) needs the
    # module registered before its body executes.
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except Exception:
        del sys.modules[name]
        raise
    return module


def _test_functions(module):
    return [
        (name, fn) for name, fn in vars(module).items()
        if name.startswith("test_") and inspect.isfunction(fn)
    ]


def run_bench(path: str | Path, *, store: ReportStore,
              rounds: int = 3) -> BenchResult:
    """Execute one bench module; flush its reports into ``store``."""
    path = Path(path)
    exp_id = path.stem.removeprefix("bench_")
    result = BenchResult(exp_id=exp_id)
    # Drop instrument *registrations*, not just their values — reset()
    # keeps names, so without this a suite run would report every
    # earlier bench's counters (zero-valued) against every later one.
    OBS.metrics.clear()
    with OBS.collecting():
        try:
            module = _load_module(path)
        except Exception:
            result.failures.append({
                "test": "<import>",
                "error": traceback.format_exc(limit=5),
            })
            return result
        for name, fn in _test_functions(module):
            params = inspect.signature(fn).parameters
            kwargs: dict = {}
            unknown = [p for p in params
                       if p not in ("benchmark", "report")]
            if unknown:
                result.failures.append({
                    "test": name,
                    "error": f"unsupported fixtures: {unknown} "
                             "(the runner injects only benchmark/"
                             "report)",
                })
                continue
            fake = FakeBenchmark(rounds=rounds)
            report = Report(exp_id)
            if "benchmark" in params:
                kwargs["benchmark"] = fake
            if "report" in params:
                kwargs["report"] = report
            try:
                fn(**kwargs)
            except Exception:
                result.failures.append({
                    "test": name,
                    "error": traceback.format_exc(limit=5),
                })
                continue
            result.tests_run += 1
            if fake.stats is not None:
                result.timings[name] = fake.stats
            if report.blocks or report.data:
                store.flush(report)
        metrics = OBS.metrics.snapshot()
    # Prefer the bench's own attached metrics (an instrumented replay
    # of exactly the measured workload) over the run-wide capture,
    # which interleaves every test's work.
    payload = store.payload(exp_id) or {}
    result.metrics = payload.get("metrics") or metrics
    return result


def propagation_roundtrip(out_dir: str | Path) -> dict:
    """Trace Section 4.2's u1 end to end through the event pipeline.

    Emits JSONL records (file sink) while tracing ``DEL(pupil,
    <euclid, john>)``, reads them back, folds them into the span tree
    through a plain :class:`Tracer`, draws it as DOT, and
    sanity-checks the round trip. Returns paths and shape counts for
    the bench summary.
    """
    from repro.fdb.updates import apply_update
    from repro.workloads.university import (
        pupil_database,
        section_42_updates,
    )

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    events_path = out_dir / "propagation_trace.jsonl"
    dot_path = out_dir / "propagation_trace.dot"
    if events_path.exists():
        events_path.unlink()
    db = pupil_database()
    u1 = section_42_updates()[0]
    sink = FileSink(events_path)
    with OBS.collecting(tracing=True):
        OBS.events.add_sink(sink)
        try:
            apply_update(db, u1)
        finally:
            OBS.events.remove_sink(sink)
    records = read_jsonl(events_path)
    tracer = Tracer()
    for record in records:
        tracer.consume(record)
    root = tracer.last_trace
    if root is None or root.cause is None:
        raise RuntimeError(
            "propagation round trip produced an empty trace — the "
            "event pipeline is broken"
        )
    dot_path.write_text(root.to_dot(name="section42_u1") + "\n",
                        encoding="utf-8")
    spans = list(root.walk())
    return {
        "update": str(u1),
        "events_path": str(events_path),
        "dot_path": str(dot_path),
        "records": len(records),
        "spans": len(spans),
        "events": sum(len(span.events) for span in spans),
        "causes": [root.cause],
    }
