"""Discovery and execution of the E1–E19 benches.

A bench module under ``benchmarks/`` is a plain Python file whose
``test_*`` functions take at most two parameters — ``benchmark`` (a
:class:`FakeBenchmark`) and ``report`` (a
:class:`repro.bench.report.Report`). :func:`run_bench` imports a bench
module from its file path, walks its ``test_*`` functions in
definition order, injects those two, and folds what every test
produced into the experiment's one record (what ``BENCH_<exp>.json``
holds). Assertions inside the benches still run; a failing bench is a
failing run.

Each module executes inside ``OBS.collecting()`` so a metrics
snapshot can be attached to its record, and each ``benchmark(...)``
call is timed (one warm-up call, then ``ROUNDS`` timed calls — so a
function a bench times must be safe to call again).
"""

from __future__ import annotations

import importlib.util
import inspect
import sys
import time
import traceback
from pathlib import Path

from repro.bench import scale
from repro.bench.report import Report
from repro.obs import OBS

__all__ = ["FakeBenchmark", "discover_benches", "run_bench"]

ROUNDS = 3


class FakeBenchmark:
    """The ``benchmark`` parameter: ``result = benchmark(fn, *args,
    **kwargs)``.

    Calls ``fn`` once for its result (and as warm-up), then ``ROUNDS``
    more times under the clock. ``stats`` carries min/mean seconds.
    """

    def __init__(self) -> None:
        self.stats: dict | None = None

    def __call__(self, fn, *args, **kwargs):
        result = fn(*args, **kwargs)
        timings: list[float] = []
        for _ in range(ROUNDS):
            started = time.perf_counter()
            fn(*args, **kwargs)
            timings.append(time.perf_counter() - started)
        self.stats = {
            "rounds": ROUNDS,
            "min_seconds": min(timings),
            "mean_seconds": sum(timings) / len(timings),
        }
        return result


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


def run_bench(path: str | Path) -> dict:
    """Execute one bench module at the current :data:`scale.factor`
    and return its record: every passing test's report blocks in
    order, every key a test attached, the timings, the failures and
    one metrics snapshot."""
    path = Path(path)
    exp_id = path.stem.removeprefix("bench_")
    timings: dict[str, dict] = {}
    failures: list[dict] = []
    blocks: list[dict] = []
    attached: dict = {}
    tests_run = 0
    # Drop instrument *registrations*, not just their values — reset()
    # keeps names, so without this a suite run would report every
    # earlier bench's counters (zero-valued) against every later one.
    OBS.metrics.clear()
    with OBS.collecting():
        try:
            tests = _test_functions(_load_module(path))
        except Exception:
            failures.append({"test": "<import>",
                             "error": traceback.format_exc(limit=5)})
            tests = []
        for name, fn in tests:
            params = inspect.signature(fn).parameters
            unknown = [p for p in params
                       if p not in ("benchmark", "report")]
            if unknown:
                failures.append({
                    "test": name,
                    "error": f"unsupported parameters: {unknown} "
                             "(the runner injects only benchmark/"
                             "report)",
                })
                continue
            fake = FakeBenchmark()
            report = Report()
            injected = {"benchmark": fake, "report": report}
            try:
                fn(**{p: injected[p] for p in params})
            except Exception:
                failures.append({"test": name,
                                 "error": traceback.format_exc(limit=5)})
                continue
            tests_run += 1
            if fake.stats is not None:
                timings[name] = fake.stats
            blocks += report.blocks
            attached.update(report.data)
        metrics = OBS.metrics.snapshot()
    return {
        **attached,
        "exp_id": exp_id,
        "exp": exp_id.split("_")[0],
        "scale": scale.factor,
        "tests_run": tests_run,
        "timings": timings,
        "failures": failures,
        "blocks": blocks,
        # Prefer the bench's own attached metrics (an instrumented
        # replay of exactly the measured workload) over the run-wide
        # capture, which interleaves every test's work.
        "metrics": attached.get("metrics") or metrics,
    }
