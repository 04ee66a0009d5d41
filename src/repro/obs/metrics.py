"""Metric primitives: counters, gauges, histograms, and a registry.

The runtime reports on its own work as structured data — how many
chains an update enumerated, how many NCs it created, how long a WAL
append took. Three instrument kinds cover everything the engine needs:

* :class:`Counter` — a monotonically increasing event count
  (``fdb.updates.delete``, ``fdb.nc.created``);
* :class:`Gauge` — a point-in-time level (``design.graph_edges``);
* :class:`LogHistogram` — a log-bucketed (HDR-style) distribution
  whose percentiles stay within ≈ 9 % over *unbounded* streams, with
  exact count/total/min/max — every histogram, from
  ``fdb.wal.append_seconds`` to the service RED durations.

A :class:`MetricsRegistry` maps dotted metric names to instruments and
renders the whole collection as a plain, JSON-ready dict. Instruments
are created lazily on first use, so call sites never declare anything
up front. The module is dependency-free and makes no attempt at
cross-process aggregation — one registry per process is the model (the
default lives on :data:`repro.obs.hooks.OBS`).
"""

from __future__ import annotations

import math
import threading
from typing import Iterator

from repro.errors import ReproError

__all__ = ["Counter", "Gauge", "LogHistogram", "MetricsRegistry",
           "MetricError"]


class MetricError(ReproError):
    """A metric name was reused with a different instrument kind."""


class Counter:
    """A monotonically increasing count of events.

    ``inc`` takes the instrument's lock: ``self.value += amount`` is a
    read-modify-write, and concurrent updaters (the WAL journal, a
    background checkpoint) must not lose counts.
    """

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise MetricError(
                f"counter {self.name!r} cannot decrease (amount={amount})"
            )
        with self._lock:
            self.value += amount

    def reset(self) -> None:
        with self._lock:
            self.value = 0

    def snapshot(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A level that can move both ways (sizes, depths, toggles)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def reset(self) -> None:
        self.value = 0

    def snapshot(self) -> float:
        return self.value

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, {self.value})"


class LogHistogram:
    """A log-bucketed (HDR-style) distribution over unbounded streams.

    Observations land in geometric buckets: bucket ``i`` covers
    ``[base**i, base**(i+1))``, kept as a sparse ``index -> count``
    dict, so memory is O(dynamic range), not O(observations), and the
    value reported for any percentile is off by at most a factor of
    ``base`` (the default ``2**(1/8) ≈ 1.09`` bounds relative error at
    ~9%, usually much less since the geometric bucket midpoint is
    reported). The tails never degrade: the p99.9 of the ten-millionth
    observation is as accurate as the p50 of the hundredth.

    Values at or below ``min_value`` (default 1 µs — below clock
    resolution for the latency signals this backs) share the floor
    bucket. Count/total/min/max are exact.
    """

    __slots__ = ("name", "count", "total", "min", "max", "base",
                 "min_value", "_buckets", "_log_base", "_lock")

    def __init__(self, name: str, *, base: float = 2.0 ** 0.125,
                 min_value: float = 1e-6) -> None:
        if base <= 1.0:
            raise MetricError(
                f"log histogram {name!r} needs base > 1, got {base}"
            )
        if min_value <= 0:
            raise MetricError(
                f"log histogram {name!r} needs min_value > 0"
            )
        self.name = name
        self.base = base
        self.min_value = min_value
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self._buckets: dict[int, int] = {}
        self._log_base = math.log(base)
        self._lock = threading.Lock()

    def _index(self, value: float) -> int:
        if value <= self.min_value:
            value = self.min_value
        return math.floor(math.log(value) / self._log_base + 1e-12)

    def bucket_bound(self, index: int) -> float:
        """The exclusive upper bound of bucket ``index``."""
        return self.base ** (index + 1)

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            index = self._index(value)
            self._buckets[index] = self._buckets.get(index, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (0-100) by cumulative bucket rank;
        reports the geometric midpoint of the holding bucket, clamped
        to the exact observed min/max so the envelope stays truthful."""
        if not 0 <= p <= 100:
            raise MetricError(f"percentile must be in [0, 100], got {p}")
        with self._lock:
            if not self.count:
                return 0.0
            rank = max(1, math.ceil(p / 100 * self.count))
            seen = 0
            for index in sorted(self._buckets):
                seen += self._buckets[index]
                if seen >= rank:
                    mid = self.base ** (index + 0.5)
                    assert self.min is not None and self.max is not None
                    return min(max(mid, self.min), self.max)
            return self.max if self.max is not None else 0.0

    def buckets(self) -> list[tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs, ascending — the
        shape a Prometheus histogram exposition wants."""
        with self._lock:
            cumulative = 0
            out: list[tuple[float, int]] = []
            for index in sorted(self._buckets):
                cumulative += self._buckets[index]
                out.append((self.bucket_bound(index), cumulative))
            return out

    def reset(self) -> None:
        with self._lock:
            self.count = 0
            self.total = 0.0
            self.min = None
            self.max = None
            self._buckets.clear()

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    def __repr__(self) -> str:
        return f"LogHistogram({self.name!r}, n={self.count})"


class MetricsRegistry:
    """All instruments of one process, by dotted name.

    Names are namespaced by convention (``fdb.updates.delete``,
    ``design.cycles_reported``); the full catalogue lives in
    docs/OBSERVABILITY.md. Asking for an existing name with a different
    instrument kind raises :class:`MetricError` — silent kind confusion
    would corrupt every downstream report.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | LogHistogram] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, cls: type):
        # Fast path without the lock: dict reads are atomic, and an
        # already-registered instrument (the overwhelmingly common
        # case) needs no synchronisation to hand out.
        instrument = self._metrics.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._metrics.get(name)
                if instrument is None:
                    instrument = cls(name)
                    self._metrics[name] = instrument
        if not isinstance(instrument, cls):
            raise MetricError(
                f"metric {name!r} is a {type(instrument).__name__}, "
                f"not a {cls.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> LogHistogram:
        return self._get(name, LogHistogram)

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[Counter | Gauge | LogHistogram]:
        return iter(self._instruments())

    def _instruments(self) -> tuple:
        # A copy taken under the lock: another thread registering a
        # name meanwhile must not break an iteration.
        with self._lock:
            return tuple(self._metrics.values())

    def reset(self) -> None:
        """Zero every instrument, keeping registrations."""
        for instrument in self._instruments():
            instrument.reset()

    def clear(self) -> None:
        """Drop every instrument."""
        self._metrics.clear()

    def snapshot(self) -> dict:
        """The registry as a JSON-ready dict, names sorted, grouped by
        instrument kind."""
        counters: dict[str, int] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict] = {}
        for instrument in sorted(self._instruments(),
                                 key=lambda ins: ins.name):
            name = instrument.name
            if isinstance(instrument, Counter):
                counters[name] = instrument.snapshot()
            elif isinstance(instrument, Gauge):
                gauges[name] = instrument.snapshot()
            else:
                histograms[name] = instrument.snapshot()
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}
