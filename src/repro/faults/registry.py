"""Deterministic fault injection for the durability layer.

Crash-safety claims are only as good as the crashes they were tested
against. This module provides a process-wide :data:`FAULTS` registry of
*named fault points* threaded through the storage, WAL, persistence and
transaction code. In production nothing is armed and every
:meth:`FaultRegistry.fire` call is a single dict lookup that finds
nothing; under test, a harness arms a fault at a point and the next
``fire`` there simulates the failure:

* :class:`CrashFault` — the process dies *at* the point (raises
  :class:`SimulatedCrash`, which derives from ``BaseException`` so no
  library ``except Exception`` handler can accidentally "survive" it);
* :class:`TornWrite` — the process dies mid-write, leaving only the
  first *n* bytes of the payload on disk (the classic torn record);
* :class:`ErrorFault` — the operation fails with a catchable
  exception a set number of times and then works;
  :class:`TransientError` is the same with ``OSError``, exercising
  retry paths.

Every point is registered up front with a description, so harnesses can
*enumerate* the catalogue and prove they exercised all of it — a fault
matrix with a hole in it is the bug that ships.
"""

from __future__ import annotations

import os
import random
import threading
import time
from dataclasses import dataclass, field
from importlib import import_module
from typing import Callable, Iterator

__all__ = [
    "SimulatedCrash",
    "Fault",
    "CrashFault",
    "TornWrite",
    "TransientError",
    "ErrorFault",
    "LatencyFault",
    "ClockSkewFault",
    "HeartbeatDropFault",
    "FaultRegistry",
    "FAULTS",
]


class SimulatedCrash(BaseException):
    """The simulated death of the process at a fault point.

    Derives from ``BaseException`` (like ``KeyboardInterrupt``) so that
    library-level ``except Exception`` recovery code cannot catch it: a
    real crash gives no such chance, and the harness must observe the
    same on-disk state a real crash would leave.
    """

    def __init__(self, point: str) -> None:
        super().__init__(f"simulated crash at fault point {point!r}")
        self.point = point


class Fault:
    """Base class for injectable faults. Subclasses implement
    ``trigger(point, **context)``, called with the point name and
    whatever context the fire site provides."""


class CrashFault(Fault):
    """Die at the point, touching nothing."""

    def trigger(self, point: str, **context) -> None:
        raise SimulatedCrash(point)

    def __repr__(self) -> str:
        return "CrashFault()"


class TornWrite(Fault):
    """Die mid-write: persist only the first ``nbytes`` of the payload.

    Fire sites that support torn writes pass ``handle`` (a binary or
    text file object positioned for the write) and ``data`` (the full
    payload). The fault writes the prefix, forces it to disk so the
    tear is really there, and then crashes.
    """

    def __init__(self, nbytes: int) -> None:
        self.nbytes = nbytes

    def trigger(self, point: str, **context) -> None:
        handle = context.get("handle")
        data = context.get("data")
        if handle is None or data is None:
            raise SimulatedCrash(point)
        handle.write(data[: self.nbytes])
        handle.flush()
        os.fsync(handle.fileno())
        raise SimulatedCrash(point)

    def __repr__(self) -> str:
        return f"TornWrite({self.nbytes})"


class ErrorFault(Fault):
    """Fail with an ordinary (catchable) exception the first ``times``
    firings.

    Unlike :class:`SimulatedCrash` the process survives; this drives
    code paths that *handle* failure — the WAL's compensating abort
    record, transaction rollback — rather than code paths that die.
    The countdown is guarded by a lock so that concurrent firings
    consume exactly ``times`` failures in total.
    """

    def __init__(self, times: int = 1,
                 make: Callable[[], Exception] | None = None) -> None:
        self.times = times
        self.remaining = times
        self._lock = threading.Lock()
        self._make = make or self._default

    @staticmethod
    def _default() -> Exception:
        return RuntimeError("injected failure")

    def trigger(self, point: str, **context) -> None:
        with self._lock:
            if self.remaining <= 0:
                return
            self.remaining -= 1
        raise self._make()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(times={self.times})"


class TransientError(ErrorFault):
    """An :class:`ErrorFault` that fails with ``OSError``: it exercises
    retry-with-backoff paths, where the caller should succeed once the
    transient condition clears, without duplicating the write."""

    @staticmethod
    def _default() -> Exception:
        return OSError("injected transient I/O error")


class LatencyFault(Fault):
    """Stall the point instead of failing it: sleep ``delay`` seconds
    plus a uniformly drawn jitter in ``[0, jitter]``.

    Stretches critical sections so that lock contention, deadline
    expiry and queue build-up actually happen under test. The jitter
    stream comes from a dedicated seeded :class:`random.Random` so a
    soak run's *schedule pressure* is reproducible even though thread
    interleaving is not. ``times=None`` stalls every firing;
    an integer bounds how many firings stall.
    """

    def __init__(self, delay: float, jitter: float = 0.0, *,
                 times: int | None = None, seed: int = 0) -> None:
        if delay < 0 or jitter < 0:
            raise ValueError("delay and jitter must be >= 0")
        self.delay = delay
        self.jitter = jitter
        self.times = times
        self.remaining = times
        self._lock = threading.Lock()
        self._rng = random.Random(seed)

    def trigger(self, point: str, **context) -> None:
        with self._lock:
            if self.remaining is not None:
                if self.remaining <= 0:
                    return
                self.remaining -= 1
            pause = self.delay
            if self.jitter:
                pause += self._rng.uniform(0.0, self.jitter)
        # Sleep outside the lock: concurrent victims stall in parallel,
        # the way real device latency hits them.
        if pause > 0:
            time.sleep(pause)

    def __repr__(self) -> str:
        extra = f", times={self.times}" if self.times is not None else ""
        return f"LatencyFault({self.delay}, jitter={self.jitter}{extra})"


class ClockSkewFault(Fault):
    """Skew a node's monotonic clock instead of failing anything.

    Fire sites (the lease layer's ``repl.lease.clock``) pass ``node``
    and a one-element ``skew`` list; the fault adds that node's
    configured drift to it and the clock read comes back shifted. Per
    the lease safety argument, drifts up to the configured lease
    ``margin`` must be harmless — the chaos soak runs its failovers
    with the leader and one elector skewed in opposite directions.
    """

    def __init__(self, offsets: dict[str, float] | None = None, *,
                 default: float = 0.0) -> None:
        self.offsets = dict(offsets or {})
        self.default = default

    def trigger(self, point: str, **context) -> None:
        sink = context.get("skew")
        if sink is None:
            return
        sink[0] += self.offsets.get(context.get("node"), self.default)

    def __repr__(self) -> str:
        return f"ClockSkewFault({self.offsets}, default={self.default})"


class HeartbeatDropFault(Fault):
    """Drop lease heartbeats: fail the exchange with ``ConnectionError``
    with probability ``rate``, optionally only for the named replicas
    and at most ``times`` drops in total.

    The draw stream comes from a seeded :class:`random.Random`, so a
    soak run's heartbeat-loss schedule is reproducible. Dropped beats
    must *not* demote a healthy primary — renewal votes also ride
    every shipping exchange — which is exactly what arming this during
    live traffic proves.
    """

    def __init__(self, rate: float = 1.0, *, times: int | None = None,
                 seed: int = 0,
                 replicas: set[str] | None = None) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        self.rate = rate
        self.times = times
        self.remaining = times
        self.replicas = set(replicas) if replicas is not None else None
        self.dropped = 0
        self._lock = threading.Lock()
        self._rng = random.Random(seed)

    def trigger(self, point: str, **context) -> None:
        replica = context.get("replica")
        with self._lock:
            if self.replicas is not None \
                    and replica not in self.replicas:
                return
            if self.remaining is not None and self.remaining <= 0:
                return
            if self._rng.random() >= self.rate:
                return
            if self.remaining is not None:
                self.remaining -= 1
            self.dropped += 1
        raise ConnectionError(
            f"heartbeat to {replica or 'replica'} dropped at {point}"
        )

    def __repr__(self) -> str:
        extra = f", times={self.times}" if self.times is not None else ""
        return f"HeartbeatDropFault({self.rate}{extra})"


@dataclass
class _Point:
    name: str
    description: str
    supports_torn_write: bool = False
    # An update in flight when this point fires is expected durable
    # (recovery must replay it) — see the crash-matrix harness.
    durable: bool = False
    hits: int = 0
    armed: Fault | None = None


@dataclass(frozen=True)
class FaultPointInfo:
    """Public view of one registered fault point."""

    name: str
    description: str
    supports_torn_write: bool
    durable: bool
    hits: int


# The modules whose fault points every catalogue reader sees: the
# single-node durability path, in the order ``import repro`` loaded them
# when package inits imported eagerly.
_ENGINE_MODULES = ("repro.fdb.transaction", "repro.fdb.storage",
                  "repro.fdb.persistence", "repro.fdb.wal")


class FaultRegistry:
    """The catalogue of fault points and whatever is armed at them.

    Thread-safe: arming, disarming and firing may happen concurrently
    (the chaos soak harness flips faults from a controller thread while
    worker threads are mid-write). A single re-entrant lock guards the
    catalogue and hit counters; armed faults *trigger outside the
    lock* so a stalling fault (:class:`LatencyFault`) never serialises
    unrelated fire sites or deadlocks against a fault that itself
    touches the registry.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._points: dict[str, _Point] = {}

    # -- catalogue ----------------------------------------------------------

    def register(self, name: str, description: str, *,
                 supports_torn_write: bool = False,
                 durable: bool = False) -> None:
        """Declare a fault point (idempotent; modules register at
        import time)."""
        with self._lock:
            if name not in self._points:
                self._points[name] = _Point(
                    name, description,
                    supports_torn_write=supports_torn_write,
                    durable=durable,
                )

    def points(self) -> tuple[FaultPointInfo, ...]:
        """The registered catalogue, in registration order. Points
        register when their module is imported; the durable engine's
        modules (storage, WAL, snapshot, transaction) are imported here
        first, so every reader enumerates their points whatever part of
        the stack it loaded. Replication's points join once a reader
        imports replication."""
        for module in _ENGINE_MODULES:
            import_module(module)
        with self._lock:
            return tuple(
                FaultPointInfo(p.name, p.description,
                               p.supports_torn_write, p.durable, p.hits)
                for p in self._points.values()
            )

    def __iter__(self) -> Iterator[str]:
        return iter(tuple(info.name for info in self.points()))

    def _point(self, name: str) -> _Point:
        try:
            return self._points[name]
        except KeyError:
            raise KeyError(
                f"unknown fault point {name!r}; registered: "
                f"{sorted(self._points)}"
            ) from None

    # -- arming -------------------------------------------------------------

    def arm(self, name: str, fault: Fault) -> None:
        """Arm ``fault`` at the named point (replacing any prior)."""
        with self._lock:
            self._point(name).armed = fault

    def disarm(self, name: str) -> None:
        with self._lock:
            self._point(name).armed = None

    def disarm_all(self) -> None:
        with self._lock:
            for point in self._points.values():
                point.armed = None

    def injected(self, name: str, fault: Fault) -> "_Injection":
        """Context manager: arm on entry, disarm on exit."""
        return _Injection(self, name, fault)

    # -- firing -------------------------------------------------------------

    def fire(self, name: str, **context) -> None:
        """Hit a fault point. No-op unless something is armed there.

        Fire sites for torn-write-capable points pass ``handle`` and
        ``data``; the armed fault decides what to do with them.
        """
        with self._lock:
            point = self._points.get(name)
            if point is None:
                raise KeyError(
                    f"fire at unregistered fault point {name!r}")
            point.hits += 1
            armed = point.armed
        if armed is not None:
            armed.trigger(name, **context)

    def hits(self, name: str) -> int:
        """How many times the named point has fired."""
        with self._lock:
            return self._point(name).hits


class _Injection:
    def __init__(self, registry: FaultRegistry, name: str,
                 fault: Fault) -> None:
        self._registry = registry
        self._name = name
        self._fault = fault

    def __enter__(self) -> Fault:
        self._registry.arm(self._name, self._fault)
        return self._fault

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._registry.disarm(self._name)
        return False


FAULTS = FaultRegistry()
"""The process-wide fault registry (nothing armed by default)."""
