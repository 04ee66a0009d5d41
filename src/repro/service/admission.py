"""Admission control: a bounded gate in front of the execution paths.

Shedding beats queueing once the queue stops draining: a request that
waits past its deadline consumes a slot and produces an error anyway.
The gate therefore bounds both the number of requests *executing*
(``max_concurrent``) and the number *waiting* (``max_queue``); a
request arriving past the waiting bound is rejected immediately with
:class:`~repro.errors.ServiceOverloaded`, and one that queues but is
not admitted within ``queue_timeout`` (or its own deadline) is shed
the same way. Arrivals after :meth:`AdmissionGate.close` get
:class:`~repro.errors.ServiceClosed` — the drain signal.

The counters are exported as gauges (``service.active``,
``service.queued``) so a dashboard shows saturation before the
shedding starts.
"""

from __future__ import annotations

import threading
import time
from collections import Counter

from repro.cancel import Deadline
from repro.errors import ServiceClosed, ServiceOverloaded
from repro.obs.hooks import OBS

__all__ = ["AdmissionGate"]


class AdmissionGate:
    """Bounded concurrency + bounded queue, condition-variable based."""

    def __init__(self, *, max_concurrent: int = 8, max_queue: int = 16,
                 queue_timeout: float = 1.0) -> None:
        if max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        if max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        self.max_concurrent = max_concurrent
        self.max_queue = max_queue
        self.queue_timeout = queue_timeout
        # Uncontended enter / leave run on the raw lock; the condition
        # (over the same lock) is for the queued and the drain barrier.
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._active = 0
        self._queued = 0
        self._idlers = 0  # wait_idle callers asleep on _cond
        self._closed = False
        self.shed = 0  # lifetime count, for reports
        self._tallies: Counter[str] = Counter()  # see tallies()

    def _publish(self) -> None:
        OBS.gauge("service.active", self._active)
        OBS.gauge("service.queued", self._queued)

    def enter(self, *, deadline: Deadline | None = None,
              count: str | None = None) -> None:
        """Take an execution slot, queueing briefly if none is free,
        and count it under ``count`` (:meth:`tallies`). Raises
        :class:`ServiceOverloaded` when the queue is full or the wait
        runs out, :class:`ServiceClosed` once the gate is closed."""
        started = time.monotonic() if OBS.enabled else None
        self._lock.acquire()  # not ``with``: see repro.service.locks
        try:
            if self._closed:
                raise ServiceClosed("service is draining; no new requests")
            if self._active >= self.max_concurrent:
                if self._queued >= self.max_queue:
                    raise self._shed(
                        f"request queue full ({self._queued} waiting); "
                        f"request shed", reason="queue_full",
                        queued=self._queued)
                limit = self.queue_timeout
                if deadline is not None:
                    limit = min(limit, max(deadline.remaining(), 0.0))
                if started is None:
                    started = time.monotonic()
                expires = started + limit
                self._queued += 1
                if OBS.enabled:
                    self._publish()
                try:
                    while self._active >= self.max_concurrent:
                        remaining = expires - time.monotonic()
                        if remaining <= 0:
                            raise self._shed(
                                f"queued {limit:.3f}s without an execution "
                                f"slot; request shed",
                                reason="queue_wait_timeout")
                        self._cond.wait(remaining)
                        if self._closed:
                            raise ServiceClosed(
                                "service is draining; no new requests")
                finally:
                    self._queued -= 1
                    if OBS.enabled:
                        self._publish()
            self._active += 1
            if count is not None:
                self._tallies[count] += 1
            if OBS.enabled:
                self._publish()
                if started is not None:
                    OBS.observe("service.admission.wait_seconds",
                                time.monotonic() - started)
        finally:
            self._lock.release()

    def _shed(self, message: str, **event) -> ServiceOverloaded:
        # Caller holds _lock: count one shed request, return its error.
        self.shed += 1
        if OBS.enabled:
            OBS.inc("service.shed")
            OBS.event("admission.shed", **event)
        return ServiceOverloaded(message)

    def tally(self, *keys: str) -> None:
        """Add one to each of ``keys`` in :meth:`tallies`."""
        with self._lock:
            self._tallies.update(keys)

    def tallies(self) -> dict[str, int]:
        """Admissions by ``count`` key, plus what :meth:`tally` added."""
        with self._lock:
            return dict(self._tallies)

    def leave(self) -> None:
        """Return an execution slot; ``RuntimeError`` when none is
        taken (a double release, always a caller bug)."""
        self._lock.acquire()
        try:
            if self._active <= 0:
                raise RuntimeError("admission gate released twice")
            self._active -= 1
            if OBS.enabled:
                self._publish()
            if self._queued or self._idlers:
                self._cond.notify_all()
        finally:
            self._lock.release()

    def close(self) -> None:
        """Stop admitting; queued requests are woken to fail fast."""
        with self._lock:
            self._closed = True
            self._cond.notify_all()

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def wait_idle(self, timeout: float = 10.0) -> bool:
        """Block until every admitted request has left (the drain
        barrier); False if ``timeout`` elapses first."""
        expires = time.monotonic() + timeout
        with self._lock:
            while self._active > 0:
                remaining = expires - time.monotonic()
                if remaining <= 0:
                    return False
                self._idlers += 1
                try:
                    self._cond.wait(remaining)
                finally:
                    self._idlers -= 1
            return True
