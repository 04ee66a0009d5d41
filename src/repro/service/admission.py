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
        self._cond = threading.Condition()
        self._active = 0
        self._queued = 0
        self._closed = False
        self.shed = 0  # lifetime count, for reports

    def _publish(self) -> None:
        if OBS.enabled:
            OBS.gauge("service.active", self._active)
            OBS.gauge("service.queued", self._queued)

    def enter(self, *, deadline: Deadline | None = None) -> None:
        """Take an execution slot, queueing briefly if none is free.

        Raises :class:`ServiceOverloaded` when the queue is full or
        the wait runs out, :class:`ServiceClosed` once the gate is
        closed.
        """
        limit = self.queue_timeout
        if deadline is not None:
            limit = min(limit, max(deadline.remaining(), 0.0))
        started = time.monotonic()
        expires = started + limit
        with self._cond:
            if self._closed:
                raise ServiceClosed("service is draining; no new requests")
            if self._active < self.max_concurrent:
                self._active += 1
                self._publish()
                if OBS.enabled:
                    OBS.observe("service.admission.wait_seconds",
                                time.monotonic() - started)
                return
            if self._queued >= self.max_queue:
                self.shed += 1
                if OBS.enabled:
                    OBS.inc("service.shed")
                    OBS.event("admission.shed", reason="queue_full",
                              queued=self._queued)
                raise ServiceOverloaded(
                    f"request queue full ({self._queued} waiting); "
                    f"request shed"
                )
            self._queued += 1
            self._publish()
            try:
                while True:
                    if self._closed:
                        raise ServiceClosed(
                            "service is draining; no new requests"
                        )
                    if self._active < self.max_concurrent:
                        self._active += 1
                        if OBS.enabled:
                            OBS.observe(
                                "service.admission.wait_seconds",
                                time.monotonic() - started,
                            )
                        return
                    remaining = expires - time.monotonic()
                    if remaining <= 0:
                        self.shed += 1
                        if OBS.enabled:
                            OBS.inc("service.shed")
                            OBS.event("admission.shed",
                                      reason="queue_wait_timeout")
                        raise ServiceOverloaded(
                            f"queued {limit:.3f}s without an execution "
                            f"slot; request shed"
                        )
                    self._cond.wait(remaining)
            finally:
                self._queued -= 1
                self._publish()

    def leave(self) -> None:
        """Return an execution slot."""
        with self._cond:
            self._active -= 1
            assert self._active >= 0, "admission gate released twice"
            self._publish()
            self._cond.notify_all()

    def close(self) -> None:
        """Stop admitting; queued requests are woken to fail fast."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    def wait_idle(self, timeout: float = 10.0) -> bool:
        """Block until every admitted request has left (the drain
        barrier); False if ``timeout`` elapses first."""
        expires = time.monotonic() + timeout
        with self._cond:
            while self._active > 0:
                remaining = expires - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(remaining)
            return True
