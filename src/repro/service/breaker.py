"""Circuit breaker for the durable-storage path.

When the log device is down, every write request rediscovers that fact
the slow way: claim locks, snapshot the database, exhaust the WAL's
own I/O retries, roll back. Under load that turns one broken disk into
a convoy of threads all waiting on a doomed append. The breaker makes
the failure *cheap*: after ``failure_threshold`` consecutive storage
failures it trips OPEN and the service answers writes immediately with
:class:`~repro.errors.ServiceReadOnly` — reads keep flowing, because
nothing about reading needs the log.

States follow the classic three-state machine:

* ``CLOSED`` — healthy; failures are counted, successes reset the
  count.
* ``OPEN`` — failing fast; after ``reset_timeout`` seconds the next
  candidate write is allowed through as a probe (→ ``HALF_OPEN``).
* ``HALF_OPEN`` — exactly one probe in flight; its success closes the
  breaker, its failure re-opens it and restarts the clock.

Every transition is narrated through :func:`repro.obs.hooks.OBS.action`
(``breaker.open`` / ``breaker.half_open`` / ``breaker.closed``) so a
JSONL event log shows exactly when — and on which failure — the
service degraded and recovered; the soak harness asserts those records
exist.
"""

from __future__ import annotations

import threading
import time

from repro.errors import ServiceReadOnly
from repro.obs.hooks import OBS

__all__ = ["CircuitBreaker", "CLOSED", "OPEN", "HALF_OPEN", "STATE_CODE"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

# Numeric codes for the ``service.breaker.state`` gauge: a dashboard
# can alert on ``> 0`` (degraded) or ``== 2`` (failing fast).
STATE_CODE = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}


class CircuitBreaker:
    """Consecutive-failure breaker with a probe-based reset."""

    def __init__(self, *, failure_threshold: int = 5,
                 reset_timeout: float = 1.0,
                 clock=time.monotonic) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probing = False
        self._trips = 0
        self._resets = 0

    # -- state --------------------------------------------------------------

    @property
    def state(self) -> str:
        """OPEN ages into HALF_OPEN silently; :meth:`allow` moves it."""
        with self._lock:
            return self._state

    @property
    def trips(self) -> int:
        with self._lock:
            return self._trips

    @property
    def resets(self) -> int:
        with self._lock:
            return self._resets

    # -- gate ---------------------------------------------------------------

    def allow(self) -> None:
        """Gate one candidate operation; raises
        :class:`ServiceReadOnly` when the breaker is failing fast.
        A successful return in HALF_OPEN makes the caller the probe —
        it *must* then report :meth:`record_success`,
        :meth:`record_failure` or :meth:`release_probe`."""
        with self._lock:
            if self._state == CLOSED:
                return
            if self._state == OPEN:
                elapsed = self._clock() - self._opened_at
                if elapsed < self.reset_timeout:
                    raise ServiceReadOnly(
                        f"storage circuit breaker open "
                        f"({self.reset_timeout - elapsed:.3f}s until "
                        f"probe); writes rejected, reads served"
                    )
                self._transition(HALF_OPEN, reason="reset timeout elapsed")
                self._probing = False
            # HALF_OPEN: admit one probe.
            if self._probing:
                raise ServiceReadOnly(
                    "storage circuit breaker half-open and its probe "
                    "in flight; writes rejected"
                )
            self._probing = True

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            if self._state == HALF_OPEN:
                self._probing = False
                self._resets += 1
                self._transition(CLOSED, reason="probe succeeded")
            elif self._state == OPEN:
                # A write admitted before the trip finished late and
                # well: evidence enough to close.
                self._resets += 1
                self._transition(CLOSED, reason="late success")

    def record_failure(self, exc: BaseException | None = None) -> None:
        with self._lock:
            if self._state == HALF_OPEN:
                self._probing = False
                self._opened_at = self._clock()
                self._trips += 1
                self._transition(OPEN, reason=self._why(exc,
                                                        "probe failed"))
                return
            self._failures += 1
            if (self._state == CLOSED
                    and self._failures >= self.failure_threshold):
                self._opened_at = self._clock()
                self._trips += 1
                self._transition(
                    OPEN,
                    reason=self._why(
                        exc,
                        f"{self._failures} consecutive storage failures",
                    ),
                )

    def release_probe(self) -> None:
        """The operation :meth:`allow` admitted ended without a storage
        verdict (it failed validation, timed out on a lock, was
        cancelled): give up the probe so the breaker keeps probing."""
        with self._lock:
            if self._state == HALF_OPEN:
                self._probing = False

    @staticmethod
    def _why(exc: BaseException | None, base: str) -> str:
        if exc is None:
            return base
        return f"{base}: {type(exc).__name__}: {exc}"

    def _transition(self, state: str, *, reason: str) -> None:
        # Caller holds self._lock; OBS instruments take their own
        # locks and never call back in, so no ordering hazard.
        self._state = state
        if OBS.enabled:
            OBS.inc(f"service.breaker.{state}")
            OBS.gauge("service.breaker.state", STATE_CODE[state])
            OBS.action(f"breaker.{state}", reason=reason)
