"""Retry with capped exponential backoff and seeded jitter.

The taxonomy matters more than the loop: a retry policy is a statement
about *which failures are expected to pass*. Lock timeouts pass once
the contending writer commits, so they are the only failures a request
retries (:data:`RETRYABLE`). A transient storage error is retried in
one place only: :class:`~repro.fdb.wal.UpdateLog` retries the failed
write under the write token, because only the log can cut it back, and
its final :class:`~repro.errors.PersistenceError` is the request's
verdict. Schema errors, constraint violations and deadline expiry do
not pass — retrying them burns the caller's remaining deadline for
nothing, so they propagate immediately.

Jitter comes from an injected :class:`random.Random` so that a soak
run's backoff schedule is reproducible from its seed, and so that a
thundering herd of identical workers does not resubmit in lockstep.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from repro.cancel import Deadline
from repro.errors import LockTimeout

__all__ = ["RetryPolicy", "RETRYABLE"]

RETRYABLE: tuple[type[BaseException], ...] = (LockTimeout,)


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff: attempt *n* (0-based) sleeps
    ``min(base_delay * 2**n, max_delay)`` plus a uniform jitter in
    ``[0, jitter]`` seconds."""

    max_attempts: int = 4
    base_delay: float = 0.005
    max_delay: float = 0.25
    jitter: float = 0.005

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0 or self.jitter < 0:
            raise ValueError("delays must be >= 0")

    def delay(self, attempt: int, rng: random.Random | None = None) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        pause = min(self.base_delay * (2 ** attempt), self.max_delay)
        if self.jitter and rng is not None:
            pause += rng.uniform(0.0, self.jitter)
        return pause

    def backoff(self, attempt: int, exc: BaseException, *,
                rng: random.Random | None = None,
                deadline: Deadline | None = None, on_retry=None) -> bool:
        """After try ``attempt`` (0-based) failed with ``exc``: False
        when that failure is final — ``exc`` is not :data:`RETRYABLE`,
        the ``max_attempts`` tries are spent, or ``deadline`` has
        expired (no retry is *started* then). Otherwise call
        ``on_retry(attempt, exc)`` (the service counts retries there),
        sleep :meth:`delay` clipped to the time the deadline leaves
        (better to attempt with a sliver of budget than to sleep
        through it), and return True. The caller's loop is the write
        path's appender step."""
        if (not isinstance(exc, RETRYABLE)
                or attempt >= self.max_attempts - 1
                or deadline is not None and deadline.expired):
            return False
        if on_retry is not None:
            on_retry(attempt, exc)
        pause = self.delay(attempt, rng)
        if deadline is not None:
            pause = min(pause, max(deadline.remaining(), 0.0))
        if pause > 0:
            time.sleep(pause)
        return True
