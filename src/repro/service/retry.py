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

    def run(self, fn, *args, rng: random.Random | None = None,
            deadline: Deadline | None = None,
            on_retry=None):
        """Call ``fn(*args)`` under this policy.

        Failures outside :data:`RETRYABLE` propagate at once; the rest are
        retried up to ``max_attempts`` total calls, backing off in
        between. A ``deadline`` bounds the whole affair: no retry is
        *started* once it has expired, and sleeps are clipped to the
        time remaining (better to attempt with a sliver of budget than
        to sleep through it). ``on_retry(attempt, exc)`` is called
        before each backoff — the service uses it to count retries.
        """
        attempt = 0
        while True:
            try:
                return fn(*args)
            except BaseException as exc:
                if not isinstance(exc, RETRYABLE):
                    raise
                if attempt >= self.max_attempts - 1:
                    raise
                if deadline is not None and deadline.expired:
                    raise
                if on_retry is not None:
                    on_retry(attempt, exc)
                pause = self.delay(attempt, rng)
                if deadline is not None:
                    pause = min(pause, max(deadline.remaining(), 0.0))
                if pause > 0:
                    time.sleep(pause)
                attempt += 1
