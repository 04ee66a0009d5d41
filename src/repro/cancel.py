"""Cooperative cancellation: per-request deadlines for long propagation.

The paper's update procedures fan out — a single ``DEL`` on a derived
function enumerates chains, creates NCs and appends WAL records. Under
a service deadline those cascades must be *interruptible*, but the
engine holds no locks mid-procedure that a hard kill could respect, so
cancellation is cooperative: hot loops call :func:`checkpoint` between
units of work, and the checkpoint raises
:class:`repro.errors.DeadlineExceeded` once the ambient deadline has
passed. Checkpoints sit *between* mutations, never inside one; wrapped
in a :class:`repro.fdb.transaction.Transaction` (as every service and
WAL write is) a cancelled update rolls back to a clean state via the
existing compensating-abort path.

Cost discipline mirrors :mod:`repro.obs.hooks`: when no deadline scope
is active anywhere in the process, :func:`checkpoint` is a single
global integer test, and ``deadline_scope(None)`` hands out one shared
no-op scope. The deadline itself propagates through a
:class:`~contextvars.ContextVar`, so scopes opened on one thread or
asyncio task never leak into another's requests.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar

from repro.errors import DeadlineExceeded

__all__ = [
    "Deadline",
    "deadline_scope",
    "cancellation_active",
    "checkpoint",
]


class Deadline:
    """A monotonic-clock expiry a request must finish by."""

    __slots__ = ("expires_at",)

    def __init__(self, seconds: float | None = None, *,
                 expires_at: float | None = None) -> None:
        if (seconds is None) == (expires_at is None):
            raise ValueError(
                "pass exactly one of seconds= or expires_at="
            )
        if expires_at is None:
            assert seconds is not None
            expires_at = time.monotonic() + seconds
        self.expires_at = expires_at

    def remaining(self) -> float:
        """Seconds left (negative once expired)."""
        return self.expires_at - time.monotonic()

    @property
    def expired(self) -> bool:
        return time.monotonic() >= self.expires_at

    def __repr__(self) -> str:
        return f"Deadline(remaining={self.remaining():.4f}s)"


_DEADLINE: ContextVar[Deadline | None] = ContextVar(
    "repro_cancel_deadline", default=None
)

# Number of live deadline scopes in the whole process. Guarded by
# _SCOPES_LOCK for writes; read without the lock in checkpoint() (a
# single int load — at worst a checkpoint races a scope opening and
# fires one unit of work late, which cooperative cancellation permits).
_ACTIVE_SCOPES = 0
_SCOPES_LOCK = threading.Lock()


# The scope ``deadline_scope(None)`` hands out: one shared object whose
# entering and leaving do nothing.
_NO_SCOPE = nullcontext()


def deadline_scope(deadline: Deadline | float | None):
    """Run a block under a deadline (``None`` → no-op scope).

    A float is shorthand for ``Deadline(seconds)``. Nested scopes keep
    the *tighter* constraint: an inner scope cannot extend an outer
    deadline, only shorten it.
    """
    if deadline is None:
        return _NO_SCOPE
    return _scope(deadline)


@contextmanager
def _scope(deadline: Deadline | float):
    global _ACTIVE_SCOPES
    if not isinstance(deadline, Deadline):
        deadline = Deadline(deadline)
    outer = _DEADLINE.get()
    if outer is not None and outer.expires_at < deadline.expires_at:
        deadline = outer
    token = _DEADLINE.set(deadline)
    with _SCOPES_LOCK:
        _ACTIVE_SCOPES += 1
    try:
        yield deadline
    finally:
        with _SCOPES_LOCK:
            _ACTIVE_SCOPES -= 1
        _DEADLINE.reset(token)


def cancellation_active() -> bool:
    """Whether any deadline scope is live in the process — hot loops
    may use this to keep their zero-overhead fast path byte-identical
    when nobody is asking for cancellation."""
    return _ACTIVE_SCOPES > 0


def checkpoint() -> None:
    """Raise :class:`DeadlineExceeded` if this context's deadline has
    passed; otherwise a near-free no-op (one global int test when no
    scope is active anywhere)."""
    if not _ACTIVE_SCOPES:
        return
    deadline = _DEADLINE.get()
    if deadline is not None and deadline.expired:
        raise DeadlineExceeded(
            f"deadline exceeded by {-deadline.remaining():.4f}s"
        )
