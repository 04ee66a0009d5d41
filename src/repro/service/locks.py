"""Reader–writer lock manager with timeouts, taken in one order.

Resources are just strings (the service locks *derivation clusters* —
see :mod:`repro.service.service` — but the manager does not care).
Locks come in two modes:

* ``"shared"`` — many owners may hold it together; blocks exclusive.
* ``"exclusive"`` — a single owner; blocks everything else.

Two properties the chaos soak depends on:

**Bounded waits.** Every :meth:`LockManager.acquire` carries a timeout
(and optionally a :class:`repro.cancel.Deadline`, whichever is
tighter); when it elapses the acquire fails with
:class:`repro.errors.LockTimeout` instead of parking forever.

**One order, once.** Callers take their locks through
:meth:`LockManager.held`, which acquires in sorted order, and no
caller asks for a resource while it holds one that sorts at or after
it. A wait-for cycle would need some owner to wait for a resource
sorting before one it holds, so none can form, and the manager keeps
no wait-for graph. An owner holds a resource at most once: there is
no re-entry and no shared → exclusive upgrade, and asking again for
a held resource raises ``RuntimeError``, as releasing an unheld one
does.

Everything is guarded by one mutex, which keeps the invariants easy
to believe. A ``_Held`` ask grants all its resources in one mutex hold
(the owner parks, on its own condition variable over that mutex, only
for one that is not free) and releases them all in one, notifying
only the waiters whose (resource, mode) request may now be grantable.
Uncontended, ``held`` over the write token plus one cluster is ≈ 2.2
µs enter to exit, an ``acquire`` / ``release`` pair ≈ 2.1 µs (2-core
x86-64, CPython 3.11; ``benchmarks/request_cost.py``). The request
path's mutexes (this one, the admission gate's, the SLO monitor's) are
taken by ``acquire`` and ``release``, not ``with``, which on CPython
3.11 costs as much again as the lock.
"""

from __future__ import annotations

import threading
import time
from threading import get_ident
from typing import Iterable

from repro.cancel import Deadline
from repro.errors import LockTimeout
from repro.obs.hooks import OBS

__all__ = ["LockManager", "SHARED", "EXCLUSIVE"]

SHARED = "shared"
EXCLUSIVE = "exclusive"


class LockManager:
    """Named reader–writer locks with timeouts and targeted wakeups."""

    def __init__(self, *, default_timeout: float = 5.0) -> None:
        self.default_timeout = default_timeout
        self._mutex = threading.Lock()
        # owner -> the condition it parks on. One per owner, allocated
        # on first wait and reused; all share self._mutex, so the
        # grant-check/park pair stays atomic against releases.
        self._conds: dict[int, threading.Condition] = {}
        # resource -> owners holding it shared (kept when it empties)
        self._shared: dict[str, set[int]] = {}
        # resource -> the owner holding it exclusively
        self._exclusive: dict[str, int] = {}
        # owner -> (resource, mode) it is currently parked on
        self._waiting: dict[int, tuple[str, str]] = {}
        # (resource, owner, mode) -> grant time, for hold histograms;
        # populated only while OBS is enabled, popped defensively so a
        # mid-run toggle cannot leak entries.
        self._held_since: dict[tuple[str, int, str], float] = {}

    def _may_grant(self, resource: str, mode: str) -> bool:
        if resource in self._exclusive:
            return False
        return mode == SHARED or not self._shared.get(resource)

    # -- public API ---------------------------------------------------------

    def acquire(self, resource: str, mode: str = SHARED, *,
                owner: int | None = None,
                timeout: float | None = None,
                deadline: Deadline | None = None) -> None:
        """Acquire ``resource`` in ``mode`` or raise.

        Raises :class:`LockTimeout` when ``timeout`` (or the tighter
        ``deadline``) elapses first, ``RuntimeError`` when the owner
        already holds ``resource`` in either mode. A resource grantable
        at once is granted without reading the clock."""
        _Held(self, (resource,), mode, owner, timeout, deadline)._take()

    def _park(self, resource: str, mode: str, me: int,
              started: float | None, timeout: float | None,
              deadline: Deadline | None) -> float:
        """Park ``me`` until ``resource`` may be granted in ``mode``, as
        :meth:`acquire` bounds it; returns ``started``. Holds ``_mutex``."""
        limit = self.default_timeout if timeout is None else timeout
        if deadline is not None:
            limit = min(limit, max(deadline.remaining(), 0.0))
        if started is None:
            started = time.monotonic()
        expires = started + limit
        cond = self._conds.get(me)
        if cond is None:
            cond = self._conds[me] = threading.Condition(self._mutex)
        while not self._may_grant(resource, mode):
            remaining = expires - time.monotonic()
            if remaining <= 0:
                if OBS.enabled:
                    OBS.inc("service.lock.timeouts")
                    OBS.event("lock.timeout", resource=resource, mode=mode)
                raise LockTimeout(f"could not acquire {resource!r} "
                                  f"({mode}) within {limit:.3f}s")
            self._waiting[me] = (resource, mode)
            if OBS.enabled:
                OBS.gauge("service.lock.waiters", len(self._waiting))
            try:
                # Sliced, not open-ended: insurance against a wakeup
                # the targeted notify did not foresee.
                cond.wait(min(remaining, 0.05))
            finally:
                self._waiting.pop(me, None)
                if OBS.enabled:
                    OBS.gauge("service.lock.waiters", len(self._waiting))
        return started

    def _wake(self, resource: str) -> None:
        """Notify exactly the waiters whose parked (resource, mode)
        request may now be grantable on the just-released
        ``resource``. Caller holds ``_mutex``. Waking a waiter does not
        reserve the grant — the woken thread re-runs :meth:`_may_grant`
        itself, so two compatible wakeups racing stays correct (the
        loser simply re-parks); what this avoids is the notify_all herd
        where every waiter on every resource stampedes the mutex per
        release."""
        woken = 0
        for owner, (wanted, mode) in self._waiting.items():
            if wanted != resource or not self._may_grant(resource, mode):
                continue
            cond = self._conds.get(owner)
            if cond is not None:
                cond.notify()
                woken += 1
        if woken and OBS.enabled:
            OBS.inc("service.lock.wakeups", woken)

    def release(self, resource: str, mode: str = SHARED, *,
                owner: int | None = None) -> None:
        """Release the owner's hold; raises ``RuntimeError`` on a hold
        the owner does not have (always a caller bug worth hearing
        about)."""
        _Held(self, (resource,), mode, owner, None, None).__exit__(
            None, None, None)

    def held(self, resources: Iterable[str], mode: str = SHARED, *,
             owner: int | None = None, timeout: float | None = None,
             deadline: Deadline | None = None) -> "_Held":
        """Hold several resources for a block, acquiring in sorted
        order (the one order every caller keeps, so two lock *sets*
        cannot deadlock each other), all or none. While OBS is on the
        ``service.locks`` span covers *acquisition only*, so wait time
        and work time stay separable in the trace."""
        return _Held(self, sorted(set(resources)), mode, owner, timeout,
                     deadline)

    # -- introspection ------------------------------------------------------

    def holders(self, resource: str) -> dict[str, tuple[int, ...]]:
        """Who holds ``resource`` right now (for tests and debugging)."""
        with self._mutex:
            exclusive = self._exclusive.get(resource)
            return {
                "shared": tuple(self._shared.get(resource, ())),
                "exclusive": () if exclusive is None else (exclusive,),
            }


class _Held:
    """An ask of ``ordered`` resources in one mode: the manager's one
    grant point (:meth:`_take`, in that order, all or none) and its
    one release point (leaving), each one mutex hold."""

    __slots__ = ("manager", "ordered", "mode", "owner", "timeout",
                 "deadline")

    def __init__(self, manager: LockManager, ordered, mode: str,
                 owner: int | None, timeout: float | None,
                 deadline: Deadline | None) -> None:
        if mode not in (SHARED, EXCLUSIVE):
            raise ValueError(f"unknown lock mode {mode!r}")
        self.manager, self.ordered, self.mode = manager, ordered, mode
        self.owner = get_ident() if owner is None else owner
        self.timeout, self.deadline = timeout, deadline

    def __enter__(self) -> None:
        if OBS.enabled:
            with OBS.span("service.locks", mode=self.mode):
                return self._take()
        self._take()

    def _take(self) -> None:
        manager, mode, me = self.manager, self.mode, self.owner
        shared, exclusive = manager._shared, manager._exclusive
        taken = 0
        manager._mutex.acquire()  # not ``with``: see the module docstring
        try:
            for resource in self.ordered:
                started = time.monotonic() if OBS.enabled else None
                holders = shared.get(resource)
                if exclusive.get(resource) == me or (holders
                                                     and me in holders):
                    raise RuntimeError(
                        f"owner {me} already holds {resource!r}")
                if resource in exclusive or mode == EXCLUSIVE and holders:
                    started = manager._park(resource, mode, me, started,
                                            self.timeout, self.deadline)
                    holders = shared.get(resource)
                if mode == EXCLUSIVE:
                    exclusive[resource] = me
                elif holders is None:
                    shared[resource] = {me}
                else:
                    holders.add(me)
                taken += 1
                if OBS.enabled:
                    now = time.monotonic()
                    manager._held_since[(resource, me, mode)] = now
                    if started is not None:
                        OBS.observe("service.lock.wait_seconds",
                                    now - started)
                        OBS.observe(f"service.lock.wait.{mode}.{resource}",
                                    now - started)
        except BaseException:
            manager._mutex.release()
            if taken:  # all or none
                _Held(manager, self.ordered[:taken], mode, me, None,
                      None).__exit__(None, None, None)
            raise
        manager._mutex.release()

    def __exit__(self, exc_type, exc, tb) -> bool:
        manager, mode, me = self.manager, self.mode, self.owner
        manager._mutex.acquire()
        try:
            for resource in self.ordered:
                if mode == SHARED and me in manager._shared.get(resource, ()):
                    manager._shared[resource].discard(me)
                elif (mode == EXCLUSIVE
                      and manager._exclusive.get(resource) == me):
                    del manager._exclusive[resource]
                else:
                    raise RuntimeError(f"releasing {resource!r} ({mode}) "
                                       f"not held by owner {me}")
                if manager._held_since:
                    # Feed the per-cluster hold-time histogram.
                    since = manager._held_since.pop((resource, me, mode),
                                                    None)
                    if since is not None and OBS.enabled:
                        OBS.observe(f"service.lock.hold.{mode}.{resource}",
                                    time.monotonic() - since)
                if manager._waiting:
                    manager._wake(resource)
        finally:
            manager._mutex.release()
        return False
