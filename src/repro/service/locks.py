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

Everything is guarded by one mutex: acquisition latency here is
dominated by *waiting*, not by lock-manager bookkeeping, so a single
lock keeps the invariants easy to believe. Each waiter parks on its
own condition variable (sharing that mutex), and a release notifies
only the waiters whose (resource, mode) request may now be grantable
on a just-released resource — not the whole herd.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
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
        # resource -> owners holding it shared
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
        already holds ``resource`` in either mode."""
        if mode not in (SHARED, EXCLUSIVE):
            raise ValueError(f"unknown lock mode {mode!r}")
        me = threading.get_ident() if owner is None else owner
        limit = self.default_timeout if timeout is None else timeout
        if deadline is not None:
            limit = min(limit, max(deadline.remaining(), 0.0))
        expires = time.monotonic() + limit
        started = time.monotonic()
        with self._mutex:
            if (self._exclusive.get(resource) == me
                    or me in self._shared.get(resource, ())):
                raise RuntimeError(
                    f"owner {me} already holds {resource!r}"
                )
            while True:
                if self._may_grant(resource, mode):
                    self._grant(resource, mode, me)
                    if OBS.enabled:
                        waited = time.monotonic() - started
                        OBS.observe("service.lock.wait_seconds", waited)
                        OBS.observe(
                            f"service.lock.wait.{mode}.{resource}",
                            waited,
                        )
                    return
                remaining = expires - time.monotonic()
                if remaining <= 0:
                    if OBS.enabled:
                        OBS.inc("service.lock.timeouts")
                        OBS.event("lock.timeout", resource=resource,
                                  mode=mode)
                    raise LockTimeout(
                        f"could not acquire {resource!r} ({mode}) "
                        f"within {limit:.3f}s"
                    )
                cond = self._conds.get(me)
                if cond is None:
                    cond = self._conds[me] = threading.Condition(
                        self._mutex
                    )
                self._waiting[me] = (resource, mode)
                if OBS.enabled:
                    OBS.gauge("service.lock.waiters", len(self._waiting))
                try:
                    # Sliced, not open-ended: insurance against a
                    # wakeup this manager's targeted notify did not
                    # foresee.
                    cond.wait(min(remaining, 0.05))
                finally:
                    self._waiting.pop(me, None)
                    if OBS.enabled:
                        OBS.gauge("service.lock.waiters",
                                  len(self._waiting))

    def _grant(self, resource: str, mode: str, owner: int) -> None:
        if mode == SHARED:
            self._shared.setdefault(resource, set()).add(owner)
        else:
            self._exclusive[resource] = owner
        if OBS.enabled:
            self._held_since[(resource, owner, mode)] = time.monotonic()

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
        me = threading.get_ident() if owner is None else owner
        with self._mutex:
            if mode == SHARED:
                holders = self._shared.get(resource)
                if not holders or me not in holders:
                    raise RuntimeError(
                        f"releasing {resource!r} (shared) not held by "
                        f"owner {me}"
                    )
                holders.discard(me)
                if not holders:
                    del self._shared[resource]
            else:
                if self._exclusive.get(resource) != me:
                    raise RuntimeError(
                        f"releasing {resource!r} (exclusive) not held "
                        f"by owner {me}"
                    )
                del self._exclusive[resource]
            # Feed the per-cluster hold-time histogram.
            since = self._held_since.pop((resource, me, mode), None)
            if since is not None and OBS.enabled:
                OBS.observe(f"service.lock.hold.{mode}.{resource}",
                            time.monotonic() - since)
            self._wake(resource)

    @contextmanager
    def held(self, resources: Iterable[str], mode: str = SHARED, *,
             owner: int | None = None, timeout: float | None = None,
             deadline: Deadline | None = None, **span_attrs):
        """Hold several resources for a block, acquiring in sorted
        order (the one order every caller keeps, so two lock *sets*
        cannot deadlock each other). On any failure, locks taken so far
        are released. The ``service.locks`` span (``mode`` plus
        ``span_attrs``) covers *acquisition only*, so wait time and
        work time stay separable in the trace."""
        ordered = sorted(set(resources))
        taken: list[str] = []
        try:
            with OBS.span("service.locks", mode=mode, **span_attrs):
                for resource in ordered:
                    self.acquire(resource, mode, owner=owner,
                                 timeout=timeout, deadline=deadline)
                    taken.append(resource)
            yield
        finally:
            for resource in reversed(taken):
                self.release(resource, mode, owner=owner)

    # -- introspection ------------------------------------------------------

    def holders(self, resource: str) -> dict[str, tuple[int, ...]]:
        """Who holds ``resource`` right now (for tests and debugging)."""
        with self._mutex:
            exclusive = self._exclusive.get(resource)
            return {
                "shared": tuple(self._shared.get(resource, ())),
                "exclusive": () if exclusive is None else (exclusive,),
            }
