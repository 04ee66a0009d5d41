"""Reader–writer lock manager with timeouts and deadlock detection.

Resources are just strings (the service locks *derivation clusters* —
see :mod:`repro.service.service` — but the manager does not care).
Locks come in two modes:

* ``"shared"`` — many owners may hold it together; blocks exclusive.
* ``"exclusive"`` — a single owner; blocks everything else.

Three properties the chaos soak depends on:

**Bounded waits.** Every :meth:`LockManager.acquire` carries a timeout
(and optionally a :class:`repro.cancel.Deadline`, whichever is
tighter); when it elapses the acquire fails with
:class:`repro.errors.LockTimeout` instead of parking forever. A lock
manager that can hang is a lock manager whose deadlocks you discover
in production.

**Deadlock detection.** Waiters are recorded in a wait-for graph
(owner → owners blocking it); before parking *and* on every wake-up
the would-be waiter runs a depth-first search for a cycle through
itself. Finding one raises :class:`repro.errors.DeadlockDetected`
immediately — the requester is the victim (it is the one that closed
the cycle), and the contract is that it drops everything it holds
(:meth:`LockManager.release_all`) and retries. Detection happens at
the waiter, so no background thread and no grace period.

**Upgrades.** A sole shared holder may acquire the same resource
exclusively (the classic read-modify-write step). Two shared holders
upgrading the same resource deadlock with each other by construction —
each waits for the other's shared release — and the cycle search
reports it; the retry loop in :class:`repro.service.DatabaseService`
then makes one of them back off and redo its read.

Everything is guarded by one mutex: acquisition latency here is
dominated by *waiting*, not by lock-manager bookkeeping, so a single
lock keeps the invariants easy to believe. Each waiter parks on its
own condition variable (sharing that mutex), and a release notifies
only the waiters whose (resource, mode) request may now be grantable
on a just-released resource — not the whole herd. Waits stay sliced at
50ms so a wait-for cycle formed *after* a waiter parked is still
detected within one slice.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterable

from repro.cancel import Deadline
from repro.errors import DeadlockDetected, LockTimeout
from repro.obs.hooks import OBS

__all__ = ["LockManager", "SHARED", "EXCLUSIVE"]

SHARED = "shared"
EXCLUSIVE = "exclusive"


class LockManager:
    """Named reader–writer locks with timeouts, upgrade support and
    waiter-side deadlock detection."""

    def __init__(self, *, default_timeout: float = 5.0) -> None:
        self.default_timeout = default_timeout
        self._mutex = threading.Lock()
        # owner -> the condition it parks on. One per owner, allocated
        # on first wait and reused; all share self._mutex, so the
        # grant-check/park pair stays atomic against releases.
        self._conds: dict[int, threading.Condition] = {}
        # resource -> owner -> hold count (re-entrant shared holds)
        self._shared: dict[str, dict[int, int]] = {}
        # resource -> (owner, hold count)
        self._exclusive: dict[str, tuple[int, int]] = {}
        # owner -> (resource, mode) it is currently parked on
        self._waiting: dict[int, tuple[str, str]] = {}
        # (resource, owner, mode) -> grant time, for hold histograms;
        # populated only while OBS is enabled, popped defensively so a
        # mid-run toggle cannot leak entries.
        self._held_since: dict[tuple[str, int, str], float] = {}

    # -- grant rules --------------------------------------------------------

    def _may_grant(self, resource: str, mode: str, owner: int) -> bool:
        exclusive = self._exclusive.get(resource)
        if exclusive is not None and exclusive[0] != owner:
            return False
        if mode == SHARED:
            return True
        holders = self._shared.get(resource)
        if holders and any(other != owner for other in holders):
            return False  # other readers in — no upgrade past them
        return True

    def _blockers(self, resource: str, mode: str, owner: int) -> set[int]:
        """Owners currently preventing the grant."""
        blockers: set[int] = set()
        exclusive = self._exclusive.get(resource)
        if exclusive is not None and exclusive[0] != owner:
            blockers.add(exclusive[0])
        if mode == EXCLUSIVE:
            for other in self._shared.get(resource, ()):
                if other != owner:
                    blockers.add(other)
        return blockers

    def _deadlocked(self, start: int, resource: str, mode: str) -> bool:
        """DFS over the wait-for graph: does waiting here close a cycle
        through ``start``?"""
        stack = list(self._blockers(resource, mode, start))
        seen: set[int] = set()
        while stack:
            owner = stack.pop()
            if owner == start:
                return True
            if owner in seen:
                continue
            seen.add(owner)
            waiting_on = self._waiting.get(owner)
            if waiting_on is not None:
                stack.extend(self._blockers(waiting_on[0],
                                            waiting_on[1], owner))
        return False

    # -- public API ---------------------------------------------------------

    def acquire(self, resource: str, mode: str = SHARED, *,
                owner: int | None = None,
                timeout: float | None = None,
                deadline: Deadline | None = None) -> None:
        """Acquire ``resource`` in ``mode`` or raise.

        Raises :class:`LockTimeout` when ``timeout`` (or the tighter
        ``deadline``) elapses first, :class:`DeadlockDetected` when
        waiting would close a wait-for cycle. Re-entrant per owner:
        each successful acquire needs a matching :meth:`release`.
        """
        if mode not in (SHARED, EXCLUSIVE):
            raise ValueError(f"unknown lock mode {mode!r}")
        me = threading.get_ident() if owner is None else owner
        limit = self.default_timeout if timeout is None else timeout
        if deadline is not None:
            limit = min(limit, max(deadline.remaining(), 0.0))
        expires = time.monotonic() + limit
        started = time.monotonic()
        with self._mutex:
            if (OBS.enabled and mode == EXCLUSIVE
                    and me in self._shared.get(resource, ())):
                OBS.inc("service.lock.upgrades")
            while True:
                if self._may_grant(resource, mode, me):
                    self._grant(resource, mode, me)
                    if OBS.enabled:
                        waited = time.monotonic() - started
                        OBS.observe("service.lock.wait_seconds", waited)
                        OBS.observe(
                            f"service.lock.wait.{mode}.{resource}",
                            waited,
                        )
                    return
                if self._deadlocked(me, resource, mode):
                    if OBS.enabled:
                        OBS.inc("service.lock.deadlocks")
                        OBS.event("lock.deadlock", resource=resource,
                                  mode=mode)
                    raise DeadlockDetected(
                        f"waiting for {resource!r} ({mode}) would "
                        f"deadlock; dropping locks and retrying is "
                        f"required"
                    )
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
                    # Sliced, not open-ended: the 50ms cap doubles as
                    # the deadlock-detection cadence for cycles formed
                    # while parked, and as insurance against a wakeup
                    # this manager's targeted notify did not foresee.
                    cond.wait(min(remaining, 0.05))
                finally:
                    self._waiting.pop(me, None)
                    if OBS.enabled:
                        OBS.gauge("service.lock.waiters",
                                  len(self._waiting))

    def _grant(self, resource: str, mode: str, owner: int) -> None:
        if mode == SHARED:
            holders = self._shared.setdefault(resource, {})
            fresh = owner not in holders
            holders[owner] = holders.get(owner, 0) + 1
        else:
            current = self._exclusive.get(resource)
            fresh = current is None or current[0] != owner
            if not fresh:
                self._exclusive[resource] = (owner, current[1] + 1)
            else:
                self._exclusive[resource] = (owner, 1)
        if fresh and OBS.enabled:
            self._held_since[(resource, owner, mode)] = time.monotonic()

    def _note_released(self, resource: str, owner: int,
                       mode: str) -> None:
        """The owner's last hold on ``resource`` just went away; feed
        the per-cluster hold-time histogram. Caller holds ``_mutex``."""
        since = self._held_since.pop((resource, owner, mode), None)
        if since is not None and OBS.enabled:
            OBS.observe(f"service.lock.hold.{mode}.{resource}",
                        time.monotonic() - since)

    def _wake(self, released: Iterable[str]) -> None:
        """Notify exactly the waiters whose parked (resource, mode)
        request may now be grantable on a just-released resource.
        Caller holds ``_mutex``. Waking a waiter does not reserve the
        grant — the woken thread re-runs :meth:`_may_grant` itself, so
        two compatible wakeups racing stays correct (the loser simply
        re-parks); what this avoids is the notify_all herd where every
        waiter on every resource stampedes the mutex per release."""
        targets = set(released)
        woken = 0
        for owner, (resource, mode) in self._waiting.items():
            if resource not in targets:
                continue
            if not self._may_grant(resource, mode, owner):
                continue
            cond = self._conds.get(owner)
            if cond is not None:
                cond.notify()
                woken += 1
        if woken and OBS.enabled:
            OBS.inc("service.lock.wakeups", woken)

    def release(self, resource: str, mode: str = SHARED, *,
                owner: int | None = None) -> None:
        """Release one hold; raises ``RuntimeError`` on a hold the
        owner does not have (always a caller bug worth hearing about)."""
        me = threading.get_ident() if owner is None else owner
        with self._mutex:
            if mode == SHARED:
                holders = self._shared.get(resource)
                if not holders or me not in holders:
                    raise RuntimeError(
                        f"releasing {resource!r} (shared) not held by "
                        f"owner {me}"
                    )
                holders[me] -= 1
                if holders[me] == 0:
                    del holders[me]
                    self._note_released(resource, me, SHARED)
                if not holders:
                    del self._shared[resource]
            else:
                current = self._exclusive.get(resource)
                if current is None or current[0] != me:
                    raise RuntimeError(
                        f"releasing {resource!r} (exclusive) not held "
                        f"by owner {me}"
                    )
                if current[1] > 1:
                    self._exclusive[resource] = (me, current[1] - 1)
                else:
                    del self._exclusive[resource]
                    self._note_released(resource, me, EXCLUSIVE)
            self._wake((resource,))

    def release_all(self, owner: int | None = None) -> None:
        """Drop every hold of ``owner`` — the deadlock victim's exit."""
        me = threading.get_ident() if owner is None else owner
        with self._mutex:
            released: list[str] = []
            for resource in [r for r, holders in self._shared.items()
                             if me in holders]:
                holders = self._shared[resource]
                del holders[me]
                self._note_released(resource, me, SHARED)
                if not holders:
                    del self._shared[resource]
                released.append(resource)
            for resource in [r for r, (o, _) in self._exclusive.items()
                             if o == me]:
                del self._exclusive[resource]
                self._note_released(resource, me, EXCLUSIVE)
                released.append(resource)
            self._wake(released)

    @contextmanager
    def held(self, resources: Iterable[str], mode: str = SHARED, *,
             owner: int | None = None, timeout: float | None = None,
             deadline: Deadline | None = None, **span_attrs):
        """Hold several resources for a block, acquiring in sorted
        order (a global order means two lock *sets* cannot deadlock
        each other; upgrades still can, which is what the cycle search
        is for). On any failure, locks taken so far are released. The
        ``service.locks`` span (``mode`` plus ``span_attrs``) covers
        *acquisition only*, so wait time and work time stay separable
        in the trace."""
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
            shared = tuple(self._shared.get(resource, ()))
            exclusive = self._exclusive.get(resource)
            return {
                "shared": shared,
                "exclusive": (exclusive[0],) if exclusive else (),
            }
