"""Tests for the reader–writer lock manager.

Deterministic where possible: the manager accepts explicit ``owner``
ids, so most scenarios run single-threaded. Real threads appear only
where a parked waiter is part of the scenario.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import LockTimeout
from repro.service import EXCLUSIVE, SHARED, LockManager


def _wait_for(predicate, timeout=5.0):
    expires = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > expires:
            raise AssertionError("condition never became true")
        time.sleep(0.005)


class TestGrants:
    def test_shared_holders_coexist(self):
        locks = LockManager()
        locks.acquire("r", SHARED, owner=1)
        locks.acquire("r", SHARED, owner=2)
        assert set(locks.holders("r")["shared"]) == {1, 2}
        locks.release("r", SHARED, owner=1)
        locks.release("r", SHARED, owner=2)
        assert locks.holders("r")["shared"] == ()

    def test_exclusive_blocks_shared(self):
        locks = LockManager()
        locks.acquire("r", EXCLUSIVE, owner=1)
        with pytest.raises(LockTimeout):
            locks.acquire("r", SHARED, owner=2, timeout=0.05)

    def test_shared_blocks_exclusive(self):
        locks = LockManager()
        locks.acquire("r", SHARED, owner=1)
        with pytest.raises(LockTimeout):
            locks.acquire("r", EXCLUSIVE, owner=2, timeout=0.05)

    def test_exclusive_blocks_exclusive(self):
        locks = LockManager()
        locks.acquire("r", EXCLUSIVE, owner=1)
        with pytest.raises(LockTimeout):
            locks.acquire("r", EXCLUSIVE, owner=2, timeout=0.05)

    def test_disjoint_resources_do_not_contend(self):
        locks = LockManager()
        locks.acquire("a", EXCLUSIVE, owner=1)
        locks.acquire("b", EXCLUSIVE, owner=2, timeout=0.05)

    def test_reentry_raises(self):
        # No re-entry and no upgrade: an owner holds a resource once.
        locks = LockManager()
        for held in (SHARED, EXCLUSIVE):
            locks.acquire("r", held, owner=1)
            for asked in (SHARED, EXCLUSIVE):
                with pytest.raises(RuntimeError):
                    locks.acquire("r", asked, owner=1, timeout=0.05)
            # The refused asks changed nothing: one release frees it.
            locks.release("r", held, owner=1)
            assert locks.holders("r") == {"shared": (), "exclusive": ()}


class TestMisuse:
    def test_release_not_held_raises(self):
        locks = LockManager()
        with pytest.raises(RuntimeError):
            locks.release("r", SHARED, owner=1)
        locks.acquire("r", SHARED, owner=1)
        with pytest.raises(RuntimeError):
            locks.release("r", EXCLUSIVE, owner=1)

    def test_unknown_mode_rejected(self):
        locks = LockManager()
        with pytest.raises(ValueError):
            locks.acquire("r", "upgradable", owner=1)


class TestHeld:
    def test_held_acquires_sorted_and_releases(self):
        locks = LockManager()
        with locks.held(["b", "a", "b"], EXCLUSIVE, owner=1):
            assert locks.holders("a")["exclusive"] == (1,)
            assert locks.holders("b")["exclusive"] == (1,)
        assert locks.holders("a")["exclusive"] == ()
        assert locks.holders("b")["exclusive"] == ()

    def test_held_failure_releases_partial_takes(self):
        locks = LockManager()
        locks.acquire("b", EXCLUSIVE, owner=2)
        with pytest.raises(LockTimeout):
            with locks.held(["a", "b"], EXCLUSIVE, owner=1,
                            timeout=0.05):
                pass  # pragma: no cover - never reached
        # "a" was taken first (sorted order) and released on failure.
        locks.acquire("a", EXCLUSIVE, owner=3, timeout=0.05)


class TestTimeouts:
    def test_timeout_respects_deadline(self):
        from repro.cancel import Deadline

        locks = LockManager(default_timeout=30.0)
        locks.acquire("r", EXCLUSIVE, owner=1)
        start = time.monotonic()
        with pytest.raises(LockTimeout):
            locks.acquire("r", EXCLUSIVE, owner=2,
                          deadline=Deadline(0.05))
        assert time.monotonic() - start < 5.0

    def test_waiter_wakes_on_release(self):
        locks = LockManager()
        locks.acquire("r", EXCLUSIVE, owner=100)
        acquired = threading.Event()

        def waiter():
            locks.acquire("r", EXCLUSIVE, timeout=5.0)
            acquired.set()
            locks.release("r", EXCLUSIVE)

        worker = threading.Thread(target=waiter)
        worker.start()
        try:
            time.sleep(0.05)
            locks.release("r", EXCLUSIVE, owner=100)
            assert acquired.wait(5.0)
        finally:
            worker.join(5.0)


class TestTargetedWakeups:
    """A release must notify exactly the parked waiters whose request
    became grantable — never the whole herd (the
    ``service.lock.wakeups`` counter is the observable)."""

    @staticmethod
    def _wakeups():
        from repro.obs import OBS
        return OBS.metrics.counter("service.lock.wakeups").value

    @pytest.fixture(autouse=True)
    def obs_enabled(self):
        from repro.obs import OBS
        OBS.enable()
        yield
        OBS.disable()
        OBS.reset()
        OBS.metrics.clear()

    def test_release_notifies_only_its_resource(self):
        locks = LockManager()
        locks.acquire("a", EXCLUSIVE, owner=1)
        locks.acquire("b", EXCLUSIVE, owner=2)
        got_a, got_b = threading.Event(), threading.Event()

        def wait_on(resource, flag):
            locks.acquire(resource, EXCLUSIVE, timeout=5.0)
            flag.set()
            locks.release(resource, EXCLUSIVE)

        threads = [
            threading.Thread(target=wait_on, args=("a", got_a)),
            threading.Thread(target=wait_on, args=("b", got_b)),
        ]
        for thread in threads:
            thread.start()
        try:
            _wait_for(lambda: len(locks._waiting) == 2)
            base = self._wakeups()
            locks.release("a", EXCLUSIVE, owner=1)
            assert got_a.wait(5.0)
            # b's waiter was not part of that wakeup.
            assert not got_b.wait(0.05)
            assert self._wakeups() == base + 1
            locks.release("b", EXCLUSIVE, owner=2)
            assert got_b.wait(5.0)
            assert self._wakeups() == base + 2
        finally:
            for thread in threads:
                thread.join(5.0)

    def test_ungrantable_waiter_is_not_notified(self):
        locks = LockManager()
        locks.acquire("r", SHARED, owner=1)
        locks.acquire("r", SHARED, owner=2)
        got = threading.Event()

        def writer():
            locks.acquire("r", EXCLUSIVE, timeout=5.0)
            got.set()
            locks.release("r", EXCLUSIVE)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            _wait_for(lambda: len(locks._waiting) == 1)
            base = self._wakeups()
            # One shared holder remains: the exclusive request is
            # still not grantable, so no notify is spent on it.
            locks.release("r", SHARED, owner=1)
            assert not got.wait(0.05)
            assert self._wakeups() == base
            locks.release("r", SHARED, owner=2)
            assert got.wait(5.0)
            assert self._wakeups() == base + 1
        finally:
            thread.join(5.0)
