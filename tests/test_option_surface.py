"""The defaulted options of the scaffolding around the update
procedures, pinned by name.

An option is justified only when two callers outside the tests need
different values; a value only tests vary is a module constant they
``monkeypatch``. Adding an option to one of these signatures therefore
means editing its tuple below, and the line that adds it names, in a
comment beside the tuple, the option's second non-test caller (in
``src/``, ``benchmarks/`` or ``examples/``). Removing one means
deleting it here too.
"""

from __future__ import annotations

import inspect

import pytest

from repro.faults.soak import SoakConfig
from repro.fdb.wal import UpdateLog
from repro.obs.slo import SLOMonitor
from repro.obs.tracing import Tracer
from repro.replication import (FailoverCoordinator, LeaseConfig,
                               ReplicationGroup, WalShipper)
from repro.service import CircuitBreaker, DatabaseService, RetryPolicy

SURFACE = {
    SoakConfig: ("shards", "replicas", "auto_failover", "modes",
                 "scenarios", "threads", "ops_per_thread", "seed",
                 "faults", "workdir", "serve_endpoint"),
    DatabaseService: ("log", "lock_timeout", "shard", "retry",
                      "max_concurrent", "max_queue", "queue_timeout",
                      "breaker", "objectives", "replication", "node",
                      "seed"),
    RetryPolicy: ("max_attempts", "base_delay", "max_delay", "jitter"),
    CircuitBreaker: ("failure_threshold", "reset_timeout", "clock"),
    LeaseConfig: ("duration", "margin", "renew_interval",
                  "check_interval"),
    FailoverCoordinator: ("config", "clock"),
    WalShipper: ("term",),
    # Callers: E17, E18 and E20 (benchmarks/) use retry_interval
    # 0.001 s and ack_timeout 5 s, the soak 0.01 s and 2 s; E17 walks
    # the modes, E18 runs sync(1), E20 quorum.
    ReplicationGroup: ("mode", "ack_timeout", "retry_interval"),
    UpdateLog: ("fsync", "term"),
    SLOMonitor: ("objectives", "clock"),
    Tracer: (),
}


def defaulted(target) -> tuple[str, ...]:
    """The names of ``target``'s parameters that carry a default, in
    signature order (a dataclass's generated ``__init__`` included)."""
    return tuple(name for name, parameter
                 in inspect.signature(target).parameters.items()
                 if parameter.default is not inspect.Parameter.empty)


@pytest.mark.parametrize("target", SURFACE,
                         ids=lambda target: target.__qualname__)
def test_defaulted_options_are_the_pinned_ones(target):
    assert defaulted(target) == SURFACE[target]


def test_the_surface_holds_44_options():
    assert sum(len(names) for names in SURFACE.values()) == 44
