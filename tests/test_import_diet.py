"""Importing the service stack loads only what a lane runs: not the
REPL, not a started metrics endpoint, not the design-time tools, the
relational baselines or possible worlds (E20's ``setup_s`` is almost
all imports). Package names resolve on first access (``repro.lazy``),
so the public surface is unchanged, and fault points still register
for every catalogue reader."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.obs.endpoint import MetricsEndpoint
from repro.obs.metrics import MetricsRegistry

SRC = str(Path(repro.__file__).resolve().parents[1])

PACKAGES = ("repro", "repro.fdb", "repro.core", "repro.obs",
            "repro.service", "repro.replication", "repro.shard",
            "repro.faults", "repro.workloads", "repro.relational",
            "repro.lang", "repro.bench")

# What a lane never needs: the language, the design tools (Section 2),
# the relational baselines, possible worlds, the audit and integrity
# checkers, the paper's fixtures and the exposition server.
COLD = ("repro.lang", "repro.relational", "repro.core.design_aid",
        "repro.core.minimal_schema", "repro.fdb.worlds",
        "repro.fdb.integrity", "repro.fdb.audit", "repro.obs.endpoint",
        "repro.workloads.university", "http.server")

ENGINE_POINTS = {
    "txn.commit", "txn.rollback.before-restore",
    "storage.atomic.before-write", "storage.atomic.payload",
    "storage.atomic.before-rename", "storage.atomic.after-rename",
    "storage.append.before", "storage.append.payload",
    "storage.append.before-fsync", "storage.append.after-write",
    "persistence.save.before", "wal.append.before", "wal.append.after",
    "wal.apply.before", "wal.abort.append",
    "wal.checkpoint.before-snapshot", "wal.checkpoint.after-snapshot",
    "wal.checkpoint.after-truncate",
}
REPLICATION_POINTS = {
    "repl.replica.apply", "repl.transport.deliver", "repl.transport.ack",
    "repl.lease.clock", "repl.lease.heartbeat",
}


def fresh(script: str):
    """Run ``script`` in a new interpreter; its last printed line,
    parsed as JSON."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_service_stack_imports_neither_http_server_nor_the_language():
    script = (
        "import sys\n"
        "import repro.service, repro.shard, repro.replication\n"
        "print([m for m in ('http.server', 'ssl', 'repro.lang')\n"
        "       if m in sys.modules])\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_the_service_stack_loads_only_what_a_lane_runs():
    imported, resolved = fresh(
        "import json, sys\n"
        "import repro.service, repro.shard, repro.replication\n"
        "import repro.fdb.wal, repro.fdb.persistence, repro.faults.harness\n"
        "imported = sorted(sys.modules)\n"
        "from repro.service import DatabaseService\n"
        "from repro.shard import ShardedDatabaseService\n"
        "from repro.replication import Replica, ReplicationGroup\n"
        "print(json.dumps([imported, sorted(sys.modules)]))\n"
    )
    # 77 when package inits imported eagerly; 48 once the lane's own
    # classes are resolved too.
    for loaded, most in ((imported, 40), (resolved, 50)):
        ours = [name for name in loaded if name.startswith("repro")]
        assert len(ours) <= most, ours
        assert [name for name in COLD if name in loaded] == []


@pytest.mark.parametrize("package", PACKAGES)
def test_every_public_name_resolves_and_is_listed(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        scope: dict = {}
        exec(f"from {package} import {name}", scope)
        assert scope[name] is getattr(module, name)
        assert name in dir(module)
        # core's minimal_schema shares its spelling with its submodule.
        assert not isinstance(scope[name], type(module)), (package, name)


def test_interpreter_is_still_a_public_lazy_name():
    from repro import Interpreter
    from repro.lang.interp import Interpreter as direct

    assert Interpreter is direct
    assert "Interpreter" in repro.__all__


def test_import_repro_lists_every_name_and_loads_none():
    listed = fresh(
        "import json, sys, repro\n"
        "print(json.dumps([len(repro.__all__), 'Interpreter' in dir(repro),"
        " [m for m in ('repro.lang', 'repro.core', 'repro.fdb')"
        "  if m in sys.modules]]))\n"
    )
    assert listed == [55, True, []]


@pytest.mark.parametrize("reader, expected", [
    ("import repro.service", ENGINE_POINTS),
    ("import repro.faults.harness", ENGINE_POINTS),
    ("import repro.faults.soak", ENGINE_POINTS | REPLICATION_POINTS),
    ("import tests.test_faults", ENGINE_POINTS),
])
def test_every_catalogue_reader_sees_the_points_it_did(reader, expected):
    root = str(Path(__file__).resolve().parents[1])
    seen = fresh(
        f"import json, sys\nsys.path.insert(0, {root!r})\n{reader}\n"
        "from repro.faults import FAULTS\n"
        "print(json.dumps([info.name for info in FAULTS.points()]))\n"
    )
    assert set(seen) == expected and len(seen) == len(expected)


def test_endpoint_still_serves_after_the_deferred_import():
    from urllib.request import urlopen

    endpoint = MetricsEndpoint(MetricsRegistry()).start()
    try:
        with urlopen(endpoint.url + "/health", timeout=5) as reply:
            assert reply.status == 200
    finally:
        endpoint.stop()
