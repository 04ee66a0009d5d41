"""Importing the service stack must not pay for what only the REPL and
a started metrics endpoint use (E20's ``setup_s`` is almost all
imports)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.obs.endpoint import MetricsEndpoint
from repro.obs.metrics import MetricsRegistry

SRC = str(Path(repro.__file__).resolve().parents[1])


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


def test_interpreter_is_still_a_public_lazy_name():
    from repro import Interpreter
    from repro.lang.interp import Interpreter as direct

    assert Interpreter is direct
    assert "Interpreter" in repro.__all__


def test_endpoint_still_serves_after_the_deferred_import():
    from urllib.request import urlopen

    with MetricsEndpoint(MetricsRegistry()) as endpoint:
        with urlopen(endpoint.url + "/health", timeout=5) as reply:
            assert reply.status == 200
