"""Live metrics exposition over HTTP — stdlib only.

:class:`MetricsEndpoint` wraps a :class:`~http.server.ThreadingHTTPServer`
on a background thread and serves three routes:

* ``/metrics`` — the registry in Prometheus text exposition format
  0.0.4 (:func:`render_prometheus`): counters as ``_total`` samples,
  gauges as-is, histograms as real Prometheus histograms with
  cumulative ``le`` buckets (mergeable server-side, exactly because
  :class:`repro.obs.metrics.LogHistogram` keeps cumulative-friendly
  buckets).
* ``/health`` — liveness verdict: HTTP 200 with a JSON body when the
  supplied health probe (breaker state + SLO alerts for the service)
  says healthy, 503 otherwise — the shape load balancers and soak
  scrapers expect.
* ``/slo`` — the SLO monitor's full verdict snapshot as JSON.

:func:`parse_prometheus` is the validating counterpart the chaos soak
and CI scrape use: it re-parses an exposition body, enforcing the
format's structural rules (name syntax, TYPE consistency, cumulative
non-decreasing buckets ending in ``+Inf`` equal to ``_count``), so a
malformed ``/metrics`` fails loudly instead of being silently dropped
by a real scraper.

Dotted metric names (``service.red.execute.duration_seconds``) map to
Prometheus names by replacing every non-``[a-zA-Z0-9_]`` character
with ``_`` (``service_red_execute_duration_seconds``).
"""

from __future__ import annotations

import json
import math
import re
import threading
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover
    from http.server import ThreadingHTTPServer

from repro.errors import ReproError
from repro.obs.metrics import Counter, Gauge, MetricsRegistry

__all__ = ["MetricsEndpoint", "ExpositionError", "render_prometheus",
           "parse_prometheus"]


class ExpositionError(ReproError):
    """An exposition body violated the Prometheus text format."""


_NAME_OK = re.compile(r"[^a-zA-Z0-9_]")
_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>[^ ]+)(?: (?P<ts>-?\d+))?$"
)
_LABEL_PAIR = re.compile(
    r'^(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<val>(?:[^"\\]|\\.)*)"$'
)


def _prom_name(dotted: str) -> str:
    name = _NAME_OK.sub("_", dotted)
    if not name or name[0].isdigit():
        name = "_" + name
    return name


def _fmt(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, int) or value == int(value):
        return str(int(value))
    return repr(float(value))


def render_prometheus(registry: MetricsRegistry) -> str:
    """Render every instrument of ``registry`` as Prometheus text
    exposition format 0.0.4 (trailing newline included)."""
    lines: list[str] = []
    instruments = sorted(registry, key=lambda ins: ins.name)
    for ins in instruments:
        name = _prom_name(ins.name)
        if isinstance(ins, Counter):
            lines.append(f"# HELP {name}_total {ins.name}")
            lines.append(f"# TYPE {name}_total counter")
            lines.append(f"{name}_total {_fmt(ins.value)}")
        elif isinstance(ins, Gauge):
            lines.append(f"# HELP {name} {ins.name}")
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {_fmt(ins.value)}")
        else:
            lines.append(f"# HELP {name} {ins.name}")
            lines.append(f"# TYPE {name} histogram")
            buckets = ins.buckets()
            for bound, cumulative in buckets:
                lines.append(
                    f'{name}_bucket{{le="{_fmt(bound)}"}} {cumulative}'
                )
            # The count from the same locked read as the buckets: a
            # concurrent observe must not split +Inf from _count.
            count = buckets[-1][1] if buckets else 0
            lines.append(f'{name}_bucket{{le="+Inf"}} {count}')
            lines.append(f"{name}_sum {_fmt(ins.total)}")
            lines.append(f"{name}_count {count}")
    return "\n".join(lines) + "\n"


def _parse_value(raw: str, where: str) -> float:
    if raw == "+Inf":
        return math.inf
    if raw == "-Inf":
        return -math.inf
    if raw == "NaN":
        return math.nan
    try:
        return float(raw)
    except ValueError:
        raise ExpositionError(f"{where}: bad sample value {raw!r}")


def parse_prometheus(text: str) -> dict[str, dict]:
    """Parse (and validate) a Prometheus text exposition body.

    Returns ``{family_name: {"type": str, "samples": {key: value}}}``
    where ``key`` is the full sample name plus its sorted label string.
    Raises :class:`ExpositionError` on any structural violation: bad
    metric/label syntax, a sample under a family whose TYPE was never
    declared, histogram buckets that are not cumulative, or a
    histogram whose ``+Inf`` bucket disagrees with ``_count``.
    """
    if not text.endswith("\n"):
        raise ExpositionError("exposition must end with a newline")
    families: dict[str, dict] = {}
    declared: dict[str, str] = {}
    for lineno, line in enumerate(text.split("\n")[:-1], start=1):
        where = f"line {lineno}"
        if not line:
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 3 or not _METRIC_NAME.match(parts[2]):
                raise ExpositionError(f"{where}: malformed HELP line")
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if (len(parts) != 4 or not _METRIC_NAME.match(parts[2])
                    or parts[3] not in ("counter", "gauge", "histogram",
                                        "summary", "untyped")):
                raise ExpositionError(f"{where}: malformed TYPE line")
            declared[parts[2]] = parts[3]
            families.setdefault(
                parts[2], {"type": parts[3], "samples": {}}
            )
            continue
        if line.startswith("#"):
            continue  # plain comment
        match = _SAMPLE_LINE.match(line)
        if match is None:
            raise ExpositionError(f"{where}: malformed sample: {line!r}")
        name = match.group("name")
        labels: dict[str, str] = {}
        raw_labels = match.group("labels")
        if raw_labels:
            for pair in raw_labels.split(","):
                pair_match = _LABEL_PAIR.match(pair)
                if pair_match is None:
                    raise ExpositionError(
                        f"{where}: malformed label pair {pair!r}"
                    )
                labels[pair_match.group("key")] = pair_match.group("val")
        value = _parse_value(match.group("value"), where)
        # A sample belongs to the family that declared it — for
        # histograms/summaries that family is the name minus the
        # _bucket/_sum/_count (or quantile) suffix.
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            base = name[: -len(suffix)] if name.endswith(suffix) else None
            if base and declared.get(base) in ("histogram", "summary"):
                family = base
                break
        if family not in declared:
            raise ExpositionError(
                f"{where}: sample {name!r} has no TYPE declaration"
            )
        label_key = ",".join(
            f"{k}={v}" for k, v in sorted(labels.items())
        )
        key = f"{name}{{{label_key}}}" if label_key else name
        families[family]["samples"][key] = value
    for family, info in families.items():
        if info["type"] != "histogram":
            continue
        samples = info["samples"]
        buckets = []
        for key, value in samples.items():
            if key.startswith(f"{family}_bucket{{"):
                match = re.search(r'le=(?:\\")?([^,}"]+)', key)
                if match is None:
                    raise ExpositionError(
                        f"histogram {family!r}: bucket without le label"
                    )
                buckets.append(
                    (_parse_value(match.group(1), family), value)
                )
        if not buckets:
            raise ExpositionError(
                f"histogram {family!r} has no buckets"
            )
        buckets.sort()
        last = -1.0
        for bound, cumulative in buckets:
            if cumulative < last:
                raise ExpositionError(
                    f"histogram {family!r}: bucket counts not cumulative"
                )
            last = cumulative
        if buckets[-1][0] != math.inf:
            raise ExpositionError(
                f"histogram {family!r}: missing +Inf bucket"
            )
        count = samples.get(f"{family}_count")
        if count is not None and buckets[-1][1] != count:
            raise ExpositionError(
                f"histogram {family!r}: +Inf bucket {buckets[-1][1]} "
                f"!= _count {count}"
            )
    return families


class MetricsEndpoint:
    """The live exposition server (see module docstring).

    ``health`` is a zero-argument callable returning a JSON-ready dict
    that must contain a boolean ``"healthy"`` key; ``slo`` is an
    optional :class:`repro.obs.slo.SLOMonitor`. Binds ``host:port``
    (port 0 picks a free one) on :meth:`start`; idempotent
    :meth:`stop`.
    """

    def __init__(self, registry: MetricsRegistry, *,
                 slo=None, health: Callable[[], dict] | None = None,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.registry = registry
        self.slo = slo
        self._health = health
        self.host = host
        self.port = port
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    # -- routes -------------------------------------------------------------

    def _metrics_body(self) -> tuple[int, str, str]:
        return (200, "text/plain; version=0.0.4; charset=utf-8",
                render_prometheus(self.registry))

    def _health_body(self) -> tuple[int, str, str]:
        verdict = dict(self._health()) if self._health else {}
        if self.slo is not None:
            verdict["slo_alerts"] = list(self.slo.alerts)
            verdict.setdefault("healthy", True)
            if not self.slo.healthy:
                verdict["healthy"] = False
        verdict.setdefault("healthy", True)
        status = 200 if verdict["healthy"] else 503
        return (status, "application/json",
                json.dumps(verdict, sort_keys=True) + "\n")

    def _slo_body(self) -> tuple[int, str, str]:
        if self.slo is None:
            return 404, "application/json", '{"error": "no slo monitor"}\n'
        return (200, "application/json",
                json.dumps(self.slo.snapshot(), sort_keys=True) + "\n")

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "MetricsEndpoint":
        if self._server is not None:
            return self
        # Imported here, not at module level: http.server drags in
        # http.client, email and ssl, which every importer of the
        # service would otherwise pay for whether or not it serves.
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        endpoint = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                path = self.path.split("?", 1)[0]
                if path == "/metrics":
                    status, ctype, body = endpoint._metrics_body()
                elif path == "/health":
                    status, ctype, body = endpoint._health_body()
                elif path == "/slo":
                    status, ctype, body = endpoint._slo_body()
                else:
                    status, ctype, body = (
                        404, "text/plain", "not found\n"
                    )
                payload = body.encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args) -> None:
                pass  # scrapes must not spam the service's stderr

        self._server = ThreadingHTTPServer((self.host, self.port),
                                           Handler)
        self._server.daemon_threads = True
        self.port = self._server.server_address[1]
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-metrics-endpoint", daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self._server = None
        self._thread = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def running(self) -> bool:
        return self._server is not None
