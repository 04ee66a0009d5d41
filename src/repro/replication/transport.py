"""The replication carrier: how the shipper reaches a replica.

The shipper speaks one synchronous request/reply protocol — a message
dict in, a reply dict out — and :class:`InProcessTransport` carries it
by calling the replica's handler directly. Every replica lives in the
primary's process, and the soak and E17–E20 replicate this way. A
``partitioned`` flag (plus the ``repl.transport.deliver`` fault point)
turns any delivery into a ``ConnectionError``, including the nasty
half — request delivered, ack lost — that makes real replication
protocols idempotent.

Messages are schemaless dicts: receivers read with ``.get``, so a
newer primary may stamp fields an older replica has never heard of
(the ``trace`` context, a snapshot ``encoding`` flag) without breaking
the exchange — the compat property the mixed-version tests pin down.

Every failure a carrier can produce surfaces as ``ConnectionError`` /
``TimeoutError``; the shipper treats both as "replica unreachable,
retry later", never as data loss.
"""

from __future__ import annotations

import base64
import zlib
from typing import Callable, Protocol

from repro.faults.registry import FAULTS

__all__ = ["Transport", "InProcessTransport", "SNAPSHOT_ENCODING",
           "encode_snapshot", "decode_snapshot"]

SNAPSHOT_ENCODING = "zlib+b64"
"""The message flag marking a compressed snapshot payload."""

FAULTS.register(
    "repl.transport.deliver",
    "replication transport: before a request is delivered to a "
    "replica (partition / drop site)",
)
FAULTS.register(
    "repl.transport.ack",
    "replication transport: request applied, before the ack returns "
    "(the delivered-but-unacked window)",
)


class Transport(Protocol):
    """What the shipper needs from a carrier: one blocking
    request/reply exchange."""

    def request(self, message: dict) -> dict: ...


class InProcessTransport:
    """Direct-call carrier for replicas living in this process.

    ``partitioned`` simulates a network partition: set, every exchange
    raises ``ConnectionError``. The check runs both *before* delivery
    (request lost) and *after* the replica handled it (ack lost) — the
    second window is where naive protocols double-apply, so the soak
    flips partitions mid-exchange on purpose.
    """

    def __init__(self, handler: Callable[[dict], dict], *,
                 name: str = "replica") -> None:
        self._handler = handler
        self.name = name
        self.partitioned = False

    def request(self, message: dict) -> dict:
        if self.partitioned:
            raise ConnectionError(f"partitioned from {self.name}")
        FAULTS.fire("repl.transport.deliver", replica=self.name)
        reply = self._handler(message)
        FAULTS.fire("repl.transport.ack", replica=self.name)
        if self.partitioned:
            raise ConnectionError(
                f"partitioned from {self.name} (ack lost)"
            )
        return reply


def encode_snapshot(text: str) -> tuple[str, str, int, int]:
    """Compress a snapshot payload for the wire.

    Returns ``(payload, encoding, raw_bytes, wire_bytes)``: the
    zlib-compressed, base64-armoured payload (JSON frames cannot carry
    raw bytes), the :data:`SNAPSHOT_ENCODING` flag to stamp next to
    it, and the before/after byte counts for the
    ``replication.snapshot.bytes_{raw,wire}`` counters.
    """
    raw = text.encode("utf-8")
    wire = base64.b64encode(zlib.compress(raw, 6)).decode("ascii")
    return wire, SNAPSHOT_ENCODING, len(raw), len(wire)


def decode_snapshot(payload: str, encoding: str | None) -> str:
    """Decode a snapshot payload per its frame flag.

    A missing/empty flag means an uncompressed payload from an older
    primary — returned as-is (read compat). An unrecognised flag is a
    ``ValueError``: the replica must refuse rather than install
    garbage state.
    """
    if not encoding:
        return payload
    if encoding != SNAPSHOT_ENCODING:
        raise ValueError(f"unknown snapshot encoding {encoding!r}")
    try:
        return zlib.decompress(
            base64.b64decode(payload.encode("ascii"))
        ).decode("utf-8")
    except (ValueError, zlib.error) as exc:
        raise ValueError(f"corrupt snapshot payload: {exc}") from exc
