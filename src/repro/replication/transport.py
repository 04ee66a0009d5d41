"""The replication carrier: how the shipper reaches a replica.

The shipper speaks one synchronous request/reply protocol — a message
dict in, a reply dict out — and :class:`InProcessTransport` carries it
by calling the replica's handler directly. Every replica lives in the
primary's process, and the soak and E17–E20 replicate this way. A
``partitioned`` flag (plus the ``repl.transport.deliver`` fault point)
turns any delivery into a ``ConnectionError``, including the nasty
half — request delivered, ack lost — that makes real replication
protocols idempotent.

A message is a plain dict that never leaves the process: the records,
the term, a snapshot for catch-up and the lease stamp are all a
replica needs, and the replica's spans nest under the shipping span
because its handler runs on the shipping thread.

Every failure a carrier can produce surfaces as ``ConnectionError`` /
``TimeoutError``; the shipper treats both as "replica unreachable,
retry later", never as data loss.
"""

from __future__ import annotations

from typing import Callable, Protocol

from repro.faults.registry import FAULTS

__all__ = ["Transport", "InProcessTransport"]

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

