"""Pluggable transports for shipping WAL records to replicas.

The shipper speaks one synchronous request/reply protocol — JSON
message dicts in, JSON reply dicts out — and this module provides the
two carriers:

* :class:`InProcessTransport` — calls the replica's handler directly.
  The test and chaos-soak carrier: a ``partitioned`` flag (plus the
  ``repl.transport.deliver`` fault point) turns any delivery into a
  ``ConnectionError``, including the nasty half — request delivered,
  ack lost — that makes real replication protocols idempotent.

* :class:`SocketTransport` / :class:`ReplicaServer` — length-prefixed
  JSON frames over TCP (4-byte big-endian length, UTF-8 JSON body) for
  replicas in other processes. The server runs one thread per
  connection and serves the same handler the in-process carrier calls.

Frames are schemaless JSON objects end to end: the codec round-trips
*every* key, and receivers read with ``.get``, so a newer primary may
stamp fields an older replica has never heard of (the ``trace``
context, a snapshot ``encoding`` flag) without breaking the exchange —
the compat property the mixed-version tests pin down.

Every failure a carrier can produce surfaces as ``ConnectionError`` /
``TimeoutError``; the shipper treats both as "replica unreachable,
retry later", never as data loss.
"""

from __future__ import annotations

import base64
import json
import socket
import struct
import threading
import zlib
from typing import Callable, Protocol

from repro.faults.registry import FAULTS

__all__ = ["Transport", "InProcessTransport", "SocketTransport",
           "ReplicaServer", "send_frame", "recv_frame",
           "SNAPSHOT_ENCODING", "encode_snapshot", "decode_snapshot"]

SNAPSHOT_ENCODING = "zlib+b64"
"""The frame flag marking a compressed snapshot payload."""

_LENGTH = struct.Struct(">I")
_MAX_FRAME = 64 * 1024 * 1024  # a snapshot ships as one frame

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
    request/reply exchange, and a way to let go of it."""

    def request(self, message: dict) -> dict: ...

    def close(self) -> None: ...


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

    def close(self) -> None:
        pass


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


def send_frame(sock: socket.socket, message: dict) -> None:
    """One length-prefixed JSON frame onto a socket."""
    body = json.dumps(message, sort_keys=True).encode("utf-8")
    sock.sendall(_LENGTH.pack(len(body)) + body)


def recv_frame(sock: socket.socket) -> dict | None:
    """One frame off a socket; ``None`` on clean EOF at a frame
    boundary, ``ConnectionError`` on a mid-frame cut."""
    header = _recv_exact(sock, _LENGTH.size, eof_ok=True)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length > _MAX_FRAME:
        raise ConnectionError(f"oversized frame: {length} bytes")
    body = _recv_exact(sock, length, eof_ok=False)
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConnectionError(f"undecodable frame: {exc}") from exc
    if not isinstance(message, dict):
        raise ConnectionError("frame body is not a JSON object")
    return message


def _recv_exact(sock: socket.socket, count: int,
                *, eof_ok: bool) -> bytes | None:
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if eof_ok and remaining == count:
                return None
            raise ConnectionError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


class SocketTransport:
    """Length-prefixed JSON frames to a :class:`ReplicaServer`.

    One persistent connection, re-established on the next request
    after any failure; the protocol is one-request-one-reply, so a
    reconnect can never interleave frames.

    ``timeout`` bounds each phase of an exchange (connect, send,
    receive) on its own: a silently dead peer — SYN black hole, send
    buffer that never drains, reply that never comes — surfaces as
    :exc:`TimeoutError` within the bound instead of blocking the
    shipper (and the lease renewer, and therefore the failure
    detectors) forever. A timed-out exchange drops the connection: the
    reply may still arrive later, and reading it against the *next*
    request would desynchronise the framing. The shipper treats the error as retryable-unreachable,
    the same as any ``ConnectionError`` — and a heartbeat lost to it
    counts toward lease expiry like any other missed beat.
    """

    def __init__(self, host: str, port: int, *,
                 timeout: float = 5.0, name: str | None = None) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.name = name or f"{host}:{port}"
        self.partitioned = False
        self._sock: socket.socket | None = None
        self._lock = threading.Lock()

    def request(self, message: dict) -> dict:
        if self.partitioned:
            raise ConnectionError(f"partitioned from {self.name}")
        with self._lock:
            try:
                sock = self._connect()
                send_frame(sock, message)
                reply = recv_frame(sock)
            except TimeoutError as exc:
                self._drop()
                raise TimeoutError(
                    f"exchange with {self.name} timed out: {exc}"
                ) from exc
            except (OSError, ConnectionError) as exc:
                self._drop()
                raise ConnectionError(
                    f"exchange with {self.name} failed: {exc}"
                ) from exc
            if reply is None:
                self._drop()
                raise ConnectionError(
                    f"{self.name} closed the connection"
                )
            return reply

    def _connect(self) -> socket.socket:
        if self._sock is None:
            # The connect timeout stays on the socket for every send
            # and receive after it.
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
            if sock.getsockname() == sock.getpeername():
                # Linux TCP simultaneous-open quirk: connecting to a
                # *free* port in the ephemeral range can connect the
                # socket to itself, and every frame we send would echo
                # back as its own reply. Refuse it like any dead peer.
                sock.close()
                raise ConnectionError(
                    f"self-connection to {self.name} (no listener)"
                )
            self._sock = sock
        return self._sock

    def _drop(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def close(self) -> None:
        with self._lock:
            self._drop()


class ReplicaServer:
    """Serves a replica's message handler over TCP.

    ``start()`` binds (port 0 picks a free port — read ``.port`` after)
    and accepts in a daemon thread, one thread per connection; each
    frame is answered by ``handler(message)``. A handler exception
    becomes an ``{"ok": False, "error": ...}`` reply, never a dropped
    connection — transport failures must stay distinguishable from
    replica refusals.

    ``idle_timeout`` (seconds; ``None`` keeps the historical
    wait-forever behaviour) bounds how long a connection thread blocks
    on the next frame: a client that died without closing — or that
    stalls mid-frame — gets its connection reaped instead of pinning a
    server thread forever. Clients reconnect transparently on their
    next request.
    """

    def __init__(self, handler: Callable[[dict], dict], *,
                 host: str = "127.0.0.1", port: int = 0,
                 idle_timeout: float | None = None) -> None:
        self._handler = handler
        self.host = host
        self.port = port
        self.idle_timeout = idle_timeout
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._running = False

    def start(self) -> "ReplicaServer":
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen()
        self.port = listener.getsockname()[1]
        self._listener = listener
        self._running = True
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True,
            name=f"replica-server-{self.port}",
        )
        self._accept_thread.start()
        return self

    def _accept_loop(self) -> None:
        listener = self._listener
        assert listener is not None
        while self._running:
            try:
                conn, _ = listener.accept()
            except OSError:
                return  # listener shut down by stop()
            if not self._running:
                conn.close()
                return
            threading.Thread(
                target=self._serve, args=(conn,), daemon=True,
            ).start()

    def _serve(self, conn: socket.socket) -> None:
        with conn:
            if self.idle_timeout is not None:
                conn.settimeout(self.idle_timeout)
            while True:
                try:
                    message = recv_frame(conn)
                except TimeoutError:
                    return  # idle or half-dead client: reap the thread
                except ConnectionError:
                    return
                if message is None:
                    return
                try:
                    reply = self._handler(message)
                except Exception as exc:  # noqa: BLE001 — reply, don't die
                    reply = {"ok": False,
                             "error": f"{type(exc).__name__}: {exc}"}
                try:
                    send_frame(conn, reply)
                except OSError:
                    return

    def stop(self) -> None:
        self._running = False
        listener = self._listener
        if listener is not None:
            # close() alone does not wake a thread blocked in
            # accept() — the kernel keeps the socket (and the bound
            # port) alive until the accept returns, so a connect
            # racing in right after stop() would still be served.
            # shutdown() forces the accept out first.
            try:
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                listener.close()
            except OSError:
                pass
            self._listener = None
        thread = self._accept_thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=2.0)
            self._accept_thread = None

    def transport(self, *, timeout: float = 5.0,
                  name: str | None = None) -> SocketTransport:
        """A client transport pointed at this server."""
        return SocketTransport(self.host, self.port,
                               timeout=timeout, name=name)
