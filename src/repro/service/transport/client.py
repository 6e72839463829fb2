"""Remote shard client: the request/response channel to one shard server.

:class:`RemoteShardClient` talks to *one* shard server over a small pool
of blocking sockets: each request takes one pooled socket for its round
trip (one send, one receive, on the caller's thread), so concurrent
callers each use their own socket.  Every frame body is a binary v2 body
(:mod:`~repro.service.transport.wire`).  A stale pooled socket is
re-dialled and the request retried once.

Routing across shards is not this module's job:
:class:`~repro.service.cluster.client.ClusterClient` holds one
:class:`RemoteShardClient` per endpoint and speaks the `ExEAClient`
facade over them; a one-replica topology
(:func:`~repro.service.cluster.topology.topology_for_endpoints`) covers a
plain process-per-shard fleet.

Failure surface: service errors (backpressure, deadline, closed) arrive
as their own exception types; anything wrong with the *transport* —
refused connections, a server dying mid-request, protocol violations —
raises :class:`~repro.service.errors.RemoteTransportError` instead of
hanging (every socket operation runs under a timeout).
"""

from __future__ import annotations

import socket
import threading
import time

from ..errors import RemoteTransportError
from ..observability.spans import Span, span_from_wire
from ..stats import WireCounters
from .framing import (
    DEFAULT_MAX_FRAME_BYTES,
    ConnectionClosedError,
    FrameTimeoutError,
    ProtocolError,
    frame_raw,
    recv_frame_raw,
    send_raw_frame,
)
from .protocol import OP_MUTATE, OP_PING, OP_TRACE, decode_error
from .server import parse_listen_address
from .wire import decode_binary, encode_binary

#: Default per-request socket timeout (seconds).
DEFAULT_TIMEOUT = 60.0


def is_stale_symptom(error: BaseException) -> bool:
    """True for failures a *reused* connection may cause all by itself.

    EOF, reset and raw socket errors are how an idle socket that the peer
    (or a middlebox) quietly dropped presents on next use — retrying once
    on a fresh connection is safe and routine; every wire operation is
    idempotent.  A :class:`FrameTimeoutError` is excluded even though the
    socket is closed afterwards: the request *reached* a live, slow
    server, and re-sending would double its work and the caller's wait.
    """
    return isinstance(error, (ConnectionClosedError, OSError)) and not isinstance(
        error, FrameTimeoutError
    )


class RemoteShardClient:
    """Request/response client to one shard server over pooled sockets."""

    def __init__(
        self,
        endpoint: str,
        timeout: float = DEFAULT_TIMEOUT,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> None:
        self.endpoint = endpoint
        self.timeout = timeout
        self.max_frame_bytes = max_frame_bytes
        self.wire_counters = WireCounters()
        self._family, self._address = parse_listen_address(endpoint)
        self._lock = threading.Lock()
        self._pool: list[socket.socket] = []
        self._closed = False
        self._blob_cache: dict = {}

    # ------------------------------------------------------------------
    # Connection pool
    # ------------------------------------------------------------------
    def _dial(self) -> socket.socket:
        """Open a fresh connection to the shard server."""
        conn = socket.socket(self._family, socket.SOCK_STREAM)
        try:
            conn.settimeout(self.timeout)
            conn.connect(self._address)
            if self._family == socket.AF_INET:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return conn
        except OSError as error:
            conn.close()
            raise RemoteTransportError(
                f"cannot connect to shard server at {self.endpoint}: {error}"
            ) from error

    def _checkout(self) -> tuple[socket.socket, bool]:
        """A pooled connection (``reused=True``) or a fresh dial."""
        with self._lock:
            if self._closed:
                raise RemoteTransportError(f"client for {self.endpoint} is closed")
            if self._pool:
                return self._pool.pop(), True
        return self._dial(), False

    def _checkin(self, conn: socket.socket) -> None:
        """Return a healthy connection to the pool (closed clients discard)."""
        with self._lock:
            if not self._closed:
                self._pool.append(conn)
                return
        conn.close()

    def close(self) -> None:
        """Close every connection and refuse further calls."""
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, []
        for conn in pool:
            try:
                conn.close()
            except OSError:
                pass

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def _encode_request(self, payload: dict) -> bytes:
        """Encode one request into a complete frame, counting codec time."""
        started = time.perf_counter_ns()
        frame = frame_raw(encode_binary(payload), self.max_frame_bytes)
        self.wire_counters.record_sent(len(frame), time.perf_counter_ns() - started)
        return frame

    def _exchange(self, conn: socket.socket, frame: bytes, timeout: float | None) -> dict:
        """One framed request/response on an open pooled connection."""
        conn.settimeout(self.timeout if timeout is None else timeout)
        send_raw_frame(conn, frame)
        body = recv_frame_raw(conn, self.max_frame_bytes)
        if body is None:
            raise ConnectionClosedError(
                f"shard server at {self.endpoint} closed the connection mid-request"
            )
        started = time.perf_counter_ns()
        response = decode_binary(body, self._blob_cache)
        self.wire_counters.record_received(
            4 + len(body), time.perf_counter_ns() - started
        )
        return response

    def _pooled_call(self, payload: dict, timeout: float | None) -> dict:
        """One exchange over the connection pool; returns the raw response.

        The payload is encoded *before* a connection is taken, so an
        oversized request raises :class:`FrameTooLargeError` without
        costing a pooled socket or a dial.  A failed exchange on a
        *reused* pooled connection is retried once on a fresh dial (the
        socket may simply have gone stale between requests; every
        operation is idempotent) — except on request-shaped failures and
        timeouts, where the server is slow or the request is at fault and
        a retry would double the work (:func:`is_stale_symptom`).
        """
        frame = self._encode_request(payload)
        conn, reused = self._checkout()
        try:
            return self._exchange(conn, frame, timeout)
        except (ProtocolError, OSError) as error:
            try:
                conn.close()
            except OSError:
                pass
            if not reused or not is_stale_symptom(error):
                if isinstance(error, ProtocolError):
                    raise
                raise ConnectionClosedError(
                    f"connection to {self.endpoint} failed: {error}"
                ) from error
            conn = self._dial()
            try:
                return self._exchange(conn, frame, timeout)
            except (ProtocolError, OSError) as retry_error:
                conn.close()
                if isinstance(retry_error, ProtocolError):
                    raise
                raise ConnectionClosedError(
                    f"connection to {self.endpoint} failed: {retry_error}"
                ) from retry_error
        finally:
            # A successful exchange leaves `conn` healthy: pool it.
            # (The except-path re-raises before reaching here with a
            # closed socket, so guard on fileno.)
            if conn.fileno() != -1:
                self._checkin(conn)

    def call(self, payload: dict, timeout: float | None = None):
        """Send one request; return the decoded ``ok`` payload.

        Wire-level error responses re-raise as their mapped exception
        types.
        """
        response = self._pooled_call(payload, timeout)
        if "error" in response:
            raise decode_error(response["error"])
        return response.get("ok", response)

    def ping(self) -> dict:
        """Topology/identity of the server (shard id, shard count, token)."""
        return self.call({"op": OP_PING})

    def mutate(self, specs, seq: int | None = None, timeout: float | None = None) -> dict:
        """Apply one ordered mutation batch on this shard server."""
        payload: dict = {"op": OP_MUTATE, "mutations": list(specs)}
        if seq is not None:
            payload["seq"] = seq
        return self.call(payload, timeout=timeout)

    def trace_spans(self, trace_id: str | None = None) -> list[Span]:
        """Pull the server's span ring (optionally one trace's spans)."""
        payload: dict = {"op": OP_TRACE}
        if trace_id is not None:
            payload["trace_id"] = trace_id
        spans = []
        for item in self.call(payload).get("spans", []):
            span = span_from_wire(item)
            if span is not None:
                spans.append(span)
        return spans

    def pin_trace(self, trace_id: str) -> int:
        """Pin one trace's spans in the server's ring (tail-sampling keep).

        The server moves the spans out of eviction reach and reports how
        many it holds.
        """
        response = self.call({"op": OP_TRACE, "trace_id": trace_id, "pin": True})
        return int(response.get("pinned", 0))


__all__ = [
    "DEFAULT_TIMEOUT",
    "RemoteShardClient",
    "is_stale_symptom",
]
