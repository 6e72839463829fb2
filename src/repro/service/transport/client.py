"""Remote shard client: the request/response channel to one shard server.

:class:`RemoteShardClient` talks to *one* shard server.  Two transports
live behind its ``call``:

* **Multiplexed** (the default against capable servers) — one
  :class:`~repro.service.transport.mux.MuxConnection` per endpoint
  carries every caller's requests concurrently with request-id
  correlation, out-of-order completion and per-request deadlines.
* **Pooled** (the v1 model, kept for old servers and as the negotiation
  carrier) — a small pool of blocking sockets, one dedicated to each
  request for its round trip; a stale pooled socket is re-dialled and the
  request retried once.

The wire codec is negotiated the same way: the first call pings the
server over plain JSON, reads its advertised capabilities (``"wires"``
and ``"mux"`` in the ping payload) and upgrades to the binary v2 codec
and the multiplexed transport when both ends support them.  ``wire=`` /
``mux=`` pin either choice; the ``REPRO_WIRE`` environment variable sets
the process-wide default (``json`` / ``binary`` / ``auto``).  Old JSON
servers keep working — the client simply stays on the v1 path.

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

import os
import socket
import threading
import time

from ..errors import RemoteOperationError, RemoteTransportError
from ..observability.context import TraceContext
from ..observability.spans import Span, span_from_wire
from ..stats import WireCounters
from .framing import (
    DEFAULT_MAX_FRAME_BYTES,
    ConnectionClosedError,
    FrameTimeoutError,
    ProtocolError,
    encode_frame,
    frame_raw,
    recv_frame_raw,
    send_raw_frame,
)
from .mux import MuxConnection
from .protocol import (
    OP_MUTATE,
    OP_PING,
    OP_TRACE,
    decode_error,
    encode_mutations,
)
from .server import parse_listen_address
from .wire import SUPPORTED_WIRES, WIRE_BINARY, WIRE_JSON, decode_any_body, encode_binary

#: Default per-request socket timeout (seconds).
DEFAULT_TIMEOUT = 60.0

#: Sentinel wire mode: pick the densest codec both ends support.
WIRE_AUTO = "auto"


def default_wire() -> str:
    """The process-wide wire preference (``REPRO_WIRE`` env, else auto)."""
    value = os.environ.get("REPRO_WIRE", WIRE_AUTO).strip().lower()
    return value if value in (WIRE_AUTO, *SUPPORTED_WIRES) else WIRE_AUTO


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
    """Request/response client to one shard server (mux or pooled).

    ``wire`` is ``"auto"`` (negotiate, the default), ``"json"`` or
    ``"binary"``; ``mux`` is ``None`` (negotiate), ``True`` or ``False``.
    ``None``/auto values are resolved by one JSON ping on first use; a
    fully pinned client never negotiates.
    """

    def __init__(
        self,
        endpoint: str,
        timeout: float = DEFAULT_TIMEOUT,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        wire: str | None = None,
        mux: bool | None = None,
    ) -> None:
        self.endpoint = endpoint
        self.timeout = timeout
        self.max_frame_bytes = max_frame_bytes
        self.wire = default_wire() if wire is None else wire
        if self.wire not in (WIRE_AUTO, *SUPPORTED_WIRES):
            raise ValueError(f"unknown wire {self.wire!r}; use auto, json or binary")
        self.mux = mux
        self.wire_counters = WireCounters()
        self._family, self._address = parse_listen_address(endpoint)
        self._lock = threading.Lock()
        self._pool: list[socket.socket] = []
        self._closed = False
        self._blob_cache: dict = {}
        self._mux_conn: MuxConnection | None = None
        self._negotiate_lock = threading.Lock()
        self._active_wire = self.wire if self.wire != WIRE_AUTO else WIRE_JSON
        self._use_mux = bool(mux)
        self._negotiated = self.wire != WIRE_AUTO and mux is not None
        #: Whether the peer advertised the ``trace`` capability; ``None``
        #: until a ping answers (a fully pinned client may never ping).
        self._peer_trace: bool | None = None
        #: Whether the peer advertised the ``mutate`` capability; same
        #: ``None``-until-pinged semantics as ``_peer_trace``.
        self._peer_mutate: bool | None = None

    # ------------------------------------------------------------------
    # Connection pool (v1 transport + negotiation carrier)
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

    def _drain_pool(self) -> None:
        """Close idle pooled sockets (after the mux upgrade supersedes them)."""
        with self._lock:
            pool, self._pool = self._pool, []
        for conn in pool:
            try:
                conn.close()
            except OSError:
                pass

    def close(self) -> None:
        """Close every connection and refuse further calls."""
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, []
            mux_conn, self._mux_conn = self._mux_conn, None
        for conn in pool:
            try:
                conn.close()
            except OSError:
                pass
        if mux_conn is not None:
            mux_conn.close()

    # ------------------------------------------------------------------
    # Negotiation
    # ------------------------------------------------------------------
    def _ensure_negotiated(self, timeout: float | None) -> None:
        """Resolve auto wire/mux choices with one JSON ping (once)."""
        if self._negotiated:
            return
        with self._negotiate_lock:
            if self._negotiated:
                return
            response = self._pooled_call(
                {"op": OP_PING}, timeout, force_wire=WIRE_JSON
            )
            if "error" in response:
                raise decode_error(response["error"])
            info = response.get("ok", response)
            peer_wires = info.get("wires", [WIRE_JSON])
            peer_mux = bool(info.get("mux", False))
            self._peer_trace = bool(info.get("trace", False))
            self._peer_mutate = bool(info.get("mutate", False))
            if self.wire == WIRE_AUTO:
                self._active_wire = (
                    WIRE_BINARY if WIRE_BINARY in peer_wires else WIRE_JSON
                )
            else:
                self._active_wire = self.wire
            self._use_mux = peer_mux if self.mux is None else bool(self.mux)
            self._negotiated = True
        if self._use_mux:
            # The pooled sockets (including the ping's) are now idle
            # capacity the mux connection replaces; drop them.
            self._drain_pool()

    def negotiated_transport(self) -> dict:
        """The resolved transport after negotiation (forces it if pending)."""
        self._ensure_negotiated(None)
        return {"wire": self._active_wire, "mux": self._use_mux}

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def _encode_request(self, payload: dict, wire: str) -> bytes:
        """Encode one request into a complete frame, counting codec time."""
        started = time.perf_counter_ns()
        if wire == WIRE_BINARY:
            frame = frame_raw(
                encode_binary(payload, 0, self.max_frame_bytes), self.max_frame_bytes
            )
        else:
            frame = encode_frame(payload, self.max_frame_bytes)
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
        _, _, response = decode_any_body(body, self._blob_cache)
        self.wire_counters.record_received(
            4 + len(body), time.perf_counter_ns() - started
        )
        return response

    def _pooled_call(
        self, payload: dict, timeout: float | None, force_wire: str | None = None
    ) -> dict:
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
        frame = self._encode_request(payload, force_wire or self._active_wire)
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

    def _mux_call(self, payload: dict, timeout: float | None) -> dict:
        """One exchange over the multiplexed connection, with stale retry.

        A connection that existed before this call may have gone stale
        exactly like a pooled socket; its death is retried once on a
        fresh connection.  A connection dialled *for* this call failing is
        a real transport error, and a request deadline never retries.
        """
        timeout_value = self.timeout if timeout is None else timeout
        conn, created = self._mux_connection()
        try:
            return conn.request(payload, timeout_value)
        except (ProtocolError, OSError) as error:
            if conn.dead:
                self._drop_mux(conn)
            if created or not is_stale_symptom(error):
                raise
            conn, _ = self._mux_connection()
            try:
                return conn.request(payload, timeout_value)
            except (ProtocolError, OSError):
                if conn.dead:
                    self._drop_mux(conn)
                raise

    def _mux_connection(self) -> tuple[MuxConnection, bool]:
        """The live mux connection, dialling one when needed."""
        with self._lock:
            if self._closed:
                raise RemoteTransportError(f"client for {self.endpoint} is closed")
            conn = self._mux_conn
            if conn is not None and not conn.dead:
                return conn, False
        sock = self._dial()
        fresh = MuxConnection(
            sock,
            wire=self._active_wire,
            max_frame_bytes=self.max_frame_bytes,
            counters=self.wire_counters,
            blob_cache=self._blob_cache,
        )
        with self._lock:
            if self._closed:
                fresh.close()
                raise RemoteTransportError(f"client for {self.endpoint} is closed")
            current = self._mux_conn
            if current is not None and not current.dead:
                # Another caller reconnected first; theirs wins.
                fresh.close()
                return current, False
            self._mux_conn = fresh
        return fresh, True

    def _drop_mux(self, conn: MuxConnection) -> None:
        with self._lock:
            if self._mux_conn is conn:
                self._mux_conn = None
        conn.close()

    def _prepare_trace(self, payload: dict) -> dict:
        """Adapt a payload's trace context to the negotiated peer + wire.

        Runs after negotiation, so ``_peer_trace`` reflects the ping when
        one happened.  A peer that predates tracing must never see the
        field — the JSON path would merely waste bytes, but the binary
        decoder treats an unknown TLV tag as a protocol violation — so
        the context is stripped unless the capability was advertised.  A
        fully pinned client never pings: there the JSON wire keeps the
        field (old JSON servers ignore unknown request keys) while the
        binary wire strips it (fatal on an old decoder).  On the JSON
        wire the :class:`TraceContext` object is replaced by its
        ``to_wire()`` list, which ``json.dumps`` can carry; the binary
        codec encodes the object natively via its trace tag.
        """
        trace = payload.get("trace")
        if not isinstance(trace, TraceContext):
            return payload
        allowed = self._peer_trace
        if allowed is None:
            allowed = self._active_wire == WIRE_JSON
        if not allowed:
            payload = dict(payload)
            del payload["trace"]
            return payload
        if self._active_wire == WIRE_JSON:
            return {**payload, "trace": trace.to_wire()}
        return payload

    def call(self, payload: dict, timeout: float | None = None):
        """Send one request; return the decoded ``ok`` payload.

        Routes over the multiplexed connection when negotiated (or
        pinned), otherwise over the v1 pool.  Wire-level error responses
        re-raise as their mapped exception types either way.  A trace
        context riding under ``payload["trace"]`` is converted (or
        stripped) to match the peer — see :meth:`_prepare_trace`.
        """
        self._ensure_negotiated(timeout)
        payload = self._prepare_trace(payload)
        if self._use_mux:
            response = self._mux_call(payload, timeout)
        else:
            response = self._pooled_call(payload, timeout)
        if "error" in response:
            raise decode_error(response["error"])
        return response.get("ok", response)

    def ping(self) -> dict:
        """Topology/identity of the server (shard id, shard count, token)."""
        return self.call({"op": OP_PING})

    def mutate(self, specs, seq: int | None = None, timeout: float | None = None) -> dict:
        """Apply one ordered mutation batch on this shard server.

        The wire form follows the negotiated codec: the JSON v1 path
        flattens each spec into a ``[op, kg, head, rel, tail]`` row, the
        binary v2 path ships :class:`MutationSpec` objects natively (TLV
        tag ``0x0E``).  A peer that did not advertise the ``mutate``
        capability is refused client-side — the binary tag would be a
        fatal protocol violation on an old decoder, and the JSON op an
        unknown-op error; neither should cost a round trip.
        """
        self._ensure_negotiated(timeout)
        if self._peer_mutate is False:
            raise RemoteTransportError(
                f"shard server at {self.endpoint} does not support online mutation"
            )
        payload: dict = {"op": OP_MUTATE}
        if seq is not None:
            payload["seq"] = seq
        if self._active_wire == WIRE_JSON:
            payload["mutations"] = encode_mutations(list(specs))
        else:
            payload["mutations"] = list(specs)
        return self.call(payload, timeout=timeout)

    def trace_spans(self, trace_id: str | None = None) -> list[Span]:
        """Pull the server's span ring (optionally one trace's spans).

        Returns an empty list when the peer predates tracing or has it
        disabled (it rejects ``trace`` as an unknown op) — a mixed-version
        fleet must still stitch what the capable servers recorded.
        """
        payload: dict = {"op": OP_TRACE}
        if trace_id is not None:
            payload["trace_id"] = trace_id
        try:
            response = self.call(payload)
        except (ValueError, RemoteOperationError):
            return []  # peer without the trace capability
        spans = []
        for item in response.get("spans", []):
            span = span_from_wire(item)
            if span is not None:
                spans.append(span)
        return spans

    def pin_trace(self, trace_id: str) -> int:
        """Pin one trace's spans in the server's ring (tail-sampling keep).

        Rides the ``trace`` op with ``pin: true``: a pinning server
        moves the spans out of eviction reach and reports how many it
        holds; an older server ignores the unknown key and answers a
        plain pull (``pinned`` absent → 0).  Peers without tracing at
        all return 0 — pinning is best-effort by design.
        """
        payload = {"op": OP_TRACE, "trace_id": trace_id, "pin": True}
        try:
            response = self.call(payload)
        except (ValueError, RemoteOperationError):
            return 0
        try:
            return int(response.get("pinned", 0))
        except (TypeError, ValueError):
            return 0


__all__ = [
    "DEFAULT_TIMEOUT",
    "RemoteShardClient",
    "WIRE_AUTO",
    "default_wire",
    "is_stale_symptom",
]
