"""The per-shard server process: one shard behind a socket.

:class:`ShardServer` hosts exactly one
:class:`~repro.service.service.ExplanationService` — one shard
(dispatcher + worker pool + versioned cache) — and exposes it over a
TCP or Unix stream socket using the length-prefixed framing of
:mod:`~repro.service.transport.framing`.  A cluster is therefore *N*
independent server processes; the client routes pairs by the CRC-32
:class:`~repro.service.sharding.ShardRouter`.  Every process serves the
same snapshot, so remote results are bit-identical to one in-process
service at any shard count.

Every frame body is a binary v2 body
(:mod:`~repro.service.transport.wire`).  A body that does not decode is
answered with a ``ProtocolError`` error frame, and then the connection
is closed.

Concurrency model: one thread per connection, serving its frames one
request/response exchange at a time (clients pool connections for
concurrency).  Explain results are pre-encoded once per generation into
binary blobs and spliced into every later response that needs them, so a
warm replay's hot results cost a memcpy, not a codec pass.

Service errors (backpressure, deadlines, closed) cross the wire by type
name and are re-raised client-side as the same class.
"""

from __future__ import annotations

import errno
import os
import socket
import threading
import time

from ..errors import ReplicaBehindError, ServiceClosedError, ServiceOverloadedError
from ..observability.context import TraceContext, new_span_id, trace_from_wire
from ..service import ExplanationService
from ..sharding import ShardRouter
from .framing import (
    DEFAULT_MAX_FRAME_BYTES,
    FrameTooLargeError,
    ProtocolError,
    frame_raw,
    recv_frame_raw,
)
from .protocol import (
    OP_BATCH,
    OP_EXPLAIN,
    OP_INVALIDATE,
    OP_MUTATE,
    OP_PAIRS,
    OP_PING,
    OP_SHUTDOWN,
    OP_STATS,
    OP_TRACE,
    PROTOCOL_VERSION,
    REQUEST_KINDS,
    decode_mutations,
    encode_error,
    encode_value,
)
from .wire import decode_binary, encode_binary, encode_binary_value

#: Backoff between server-side admission retries of one ``batch`` item.
_BATCH_RETRY_SLEEP = 0.0005
#: Cap on total admission retrying per ``batch`` item when the item
#: carries no deadline — bounds the worst case instead of spinning forever
#: against a queue that never drains.
_BATCH_MAX_RETRY_SECONDS = 30.0
#: Pre-encoded explain blobs kept before a wholesale cache reset.
_ENCODE_CACHE_CAPACITY = 8192
#: Liveness lease this server grants on every ping (seconds).  The
#: control plane renews the lease on each successful probe and treats an
#: expiry — or queued work whose completed counter stops advancing — as
#: a revocation: the half-dead-replica detector ping counts cannot be.
DEFAULT_LEASE_TTL = 15.0


def parse_listen_address(listen: str) -> tuple[int, object]:
    """Parse ``host:port`` or ``unix:/path`` into ``(family, address)``."""
    if listen.startswith("unix:"):
        if not hasattr(socket, "AF_UNIX"):  # pragma: no cover - non-POSIX
            raise ValueError("unix sockets are not supported on this platform")
        return socket.AF_UNIX, listen[len("unix:"):]
    host, _, port = listen.rpartition(":")
    if not host or not port:
        raise ValueError(f"listen address must be host:port or unix:/path, got {listen!r}")
    return socket.AF_INET, (host, int(port))


class ShardServer:
    """Serve one shard's :class:`ExplanationService` over a socket."""

    def __init__(
        self,
        service: ExplanationService,
        shard_id: int = 0,
        num_shards: int = 1,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        lease_ttl: float = DEFAULT_LEASE_TTL,
    ) -> None:
        if not 0 <= shard_id < num_shards:
            raise ValueError(f"shard_id {shard_id} out of range for {num_shards} shard(s)")
        self.service = service
        self.shard_id = shard_id
        self.num_shards = num_shards
        self.max_frame_bytes = max_frame_bytes
        if lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be positive, got {lease_ttl!r}")
        self.lease_ttl = lease_ttl
        #: highest mutation-log sequence number applied by this replica
        #: (0 = none); guarded by its own lock because mutate frames may
        #: arrive on any connection thread
        self._mutation_seq_lock = threading.Lock()
        self._mutation_seq = 0
        #: highest sequence this replica knows exists but has not applied;
        #: while set, reads are refused (the replica would serve a graph
        #: state the cluster has already moved past)
        self._mutation_behind: int | None = None
        self._listener: socket.socket | None = None
        self._address: str | None = None
        self._unix_path: str | None = None
        self._stop = threading.Event()
        self._conn_lock = threading.Lock()
        self._connections: set[socket.socket] = set()
        self._thread: threading.Thread | None = None
        #: (token, count) cache of this shard's pair-partition size
        self._pairs_cache: tuple[tuple, int] | None = None
        #: (kind, source, target) -> pre-encoded binary blob, per generation
        self._encode_lock = threading.Lock()
        self._encode_cache: dict[tuple, object] = {}
        self._encode_token: tuple | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> str:
        """The bound listen address (``host:port`` / ``unix:path``)."""
        if self._address is None:
            raise RuntimeError("the server is not bound; call bind() first")
        return self._address

    def bind(self, listen: str) -> str:
        """Bind the listening socket; returns the resolved address.

        ``host:0`` binds an ephemeral TCP port; the returned address (and
        the CLI's ``READY`` line) carries the actual port.
        """
        family, address = parse_listen_address(listen)
        if family != socket.AF_INET:
            # A previous server (stopped or crashed) leaves its socket
            # node on the filesystem; binding over it would fail with
            # EADDRINUSE, so restarts clear the stale path — but ONLY a
            # stale one: unlinking a node a live server still answers on
            # would silently hijack its address and split the cluster.
            self._remove_stale_unix_socket(address)
        listener = socket.socket(family, socket.SOCK_STREAM)
        if family == socket.AF_INET:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(address)
        listener.listen(128)
        self._listener = listener
        if family == socket.AF_INET:
            host, port = listener.getsockname()[:2]
            self._address = f"{host}:{port}"
        else:
            self._unix_path = address
            self._address = f"unix:{address}"
        return self._address

    @staticmethod
    def _remove_stale_unix_socket(address: str) -> None:
        """Unlink a unix-socket path only if no live server answers on it.

        Raises:
            OSError: (``EADDRINUSE``) a server accepted the probe
                connection — the address is genuinely in use.
        """
        if not os.path.exists(address):
            return
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            probe.settimeout(1.0)
            probe.connect(address)
        except (ConnectionRefusedError, FileNotFoundError):
            try:
                os.unlink(address)  # stale node from a dead server
            except OSError:
                pass  # bind() will report the real problem
        else:
            # Connected (a timeout would also mean *something* is bound —
            # it propagates and fails the bind rather than hijacking it).
            raise OSError(
                errno.EADDRINUSE,
                f"a live server is already accepting on unix:{address}",
            )
        finally:
            probe.close()

    def serve_forever(self) -> None:
        """Accept connections until :meth:`stop` (one thread per connection).

        The accept loop polls with a short timeout rather than blocking
        indefinitely: on Linux, closing a listening socket does *not* wake
        a thread blocked in ``accept()``, so an indefinitely-blocking loop
        would survive :meth:`stop` until the next incoming connection.
        """
        if self._listener is None:
            raise RuntimeError("the server is not bound; call bind() first")
        try:
            self._listener.settimeout(0.25)
        except OSError:
            return  # stop() closed the listener before the loop began
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue  # re-check the stop flag
            except OSError:
                break  # listener closed by stop()
            conn.settimeout(None)
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            )
            thread.start()

    def start_in_thread(self) -> "ShardServer":
        """Run :meth:`serve_forever` on a daemon thread (tests, embedding)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self.serve_forever, name="repro-shard-server", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting and tear down live connections (idempotent)."""
        self._stop.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        if self._unix_path is not None:
            try:
                os.unlink(self._unix_path)
            except OSError:
                pass
            self._unix_path = None
        with self._conn_lock:
            connections = list(self._connections)
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    def _serve_connection(self, conn: socket.socket) -> None:
        """One connection's serial exchange loop; closes on any protocol error."""
        with self._conn_lock:
            self._connections.add(conn)
        wire_stats = self.service.stats.wire
        try:
            with conn:
                if conn.family == socket.AF_INET:
                    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                while not self._stop.is_set():
                    try:
                        body = recv_frame_raw(conn, self.max_frame_bytes)
                        if body is None:
                            return  # clean disconnect
                        started = time.perf_counter_ns()
                        request = decode_binary(body)
                        decode_ns = time.perf_counter_ns() - started
                        wire_stats.record_received(4 + len(body), decode_ns)
                        self.service.stats.record_stage("wire_decode", decode_ns / 1e9)
                    except ProtocolError as error:
                        # The stream is poisoned (e.g. an oversized frame's
                        # body was never read) — report, then hang up.
                        self._try_send(conn, {"error": encode_error(error)})
                        return
                    trace = self._request_trace(request, decode_ns)
                    response = self._dispatch(request)
                    if not self._try_send(conn, response, trace):
                        return
                    if request.get("op") == OP_SHUTDOWN:
                        self.stop()
                        return
        finally:
            with self._conn_lock:
                self._connections.discard(conn)

    def _request_trace(self, request: dict, decode_ns: int) -> TraceContext | None:
        """Trace context carried by one request frame, recording its decode span.

        Frame decode happens before anyone knows whether the frame is
        traced, so the ``wire_decode`` span is recorded here — right
        after the fact — for sampled traces; the stage histogram gets
        every frame's decode time regardless, via
        :class:`~repro.service.stats.WireCounters` plus the stage record
        below.
        """
        value = request.get("trace")
        if value is None:
            return None
        trace = trace_from_wire(value)
        if trace is not None and self.service.tracer.should_record(trace):
            self.service.tracer.recorder.add(
                "wire_decode",
                trace,
                decode_ns / 1e9,
                span_id=new_span_id(),
                parent_span_id=trace.span_id,
            )
        return trace

    def _encode_response(self, payload: dict, trace: TraceContext | None = None) -> bytes:
        """Encode one response frame, counting codec time."""
        started = time.perf_counter_ns()
        frame = frame_raw(encode_binary(payload), self.max_frame_bytes)
        encode_ns = time.perf_counter_ns() - started
        self.service.stats.wire.record_sent(len(frame), encode_ns)
        self.service.stats.record_stage("wire_encode", encode_ns / 1e9)
        if trace is not None and self.service.tracer.should_record(trace):
            self.service.tracer.recorder.add(
                "wire_encode",
                trace,
                encode_ns / 1e9,
                span_id=new_span_id(),
                parent_span_id=trace.span_id,
            )
        return frame

    def _try_send(
        self, conn: socket.socket, payload: dict, trace: TraceContext | None = None
    ) -> bool:
        """Best-effort frame send; False when the connection is gone.

        A response too large for the frame bound is reported to the
        client as an error frame (which is small) rather than silently
        dropping the connection — the client then raises
        :class:`FrameTooLargeError` instead of a misleading
        connection-closed error, and the connection stays usable.
        """
        try:
            frame = self._encode_response(payload, trace)
        except FrameTooLargeError as error:
            try:
                frame = self._encode_response({"error": encode_error(error)})
            except ProtocolError:
                return False
        except ProtocolError:
            return False
        try:
            conn.sendall(frame)
            return True
        except OSError:
            return False

    # ------------------------------------------------------------------
    # Request dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, request: dict) -> dict:
        """Map one request frame to its response frame (never raises)."""
        try:
            op = request.get("op")
            if op == OP_PING:
                return {"ok": self._describe()}
            if op in REQUEST_KINDS:
                self._check_caught_up()
                return self._handle_single(op, request)
            if op == OP_BATCH:
                self._check_caught_up()
                return self._handle_batch(request)
            if op == OP_MUTATE:
                return self._handle_mutate(request)
            if op == OP_STATS:
                return {"ok": self._stats_payload()}
            if op == OP_PAIRS:
                pairs = sorted(self.service.model.predict().pairs)
                return {"ok": [[source, target] for source, target in pairs]}
            if op == OP_INVALIDATE:
                return {"ok": self._handle_invalidate()}
            if op == OP_TRACE:
                return {"ok": self._trace_payload(request)}
            if op == OP_SHUTDOWN:
                return {"ok": True}
            raise ValueError(f"unknown operation {op!r}")
        except BaseException as error:  # noqa: BLE001 - every failure crosses as an error frame
            return {"error": encode_error(error)}

    def _describe(self) -> dict:
        """Topology/identity payload of the ``ping`` operation.

        Carries the dataset/model names and the generation token so the
        client can refuse a cluster whose shards serve different data —
        matching shard ids alone would not catch two processes started
        against different datasets or snapshots.
        """
        return {
            "shard_id": self.shard_id,
            "num_shards": self.num_shards,
            "protocol": PROTOCOL_VERSION,
            "mutation_seq": self._mutation_seq,
            "dataset": self.service.dataset.name,
            "model": self.service.model.name,
            "token": list(self.service.generation_token()),
            "pid": os.getpid(),
            # Live load signal for health probes / routing: how many
            # admitted requests are waiting for a worker right now.
            "queue_depth": len(self.service.queue),
            # Liveness lease grant + work-progress counter: the control
            # plane renews the lease per ping and pairs the completed
            # counter with queue_depth to catch a replica that still
            # answers pings while its workers have stopped making
            # progress (stalled, wedged, or paused).
            "lease_ttl": self.lease_ttl,
            "completed": self.service.stats.completed,
        }

    def _num_pairs(self) -> int:
        """Size of this shard's pair partition (cached per generation token).

        Counts the reference-alignment pairs (predictions ∪ seed — the
        population this process answers about) that the cluster's CRC-32
        router maps to this shard id.  The reference is already cached per
        generation by the service, so recomputation only happens after a
        KG mutation or refit.
        """
        token = self.service.generation_token()
        if self._pairs_cache is None or self._pairs_cache[0] != token:
            router = ShardRouter(self.num_shards)
            count = sum(
                1
                for source, target in self.service.reference_alignment().pairs
                if router.shard_of(source, target) == self.shard_id
            )
            self._pairs_cache = (token, count)
        return self._pairs_cache[1]

    def _result_value(self, kind: str, source: str, target: str, value):
        """One operation result in its wire form.

        Confidence/verify go as raw scalars, explain results as
        generation-scoped pre-encoded blobs: the first request for a pair
        pays one codec pass, every later response splices the same bytes
        (and the client's decode cache recognises them).
        """
        if kind != OP_EXPLAIN:
            return encode_value(kind, value)
        token = self.service.generation_token()
        key = (kind, source, target)
        with self._encode_lock:
            if self._encode_token != token:
                self._encode_token = token
                self._encode_cache.clear()
            blob = self._encode_cache.get(key)
        if blob is None:
            blob = encode_binary_value(value)
            with self._encode_lock:
                if len(self._encode_cache) >= _ENCODE_CACHE_CAPACITY:
                    self._encode_cache.clear()
                if self._encode_token == token:
                    self._encode_cache[key] = blob
        return blob

    def _handle_single(self, kind: str, request: dict) -> dict:
        """One submit-and-wait operation (explain / confidence / verify)."""
        source, target = request["source"], request["target"]
        trace = trace_from_wire(request.get("trace"))
        future = self.service.submit(
            kind, source, target, request.get("deadline_ms"), trace=trace
        )
        return {"ok": self._result_value(kind, source, target, future.result())}

    def _handle_batch(self, request: dict) -> dict:
        """Submit every item before gathering — the remote batching driver.

        Admission control is honoured *per item*: an overloaded queue is
        retried with a short backoff (mirroring the client-side retry the
        in-process replay performs), while any other failure — including a
        lapsed deadline — is reported in that item's slot so one poisonous
        item cannot fail the whole exchange.
        """
        items = request["items"]
        deadline_ms = request.get("deadline_ms")
        trace = trace_from_wire(request.get("trace"))
        slots: list[dict | None] = [None] * len(items)
        futures: list[tuple[int, str, object]] = []
        retry_window = (
            deadline_ms / 1000.0 if deadline_ms is not None else _BATCH_MAX_RETRY_SECONDS
        )
        for index, (kind, source, target) in enumerate(items):
            retry_until = time.monotonic() + retry_window
            while True:
                try:
                    futures.append(
                        (
                            index,
                            kind,
                            self.service.submit(
                                kind, source, target, deadline_ms, trace=trace
                            ),
                        )
                    )
                    break
                except ServiceOverloadedError as error:
                    # Retry is bounded: give up when the item's deadline
                    # (or the no-deadline cap) lapses, and bail out on
                    # server shutdown rather than spinning forever
                    # against a queue that never drains.
                    if self._stop.is_set() or time.monotonic() >= retry_until:
                        slots[index] = {"error": encode_error(error)}
                        break
                    time.sleep(_BATCH_RETRY_SLEEP)
                except (ServiceClosedError, ValueError) as error:
                    slots[index] = {"error": encode_error(error)}
                    break
        for index, kind, future in futures:
            try:
                source, target = items[index][1], items[index][2]
                slots[index] = {
                    "ok": self._result_value(kind, source, target, future.result())
                }
            except BaseException as error:  # noqa: BLE001 - per-item isolation
                slots[index] = {"error": encode_error(error)}
        return {"results": slots}

    def _trace_payload(self, request: dict) -> dict:
        """This process's span ring, optionally filtered to one trace id.

        ``pin: true`` (with a ``trace_id``) additionally pins that
        trace's spans against ring eviction — the tail sampler's
        promote-to-keep fan-out.
        """
        trace_id = request.get("trace_id")
        trace_id = trace_id if isinstance(trace_id, str) else None
        pinned = 0
        if request.get("pin") and trace_id is not None:
            pinned = self.service.tracer.recorder.pin(trace_id)
        spans = self.service.trace_spans(trace_id)
        return {
            "shard_id": self.shard_id,
            "pid": os.getpid(),
            "spans": [span.to_wire() for span in spans],
            "pinned": pinned,
        }

    def _stats_payload(self) -> dict:
        """Raw + derived telemetry — the ``--stats-json`` equivalent."""
        return {
            "counters": self.service.stats.raw(),
            "snapshot": self.service.stats.snapshot(),
            "token": list(self.service.generation_token()),
            "queue_depth": len(self.service.queue),
            "num_pairs": self._num_pairs(),
            "slow_requests": self.service.slow_requests(),
        }

    def _check_caught_up(self) -> None:
        """Refuse reads while this replica is missing mutation-log entries.

        A gap means some peer applied mutations this replica never saw:
        answering reads here would serve a graph state the cluster has
        already moved past.  :class:`ReplicaBehindError` subclasses the
        backpressure error, so cluster clients fail the read over to a
        caught-up replica while this one is replayed up to date.
        """
        behind = self._mutation_behind
        if behind is not None:
            raise ReplicaBehindError(
                f"replica applied mutation seq {self._mutation_seq} but the log "
                f"has advanced to {behind}; reads refused until caught up"
            )

    def _handle_mutate(self, request: dict) -> dict:
        """Apply one ordered mutation batch; scoped-invalidate derived caches.

        ``seq`` orders batches across the cluster (the sequencing client
        numbers them 1, 2, 3, …).  A batch at or below the applied
        sequence is an idempotent duplicate (acked without re-applying);
        a batch that skips ahead marks the replica *behind* and is
        refused, as are all reads, until the client replays the gap in
        order.  Sequence-less batches (single-server deployments) apply
        unordered.
        """
        specs = decode_mutations(request.get("mutations", []))
        seq = request.get("seq")
        if seq is not None and (not isinstance(seq, int) or isinstance(seq, bool) or seq < 1):
            raise ValueError(f"mutation seq must be a positive integer, got {seq!r}")
        with self._mutation_seq_lock:
            if seq is not None:
                if seq <= self._mutation_seq:
                    return {
                        "ok": {
                            "applied": 0,
                            "duplicate": True,
                            "seq": self._mutation_seq,
                            "token": list(self.service.generation_token()),
                        }
                    }
                if seq > self._mutation_seq + 1:
                    if self._mutation_behind is None or seq > self._mutation_behind:
                        self._mutation_behind = seq
                    raise ReplicaBehindError(
                        f"replica expects mutation seq {self._mutation_seq + 1}, "
                        f"got {seq}; missing entries must be replayed in order"
                    )
            token_before = self.service.generation_token()
            report = self.service.mutate(specs)
            scopes = report.pop("_scopes", None)
            self._scope_encode_cache(scopes, token_before)
            if seq is not None:
                self._mutation_seq = seq
                if self._mutation_behind is not None and seq >= self._mutation_behind:
                    self._mutation_behind = None
            report["seq"] = self._mutation_seq
            return {"ok": report}

    def _scope_encode_cache(self, scopes, token_before: tuple) -> None:
        """Evict pre-encoded explain blobs inside the mutation's blast radius.

        Surviving blobs encode explanations of pairs outside the scope,
        which the blast-radius contract guarantees are byte-identical
        post-mutation; re-stamping the cache's generation token validates
        them for splicing into post-mutation responses.  Blobs from any
        *other* generation (``_encode_token != token_before`` — e.g. an
        out-of-band KG edit slipped between mutations) are not covered by
        this mutation's scope and are dropped wholesale.
        """
        token = self.service.generation_token()
        with self._encode_lock:
            explain_scope = None if scopes is None else scopes.get(OP_EXPLAIN)
            if scopes is None or explain_scope is None or self._encode_token != token_before:
                self._encode_cache.clear()
            else:
                sources, targets = explain_scope
                for key in [
                    k for k in self._encode_cache if k[1] in sources or k[2] in targets
                ]:
                    del self._encode_cache[key]
            self._encode_token = token

    def _handle_invalidate(self) -> dict:
        """Drop this shard's result cache (client-driven generation fan-out).

        Counted under ``cache_invalidations`` exactly like a token-driven
        wholesale drop (and, like it, only when entries actually existed),
        so remote invalidations stay visible in the telemetry.
        """
        cleared = len(self.service.cache)
        self.service.cache.clear()
        if cleared:
            self.service.stats.record_invalidation()
        return {"cleared": cleared, "token": list(self.service.generation_token())}
