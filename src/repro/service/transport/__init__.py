"""Remote shard transport: process-per-shard serving over stream sockets.

This package puts the process boundary into the service stack.  A shard
is one server process hosting one
:class:`~repro.service.service.ExplanationService`; the client routes
each pair to its shard by the CRC-32 partition of
:class:`~repro.service.sharding.ShardRouter` and speaks to the servers
over a thin wire protocol.  The pieces, bottom-up:

* :mod:`~repro.service.transport.framing` — length-prefixed frames over
  TCP/Unix sockets, with oversized-frame rejection and typed
  connection-failure errors.
* :mod:`~repro.service.transport.wire` — the one body codec (binary
  v2): TLV values over an interned string table, pre-encoded blob
  splicing for batch responses, deterministic bytes per payload, and a
  typed :class:`ProtocolError` for every malformed body.
* :mod:`~repro.service.transport.protocol` — operation names, the result
  kinds (explanations round-trip bit-identically) and the error mapping
  that carries backpressure/deadline semantics across the wire.
* :mod:`~repro.service.transport.server` — :class:`ShardServer`, hosting
  one shard's :class:`~repro.service.service.ExplanationService`
  behind a socket (``python -m repro.service serve``).
* :mod:`~repro.service.transport.client` — :class:`RemoteShardClient`,
  the request/response channel to one shard server (a pool of blocking
  sockets, one request per round trip, stale-socket reconnect).
  The `ExEAClient` facade over many of them is
  :class:`~repro.service.cluster.client.ClusterClient`.
* :mod:`~repro.service.transport.cluster` — the serving snapshot
  (:func:`write_snapshot` / :func:`read_snapshot`) and the
  :class:`ShardProcess` handle a local cluster spawns from it
  (:class:`~repro.service.cluster.local.ReplicatedLocalCluster`).

See ``docs/ARCHITECTURE.md`` for where this layer sits in the stack and
``docs/OPERATIONS.md`` for the serving CLI.
"""

from .client import RemoteShardClient, is_stale_symptom
from .cluster import ShardProcess, read_snapshot, write_snapshot
from .framing import (
    DEFAULT_MAX_FRAME_BYTES,
    ConnectionClosedError,
    FrameTimeoutError,
    FrameTooLargeError,
    ProtocolError,
    frame_raw,
    recv_frame_raw,
    send_raw_frame,
)
from .protocol import (
    PROTOCOL_VERSION,
    decode_error,
    decode_value,
    encode_error,
    encode_value,
)
from .server import ShardServer, parse_listen_address
from .wire import decode_binary, encode_binary, encode_binary_value

__all__ = [
    "DEFAULT_MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ConnectionClosedError",
    "FrameTimeoutError",
    "FrameTooLargeError",
    "ProtocolError",
    "RemoteShardClient",
    "ShardProcess",
    "ShardServer",
    "decode_binary",
    "decode_error",
    "decode_value",
    "encode_binary",
    "encode_binary_value",
    "encode_error",
    "encode_value",
    "frame_raw",
    "is_stale_symptom",
    "parse_listen_address",
    "read_snapshot",
    "recv_frame_raw",
    "send_raw_frame",
    "write_snapshot",
]
