"""Remote shard transport: process-per-shard serving over stream sockets.

This package puts the first process boundary into the service stack.  The
in-process :class:`~repro.service.sharding.ShardedExplanationService`
already partitions the pair space into CRC-32-stable shard groups; here
each shard group moves into its own server process and the client facade
speaks to them over a thin wire protocol.  The pieces, bottom-up:

* :mod:`~repro.service.transport.framing` — length-prefixed frames over
  TCP/Unix sockets, with oversized-frame rejection and typed
  connection-failure errors (bodies are JSON or wire-v2 binary).
* :mod:`~repro.service.transport.wire` — the negotiated binary body
  codec: TLV values over an interned string table, pre-encoded blob
  splicing for batch responses, deterministic bytes per payload.
* :mod:`~repro.service.transport.protocol` — operation names, the value
  codec (explanations round-trip bit-identically) and the error mapping
  that carries backpressure/deadline semantics across the wire.
* :mod:`~repro.service.transport.mux` — :class:`MuxConnection`, one
  selectors-driven multiplexed connection per endpoint: request-id
  correlation, out-of-order completion, per-request deadlines.
* :mod:`~repro.service.transport.server` — :class:`ShardServer`, hosting
  one shard group's :class:`~repro.service.service.ExplanationService`
  behind a socket (``python -m repro.service serve``).
* :mod:`~repro.service.transport.client` — :class:`RemoteShardClient`,
  the request/response channel to one shard server (connection pool or
  multiplexed connection, stale-socket reconnect, codec negotiation).
  The `ExEAClient` facade over many of them is
  :class:`~repro.service.cluster.client.ClusterClient`.
* :mod:`~repro.service.transport.cluster` — the serving snapshot
  (:func:`write_snapshot` / :func:`read_snapshot`) and the
  :class:`ShardProcess` handle a local cluster spawns from it
  (:class:`~repro.service.cluster.local.ReplicatedLocalCluster`).

See ``docs/ARCHITECTURE.md`` for where this layer sits in the stack and
``docs/OPERATIONS.md`` for the serving CLI.
"""

from .client import WIRE_AUTO, RemoteShardClient, default_wire, is_stale_symptom
from .cluster import ShardProcess, read_snapshot, write_snapshot
from .framing import (
    DEFAULT_MAX_FRAME_BYTES,
    ConnectionClosedError,
    FrameTimeoutError,
    FrameTooLargeError,
    ProtocolError,
    decode_json_body,
    encode_frame,
    frame_raw,
    recv_frame,
    recv_frame_raw,
    send_frame,
    send_raw_frame,
)
from .mux import MuxConnection
from .protocol import (
    PROTOCOL_VERSION,
    decode_error,
    decode_value,
    encode_error,
    encode_value,
)
from .server import ShardServer, parse_listen_address
from .wire import (
    SUPPORTED_WIRES,
    WIRE_BINARY,
    WIRE_JSON,
    decode_any_body,
    decode_binary,
    encode_binary,
    encode_binary_value,
)

__all__ = [
    "DEFAULT_MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "SUPPORTED_WIRES",
    "WIRE_AUTO",
    "WIRE_BINARY",
    "WIRE_JSON",
    "ConnectionClosedError",
    "FrameTimeoutError",
    "FrameTooLargeError",
    "MuxConnection",
    "ProtocolError",
    "RemoteShardClient",
    "ShardProcess",
    "ShardServer",
    "decode_any_body",
    "decode_binary",
    "decode_error",
    "decode_json_body",
    "decode_value",
    "default_wire",
    "encode_binary",
    "encode_binary_value",
    "encode_error",
    "encode_frame",
    "encode_value",
    "frame_raw",
    "is_stale_symptom",
    "parse_listen_address",
    "read_snapshot",
    "recv_frame",
    "recv_frame_raw",
    "send_frame",
    "send_raw_frame",
    "write_snapshot",
]
