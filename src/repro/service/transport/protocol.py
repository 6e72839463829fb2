"""Wire protocol: operation names, result values, and error mapping.

Every request frame is ``{"op": <name>, ...}``; every response frame is
either ``{"ok": <encoded value>, ...}`` or ``{"error": {"type": <name>,
"message": <str>}}``.  The module owns the two halves that both ends must
agree on:

* **Result values** — explain results are nested dataclasses
  (:class:`~repro.core.explanation.Explanation` → ``MatchedPath`` →
  ``RelationPath`` → ``Triple``) that the binary codec of
  :mod:`~repro.service.transport.wire` carries natively and rebuilds as
  *equal* objects, so a remote explain compares ``==`` (bit-identical) to
  the in-process result.  Confidence values ride as 8-byte doubles,
  verify as booleans; :func:`encode_value` / :func:`decode_value` pin
  each operation kind to its result type.
* **Error mapping** — the service's typed errors
  (:class:`ServiceOverloadedError` backpressure,
  :class:`DeadlineExceededError`, :class:`ServiceClosedError`) cross the
  wire by class name and are re-raised client-side as the same type, so
  remote callers keep the exact retry semantics of in-process callers.
  Anything unmapped resurfaces as
  :class:`~repro.service.errors.RemoteOperationError` with the original
  type name preserved.
"""

from __future__ import annotations

from ...core.explanation import Explanation
from ..errors import (
    DeadlineExceededError,
    RemoteOperationError,
    RemoteTransportError,
    ReplicaBehindError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
)
from ..service import MutationSpec
from .framing import (
    ConnectionClosedError,
    FrameTimeoutError,
    FrameTooLargeError,
    ProtocolError,
)

#: Protocol revision; bumped on incompatible frame-schema changes.
PROTOCOL_VERSION = 1

# ----------------------------------------------------------------------
# Operations
# ----------------------------------------------------------------------
#: Single-pair service operations (mirror ``ExplanationService.submit`` kinds).
OP_EXPLAIN = "explain"
OP_CONFIDENCE = "confidence"
OP_VERIFY = "verify"
#: Multi-pair submission driving the server-side batcher in one exchange.
OP_BATCH = "batch"
#: Topology / liveness probe: shard id, shard count, generation token.
OP_PING = "ping"
#: Raw + derived telemetry (the ``--stats-json`` equivalent over the wire).
OP_STATS = "stats"
#: Sorted predicted pairs of the shard's model (workload construction).
OP_PAIRS = "pairs"
#: Drop the shard's result cache (generation fan-out from the client).
OP_INVALIDATE = "invalidate"
#: Pull the server's span ring (optionally filtered to one ``trace_id``)
#: so a client can stitch a fleet-wide per-request timeline.
OP_TRACE = "trace"
#: Apply an ordered batch of KG mutations (blast-radius scoped cache
#: invalidation server-side).
OP_MUTATE = "mutate"
#: Ask the server process to exit after responding.
OP_SHUTDOWN = "shutdown"

#: Operation kinds a request/batch item may carry.
REQUEST_KINDS = (OP_EXPLAIN, OP_CONFIDENCE, OP_VERIFY)

# ----------------------------------------------------------------------
# Error mapping
# ----------------------------------------------------------------------
#: Exception classes that cross the wire under their own name.
_ERROR_TYPES: dict[str, type[Exception]] = {
    cls.__name__: cls
    for cls in (
        ServiceError,
        ServiceOverloadedError,
        ReplicaBehindError,
        ServiceClosedError,
        DeadlineExceededError,
        RemoteTransportError,
        ProtocolError,
        FrameTooLargeError,
        FrameTimeoutError,
        ConnectionClosedError,
        ValueError,
        KeyError,
    )
}


def encode_error(error: BaseException) -> dict:
    """Encode an exception into its wire form ``{"type", "message"}``."""
    return {"type": type(error).__name__, "message": str(error)}


def decode_error(payload: dict) -> Exception:
    """Rebuild the client-side exception for a wire error payload.

    Mapped types come back as themselves; anything else becomes a
    :class:`RemoteOperationError` carrying the remote type name.
    """
    name = payload.get("type", "Exception")
    message = payload.get("message", "")
    mapped = _ERROR_TYPES.get(name)
    if mapped is None:
        return RemoteOperationError(name, message)
    return mapped(message)


# ----------------------------------------------------------------------
# Result values
# ----------------------------------------------------------------------
def decode_mutations(payload: object) -> list[MutationSpec]:
    """Check a mutation batch off the wire: a list of :class:`MutationSpec`.

    Anything else raises ``ValueError`` so the server answers with a typed
    error frame instead of dying mid-request.
    """
    if not isinstance(payload, list):
        raise ValueError("mutations must be a list")
    for item in payload:
        if not isinstance(item, MutationSpec):
            raise ValueError(f"malformed mutation {item!r}")
    return payload


def encode_value(kind: str, value) -> object:
    """One operation result in the form the binary codec carries (kind-directed)."""
    if kind == OP_EXPLAIN:
        return value
    if kind == OP_CONFIDENCE:
        return float(value)
    if kind == OP_VERIFY:
        return bool(value)
    raise ValueError(f"unknown result kind {kind!r}")


def decode_value(kind: str, payload):
    """Check one operation result off the wire against its kind.

    Raises:
        ProtocolError: an explain result that is not an
            :class:`Explanation`.
    """
    if kind == OP_EXPLAIN:
        if not isinstance(payload, Explanation):
            raise ProtocolError(
                f"explain result must be an Explanation, got {type(payload).__name__}"
            )
        return payload
    if kind == OP_CONFIDENCE:
        return float(payload)
    if kind == OP_VERIFY:
        return bool(payload)
    raise ValueError(f"unknown result kind {kind!r}")
