"""Trace context: the per-request identity that crosses every layer.

A :class:`TraceContext` is minted at a client facade (``new_trace``) and
rides the request through the dispatcher, shard routing and the wire.
It is deliberately tiny — three ids and a sampling flag — so
propagating it costs a few string references on the hot path and nothing
at all when a request is untraced (the context is simply ``None``).

On the wire it rides under an optional ``"trace"`` request key, encoded
natively by the binary codec's trace tag
(:data:`~repro.service.transport.wire._TAG_TRACE`).  Its JSON-safe form
is a 4-element list ``[trace_id, span_id, parent_span_id, sampled]``
(empty string encodes a missing parent).
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass, replace

#: Number of random bytes in a generated id (hex-encoded, so 16 chars).
_ID_BYTES = 8


def _new_id() -> str:
    """A fresh 16-hex-char random identifier."""
    return secrets.token_hex(_ID_BYTES)


def new_span_id() -> str:
    """A fresh span id (for stage spans recorded under an existing trace)."""
    return _new_id()


@dataclass(frozen=True)
class TraceContext:
    """Identity of one traced request (immutable; safe to share across threads).

    Attributes:
        trace_id: identifies the end-to-end request; every span recorded
            on its behalf — on any process — carries this id, which is
            what lets :func:`~repro.service.observability.spans.stitch_trace`
            reassemble the fleet-wide timeline.
        span_id: identifies the current operation within the trace;
            spans recorded downstream use it as their parent.
        parent_span_id: the span this context was derived from, or
            ``None`` at the root.
        sampled: when ``False`` the context still propagates (so a
            downstream sampler could opt in) but no spans are recorded.
    """

    trace_id: str
    span_id: str
    parent_span_id: str | None = None
    sampled: bool = True

    def child(self) -> "TraceContext":
        """Derive a context for a sub-operation (new span under the same trace)."""
        return replace(self, span_id=_new_id(), parent_span_id=self.span_id)

    def to_wire(self) -> list:
        """JSON-safe wire form: ``[trace_id, span_id, parent_or_empty, sampled]``."""
        return [self.trace_id, self.span_id, self.parent_span_id or "", self.sampled]


def new_trace(sampled: bool = True) -> TraceContext:
    """Mint a root :class:`TraceContext` with fresh random ids."""
    return TraceContext(trace_id=_new_id(), span_id=_new_id(), sampled=sampled)


def trace_from_wire(value: object) -> TraceContext | None:
    """Parse a wire-form trace field; tolerant of absent/malformed values.

    Accepts the 4-element list emitted by :meth:`TraceContext.to_wire`
    or an already-decoded :class:`TraceContext` (the binary codec yields
    the object directly).  Anything else — including ``None`` and
    payloads from peers speaking a future extended form — decodes to
    ``None`` rather than raising: an unreadable trace must never fail
    the request it is annotating.
    """
    if isinstance(value, TraceContext):
        return value
    if not isinstance(value, (list, tuple)) or len(value) < 4:
        return None
    trace_id, span_id, parent, sampled = value[0], value[1], value[2], value[3]
    if not isinstance(trace_id, str) or not isinstance(span_id, str):
        return None
    if not trace_id or not span_id:
        return None
    parent_id = parent if isinstance(parent, str) and parent else None
    return TraceContext(
        trace_id=trace_id,
        span_id=span_id,
        parent_span_id=parent_id,
        sampled=bool(sampled),
    )


__all__ = ["TraceContext", "new_span_id", "new_trace", "trace_from_wire"]
