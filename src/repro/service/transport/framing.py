"""Length-prefixed framing over stream sockets.

The wire format is deliberately minimal: every message is one *frame* —
a 4-byte big-endian unsigned length prefix followed by exactly that many
bytes of body, encoded by :mod:`~repro.service.transport.wire`.  Frames
are self-delimiting, so a connection can carry any number of
request/response exchanges, and a reader always knows whether it is
looking at a complete message.

Two failure modes get their own exception types because callers handle
them differently:

* :class:`FrameTooLargeError` — the peer announced (or the caller tried
  to send) a frame beyond ``max_frame_bytes``.  Oversized frames are
  rejected *before* the payload is read, so a misbehaving or malicious
  peer cannot make the receiver buffer unbounded data.
* :class:`ConnectionClosedError` — the stream ended mid-frame.  A clean
  EOF *between* frames is a normal disconnect and is reported as ``None``
  from :func:`recv_frame_raw` instead.

Both derive from :class:`ProtocolError`, which itself derives from
:class:`~repro.service.errors.RemoteTransportError`, so client code can
catch one service-level exception type for every transport failure.
"""

from __future__ import annotations

import socket
import struct

from ..errors import RemoteTransportError

#: Frames larger than this are rejected unless the caller overrides it.
DEFAULT_MAX_FRAME_BYTES = 16 * 1024 * 1024

_LENGTH = struct.Struct(">I")


class ProtocolError(RemoteTransportError):
    """The byte stream violated the framing protocol."""


class FrameTooLargeError(ProtocolError):
    """A frame exceeded the configured ``max_frame_bytes`` bound."""


class ConnectionClosedError(ProtocolError):
    """The connection closed in the middle of a frame (or mid-request)."""


class FrameTimeoutError(ProtocolError):
    """A socket timeout elapsed mid-frame.

    Distinct from :class:`ConnectionClosedError` because the two call for
    different reactions: a timed-out peer is *slow*, not gone — retrying
    the request against it doubles its work and the caller's wait, so the
    client raises this immediately instead of re-dialling.
    """


def send_raw_frame(sock: socket.socket, frame: bytes) -> None:
    """Write an already-encoded frame to *sock* (see :func:`frame_raw`)."""
    try:
        sock.sendall(frame)
    except socket.timeout as error:
        raise FrameTimeoutError(f"timed out while sending a frame: {error}") from error
    except OSError as error:
        raise ConnectionClosedError(f"connection lost while sending a frame: {error}") from error


def _recv_exactly(sock: socket.socket, count: int, allow_eof: bool = False) -> bytes | None:
    """Read exactly *count* bytes; ``None`` on clean EOF when allowed.

    A clean EOF is only acceptable *before the first byte* of a frame
    (``allow_eof=True`` — the peer simply hung up between requests); EOF
    anywhere else means the frame was truncated.
    """
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        try:
            chunk = sock.recv(remaining)
        except socket.timeout as error:
            raise FrameTimeoutError(
                f"timed out waiting for {remaining} more frame byte(s)"
            ) from error
        except OSError as error:
            raise ConnectionClosedError(f"connection lost while reading a frame: {error}") from error
        if not chunk:
            if allow_eof and remaining == count:
                return None
            raise ConnectionClosedError(
                f"connection closed mid-frame ({count - remaining}/{count} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def frame_raw(body: bytes, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> bytes:
    """Prefix an already-encoded *body* with its length.

    Raises:
        FrameTooLargeError: *body* exceeds *max_frame_bytes*.
    """
    if len(body) > max_frame_bytes:
        raise FrameTooLargeError(
            f"outgoing frame of {len(body)} bytes exceeds the {max_frame_bytes}-byte bound"
        )
    return _LENGTH.pack(len(body)) + body


def recv_frame_raw(
    sock: socket.socket, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> bytes | None:
    """Read one frame body from *sock* without decoding it.

    ``None`` on a clean EOF between frames; the caller decodes the body
    with :func:`~repro.service.transport.wire.decode_binary`.

    Raises:
        FrameTooLargeError: the announced length exceeds *max_frame_bytes*
            (the payload is not read).
        ConnectionClosedError: EOF or a socket error mid-frame.
    """
    prefix = _recv_exactly(sock, _LENGTH.size, allow_eof=True)
    if prefix is None:
        return None
    (length,) = _LENGTH.unpack(prefix)
    if length > max_frame_bytes:
        raise FrameTooLargeError(
            f"incoming frame announces {length} bytes, beyond the {max_frame_bytes}-byte bound"
        )
    return _recv_exactly(sock, length)
